"""Realification and expression printing against the recursive reference.

``_ref_split_expr`` and ``_ref_fmt_expr`` are the plain recursive stage
three and expression printer that ``compiler._split_expr`` and
``compiler._fmt_expr`` replaced; the compiler must build the same real
tree and print the same text for every stage-two expression.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlattice.compiler import (
    CompileError,
    _fmt_expr,
    _Leaves,
    _split_expr,
    complex_to_real,
    emit_solver_text,
    encode_kernels,
    flatten,
)
from qlattice.sentences import parse_sentence


# --- the reference ----------------------------------------------------------


def _ref_split_expr(e):
    """Real and imaginary parts of a complex expression."""
    op, args = e
    if op == "var":
        (name,) = args
        return ("var", (f"{name}.re",)), ("var", (f"{name}.im",))
    if op == "const":
        re, im = args
        return ("const", (re,)), ("const", (im,))
    if op == "conj":
        re, im = _ref_split_expr(args[0])
        return re, ("neg", (im,))
    if op == "add":
        parts = [_ref_split_expr(a) for a in args]
        return ("add", tuple(p[0] for p in parts)), ("add", tuple(p[1] for p in parts))
    if op == "mul":
        a_re, a_im = _ref_split_expr(args[0])
        b_re, b_im = _ref_split_expr(args[1])
        re = ("add", (("mul", (a_re, b_re)), ("neg", (("mul", (a_im, b_im)),))))
        im = ("add", (("mul", (a_re, b_im)), ("mul", (a_im, b_re))))
        return re, im
    raise CompileError(f"not a complex expression: {e!r}")


_REF_EXPR_WORDS = {"neg": "-", "mul": "*", "add": "+"}


def _ref_fmt_const(value):
    if value < 0:
        return f"(- {_ref_fmt_const(-value)})"
    if value.denominator == 1:
        return str(value.numerator)
    return f"(/ {value.numerator} {value.denominator})"


def _ref_fmt_expr(e):
    op, args = e
    if op == "var":
        return args[0]
    if op == "const" and len(args) == 1:
        return _ref_fmt_const(args[0])
    if op == "add" and len(args) < 2:
        return _ref_fmt_expr(args[0]) if args else "0"
    if op not in _REF_EXPR_WORDS:
        raise CompileError(f"not a real expression: {e!r}")
    return f"({_REF_EXPR_WORDS[op]} " + " ".join(_ref_fmt_expr(a) for a in args) + ")"


# --- stage-two expressions --------------------------------------------------

_leaves = st.sampled_from(["x.1.1", "x.1.2", "y.2.1", "v!1.1", "v!2.3"]).map(
    lambda name: ("var", (name,))
)
_parts = st.fractions(min_value=-7, max_value=7, max_denominator=5)
_consts = st.tuples(_parts, _parts).map(lambda reim: ("const", reim))


def _extend(inner):
    return st.one_of(
        inner.map(lambda e: ("conj", (e,))),
        st.tuples(inner, inner).map(lambda ab: ("mul", ab)),
        st.lists(inner, max_size=5).map(lambda es: ("add", tuple(es))),
    )


# leaves, constants, conj of a leaf or a compound, nested products, and
# sums of 0, 1 or many operands, drawn to any of these depths
_exprs = st.recursive(st.one_of(_leaves, _consts), _extend, max_leaves=12)


@settings(max_examples=400, deadline=None)
@given(_exprs)
def test_split_and_print_match_the_reference(e):
    parts = _split_expr(e, _Leaves())
    assert parts == _ref_split_expr(e)
    assert [_fmt_expr(p) for p in parts] == [_ref_fmt_expr(p) for p in _ref_split_expr(e)]


@settings(max_examples=200, deadline=None)
@given(_exprs, _exprs)
def test_equations_realify_as_the_reference(lhs, rhs):
    (l_re, l_im), (r_re, r_im) = _ref_split_expr(lhs), _ref_split_expr(rhs)
    real = complex_to_real(("forall", (("x.1.1",), ("eq", (lhs, rhs)))))
    assert real == ("forall", (("x.1.1.re", "x.1.1.im"), (
        "and", (("eq", (l_re, r_re)), ("eq", (l_im, r_im)))
    )))
    text = emit_solver_text(real)
    assert f"(= {_ref_fmt_expr(l_re)} {_ref_fmt_expr(r_re)})" in text
    assert f"(= {_ref_fmt_expr(l_im)} {_ref_fmt_expr(r_im)})" in text


def test_every_occurrence_shares_one_leaf_pair():
    c = encode_kernels(flatten(parse_sentence("forall x, y. x ^ y = ~x")), 2)
    real = complex_to_real(c)
    seen = {}
    todo = [real]
    while todo:
        op, args = todo.pop()
        if op == "var":
            assert seen.setdefault(args[0], args) is args
        elif op in ("forall", "exists"):
            todo.append(args[1])
        elif op != "const":
            todo += args
    assert {"x.1.1.re", "x.1.1.im", "v!1.2.re"} <= seen.keys()


_A, _B, _C = (("var", (name,)) for name in ("a", "b", "c"))


@pytest.mark.parametrize(
    "e",
    [
        ("mul", (_A, _B, _C)),
        ("mul", (_A,)),
        ("mul", ()),
        ("sub", (_A, _B)),
        ("neg", (_A,)),
        ("const", (Fraction(1),)),
        ("const", (Fraction(1), Fraction(2), Fraction(3))),
        ("conj", (_A, _B)),
        ("add", (_A, ("mul", (_A, _B, _C)))),
    ],
    ids=["mul-3", "mul-1", "mul-0", "unknown-op", "real-neg", "const-1", "const-3",
         "conj-2", "nested-mul-3"],
)
def test_malformed_complex_expressions_are_refused(e):
    with pytest.raises(CompileError):
        _split_expr(e, _Leaves())
    with pytest.raises(CompileError):
        complex_to_real(("eq", (e, _A)))


@pytest.mark.parametrize(
    "e",
    [
        ("mul", (_A, _B, _C)),
        ("mul", (_A,)),
        ("sub", (_A, _B)),
        ("conj", (_A,)),
        ("neg", (_A, _B)),
        ("const", (Fraction(1), Fraction(2))),
        ("const", ()),
        ("add", (_A, ("mul", (_A,)))),
    ],
    ids=["mul-3", "mul-1", "unknown-op", "complex-conj", "neg-2", "const-2", "const-0",
         "nested-mul-1"],
)
def test_malformed_real_expressions_are_refused(e):
    with pytest.raises(CompileError):
        _fmt_expr(e)
    with pytest.raises(CompileError):
        emit_solver_text(("eq", (e, _A)))
