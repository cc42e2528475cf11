"""Realification against the recursive reference.

``_ref_split_expr`` and ``_ref_fmt_expr`` are a plain recursive stage
three that builds a real expression tree and a printer for that tree;
``compiler._split_expr`` writes each real part as SMT-LIB text directly,
and must write the reference's printed text for every stage-two
expression.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlattice.compiler import (
    CompileError,
    _split_expr,
    complex_to_real,
    emit_solver_text,
)


# --- the reference ----------------------------------------------------------


def _ref_split_expr(e):
    """Real and imaginary parts of a complex expression."""
    op, args = e
    if op == "var":
        (name,) = args
        return ("var", (f"{name}.re",)), ("var", (f"{name}.im",))
    if op == "conj":
        re, im = _ref_split_expr(args[0])
        return re, ("neg", (im,))
    if op == "add":
        parts = [_ref_split_expr(a) for a in args]
        return ("add", tuple(p[0] for p in parts)), ("add", tuple(p[1] for p in parts))
    if op == "dot":
        row, vec, n = args
        return _ref_split_expr(("add", tuple(
            ("mul", (("var", (f"{row}.{j}",)), ("var", (f"{vec}.{j}",))))
            for j in range(1, n + 1)
        )))
    if op == "mul":
        a_re, a_im = _ref_split_expr(args[0])
        b_re, b_im = _ref_split_expr(args[1])
        re = ("add", (("mul", (a_re, b_re)), ("neg", (("mul", (a_im, b_im)),))))
        im = ("add", (("mul", (a_re, b_im)), ("mul", (a_im, b_re))))
        return re, im
    raise CompileError(f"not a complex expression: {e!r}")


_REF_EXPR_WORDS = {"neg": "-", "mul": "*", "add": "+"}


def _ref_fmt_expr(e):
    op, args = e
    if op == "var":
        return args[0]
    if op == "add" and len(args) < 2:
        return _ref_fmt_expr(args[0]) if args else "0"
    if op not in _REF_EXPR_WORDS:
        raise CompileError(f"not a real expression: {e!r}")
    return f"({_REF_EXPR_WORDS[op]} " + " ".join(_ref_fmt_expr(a) for a in args) + ")"


# --- stage-two expressions --------------------------------------------------

_leaves = st.sampled_from(["x.1.1", "x.1.2", "y.2.1", "v!1.1", "v!2.3"]).map(
    lambda name: ("var", (name,))
)
# kernel rows: a matrix row times a vector, of a few lengths, so rows of
# one length in one expression share a text pattern
_dots = st.tuples(
    st.sampled_from(["x.1", "x.2", "y_2.10"]),
    st.sampled_from(["v!1", "v!12", "z"]),
    st.integers(1, 3),
).map(lambda args: ("dot", args))


def _extend(inner):
    return st.one_of(
        inner.map(lambda e: ("conj", (e,))),
        st.tuples(inner, inner).map(lambda ab: ("mul", ab)),
        st.lists(inner, max_size=5).map(lambda es: ("add", tuple(es))),
    )


# leaves, kernel rows, conj of a leaf or a compound, nested
# products, and sums of 0, 1 or many operands, drawn to any of these depths
_exprs = st.recursive(st.one_of(_leaves, _dots), _extend, max_leaves=12)


def _ref_texts(e):
    return tuple(_ref_fmt_expr(part) for part in _ref_split_expr(e))


@settings(max_examples=400, deadline=None)
@given(_exprs)
def test_split_and_print_match_the_reference(e):
    assert _split_expr(e, {}) == _ref_texts(e)


@settings(max_examples=200, deadline=None)
@given(_exprs, _exprs)
def test_equations_realify_as_the_reference(lhs, rhs):
    (l_re, l_im), (r_re, r_im) = _ref_texts(lhs), _ref_texts(rhs)
    real = complex_to_real(("forall", (("x.1.1",), ("eq", (lhs, rhs)))))
    assert real == ("forall", (("x.1.1.re", "x.1.1.im"), (
        "and", (("eq", (l_re, r_re)), ("eq", (l_im, r_im)))
    )))
    text = emit_solver_text(real)
    assert f"(= {l_re} {r_re})" in text
    assert f"(= {l_im} {r_im})" in text


# row and vector names: identifiers with digits and '_', matrix rows
# "x.i", and the fresh vectors "v!k" of stage two
_ROWS = ("x.1", "x.64", "a_1.2", "t12.3", "p_q9.10")
_VECTORS = ("v!1", "v!23", "x_0", "y7")


@pytest.mark.parametrize("n", [*range(1, 9), 64])
def test_dot_rows_match_the_product_split(n):
    # every row goes through one memo, so all but the first reuse the
    # text pattern made for length n
    memo = {}
    for row in _ROWS:
        for vec in _VECTORS:
            generic = ("add", tuple(
                ("mul", (("var", (f"{row}.{j}",)), ("var", (f"{vec}.{j}",))))
                for j in range(1, n + 1)
            ))
            assert _split_expr(("dot", (row, vec, n)), memo) == _split_expr(generic, {})


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
        ("const", (Fraction(1), Fraction(2))),
        ("const", (Fraction(1), Fraction(2), Fraction(3))),
        ("conj", (_A, _B)),
        ("add", (_A, ("mul", (_A, _B, _C)))),
        ("dot", ("a", "b")),
        ("dot", ("a", "b", 2, 2)),
        ("dot", ("a", "b", 0)),
        ("dot", ("a", "b", "2")),
        ("dot", ("a", "b", True)),
        ("dot", (_A, "b", 2)),
        ("dot", ("a", _B, 2)),
    ],
    ids=["mul-3", "mul-1", "mul-0", "unknown-op", "real-neg", "const-1", "const-2",
         "const-3", "conj-2", "nested-mul-3", "dot-2", "dot-4", "dot-length-0",
         "dot-length-str", "dot-length-bool", "dot-row-node", "dot-vector-node"],
)
def test_malformed_complex_expressions_are_refused(e):
    with pytest.raises(CompileError):
        _split_expr(e, {})
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
        # well-formed real trees, and values that are no expression at all
        _A,
        ("mul", (_A, _B)),
        ("const", (Fraction(1),)),
        ("dot", ("a", "b", 2)),
        Fraction(0),
        0,
        None,
        b"a",
        ["a"],
    ],
    ids=["mul-3", "mul-1", "unknown-op", "complex-conj", "neg-2", "const-2", "const-0",
         "nested-mul-1", "var", "mul-2", "const-1", "dot", "fraction", "int", "none",
         "bytes", "list"],
)
def test_malformed_real_expressions_are_refused(e):
    # an equation side must be SMT-LIB term text; the emitter prints it as is
    for eq in (("eq", (e, "a")), ("eq", ("a", e))):
        with pytest.raises(CompileError):
            emit_solver_text(("forall", (("a",), eq)))


@pytest.mark.parametrize("sides", [(), ("a",), ("a", "a", "a")], ids=["0", "1", "3"])
def test_equations_without_two_sides_are_refused(sides):
    with pytest.raises(CompileError):
        emit_solver_text(("eq", sides))
