"""Flattening, kernel encoding, realification, emission, solver plumbing."""

import json
import random
import stat
import tracemalloc
from collections import defaultdict
from fractions import Fraction
from hashlib import blake2b
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussian import GaussianRational, gaussian_rows
from qlattice.checker import coordinate_family
from qlattice.compiler import (
    CompileError,
    _encode_definition,
    _Namer,
    compile_sentence,
    complex_to_real,
    emit_solver_text,
    encode_kernels,
    eval_flat,
    find_solver,
    flatten,
    run_external_solver,
    stats,
)
from qlattice.formulas import (
    named_equations,
    separation_equation,
)
from qlattice.linalg import _reduce_int_rows, _row_from_fracs
from qlattice.sentences import (
    conjoin,
    eval_sentence,
    format_sentence,
    parse_sentence,
    universal_closure,
)
from qlattice.smtlib import check_solver_text, parse_script
from qlattice.subspaces import Subspace, complement, join, leq, random_subspace
from qlattice.terms import Join, Meet, Not, Var

GOLDEN = Path(__file__).parent / "golden"
DATA = Path(__file__).parent / "data"

WORKED = "forall x, y, z. ~(x ^ y) v z = y ^ (~z v x)"


def _assert_flattens(source: str, text: str, fresh: tuple[str, ...]) -> None:
    """``flatten`` of `source` prints as `text`, is the very sentence that
    `text` parses to, one binder per quantifier node, and binds `fresh`."""
    flat = flatten(parse_sentence(source))
    assert format_sentence(flat.sentence) == text
    assert flat.sentence == parse_sentence(text)
    assert flat.fresh == fresh


def test_flatten_worked_example_shape():
    _assert_flattens(
        WORKED,
        "forall x, y, z, t1, t2, t3, t4, t5, t6. "
        "t1 = x ^ y & t2 = ~t1 & t3 = t2 v z & t4 = ~z & t5 = t4 v x "
        "& t6 = y ^ t5 -> t3 = t6",
        ("t1", "t2", "t3", "t4", "t5", "t6"),
    )


def test_flatten_printed_form():
    # the flat sentence is built, not printed and parsed: its nodes are
    # exactly these, with the definitions a left-nested conjunction
    x, y, z = Var("x"), Var("y"), Var("z")
    t = {i: Var(f"t{i}") for i in range(1, 7)}
    defs = [
        ("eq", (t[1], Meet(x, y))),
        ("eq", (t[2], Not(t[1]))),
        ("eq", (t[3], Join(t[2], z))),
        ("eq", (t[4], Not(z))),
        ("eq", (t[5], Join(t[4], x))),
        ("eq", (t[6], Meet(y, t[5]))),
    ]
    body = ("implies", (conjoin(defs), ("eq", (t[3], t[6]))))
    for name in ("x", "y", "z", "t1", "t2", "t3", "t4", "t5", "t6")[::-1]:
        body = ("forall", ((name,), body))
    assert flatten(parse_sentence(WORKED)).sentence == body


def test_flatten_atomic_sentence_unchanged():
    _assert_flattens("forall x. x = x", "forall x. x = x", ())


def test_flatten_shares_repeated_subterms():
    _assert_flattens(
        "forall x, y. (x ^ y) v (x ^ y) = x ^ y",
        "forall x, y, t1, t2. t1 = x ^ y & t2 = t1 v t1 -> t2 = t1",
        ("t1", "t2"),
    )


def test_flatten_desugars_leq():
    _assert_flattens("forall x, y. x <= y", "forall x, y, t1. t1 = x ^ y -> x = t1", ("t1",))


def test_flatten_names_nested_constants():
    # a bare constant side stays; a nested one is a definition t = 0
    _assert_flattens(
        "forall x. x v 0 = x",
        "forall x, t1, t2. t1 = 0 & t2 = x v t1 -> t2 = x",
        ("t1", "t2"),
    )
    _assert_flattens(
        "1 v 0 = 1", "forall t1, t2, t3. t1 = 1 & t2 = 0 & t3 = t1 v t2 -> t3 = 1",
        ("t1", "t2", "t3"),
    )


def test_flatten_requires_closed():
    with pytest.raises(CompileError, match="closed"):
        flatten(parse_sentence("x = x"))


def test_flatten_avoids_captured_fresh_names():
    # a source variable already called t1 must not collide
    _assert_flattens(
        "forall t1. t1 ^ t1 = t1", "forall t1, t2. t2 = t1 ^ t1 -> t2 = t1", ("t2",)
    )


def test_quantifiers_stay_in_place():
    _assert_flattens("!(exists x. x = 0)", "!(exists x. x = 0)", ())


def test_quantified_iff_is_expanded():
    # the biconditional stays whole, its operands keep their quantifiers
    s = parse_sentence("(forall x. x = 0) <-> (forall y. y = 0)")
    flat = flatten(s)
    assert flat == (s, ())
    dom = coordinate_family(2, 0)
    assert eval_flat(flat, dom, 2) == eval_sentence(s, dom, 2)


def test_inner_scopes_are_flattened_in_place():
    # inner scopes take fresh names first, as the fold reaches them
    _assert_flattens(
        "forall x. exists y. x ^ y = 0 & (forall z. z v x = z)",
        "forall x. exists y. (forall t2. t2 = x ^ y -> t2 = 0) "
        "& (forall z, t1. t1 = z v x -> t1 = z)",
        ("t1", "t2"),
    )
    _assert_flattens(
        "forall x. exists y. (x ^ y = 0 & forall z. z ^ x <= y v z)",
        "forall x. exists y. (forall t4. t4 = x ^ y -> t4 = 0) "
        "& (forall z, t1, t2, t3. t1 = z ^ x & t2 = y v z & t3 = t1 ^ t2 -> t1 = t3)",
        ("t1", "t2", "t3", "t4"),
    )


# quantifiers below the leading run, each scope flattened in place
_MIXED_SCOPES = [parse_sentence(text) for text in (
    "forall x. exists y. (x ^ y = 0 & forall z. z ^ x <= y v z)",
    "forall x. (exists y. ~y = x ^ y) -> x v ~x = 1",
    "exists x. !(forall y. (y ^ x) v ~y = x) | x ^ ~x = 0",
    "forall x. (x v 0 = x <-> exists y. ~(x ^ y) = ~x v ~y)",
    "forall x, y. x ^ y = y ^ x & !(exists z. ~z = z v (x ^ y))",
    # false at ambient 1 and true above it
    "exists y. (!(y = 0) & !(y = 1) & forall z. z ^ y = 0 | z ^ y = y)",
    # true at ambient 1 and false above it
    "forall x. (x = 0 | x = 1) <-> !(exists y. !(y = 0) & y <= x & !(y = x))",
)]

_CORPUS = [
    parse_sentence(WORKED),
    universal_closure(named_equations()["oml"]),
    universal_closure(named_equations()["modular"]),
    universal_closure(named_equations()["distributive"]),
    universal_closure(named_equations()["eq-char"]),
    universal_closure(separation_equation(0)),
    parse_sentence("exists p. !(p = 0) & p <= 1"),
    parse_sentence("forall p. p = 0 | (exists q. q <= p & !(q = 0))"),
] + _MIXED_SCOPES


@pytest.mark.parametrize("s", _MIXED_SCOPES, ids=range(len(_MIXED_SCOPES)))
def test_eval_flat_agrees_on_mixed_scopes_in_three_dimensions(s):
    # ambients 1 and 2 run with the rest of _CORPUS below
    dom = coordinate_family(3, 1)
    assert eval_flat(flatten(s), dom, 3) == eval_sentence(s, dom, 3)


@pytest.mark.parametrize("s", _CORPUS, ids=range(len(_CORPUS)))
def test_eval_flat_agrees_with_direct_eval(s):
    for ambient, extras in ((1, 0), (2, 2)):
        dom = coordinate_family(ambient, extras)
        assert eval_flat(flatten(s), dom, ambient) == eval_sentence(s, dom, ambient)


def test_eval_flat_agrees_on_beta_in_the_plane():
    s = universal_closure(named_equations()["beta-zero"])
    dom = coordinate_family(2, 0)
    assert eval_flat(flatten(s), dom, 2)
    assert eval_sentence(s, dom, 2)


# source -> the variables of each block in the run of binder blocks at the
# top of its kernel encoding, outermost first: binders keep their names,
# and one that shadows a name of the block below it starts a new block
_SHADOWING = {
    "forall x. forall x. x = 0": [["x"], ["x", "v!1"]],
    "forall x, y. forall x. x v y = y v x": [["x"], ["y", "x", "t1", "t2"]],
    "forall x. exists y. forall x. x ^ y <= y": [["x"], ["y"], ["x", "t1", "t2"]],
    "forall x. forall y. forall x. (x v y) ^ ~x = y ^ ~x":
        [["x"], ["y", "x", "t1", "t2", "t3", "t4"]],
    "(forall x. x = x) & (forall x. x = x v x)": [],
    "forall t1. t1 ^ t1 = t1 & forall t1. t1 v ~t1 = 1": [["t1"]],
    "forall x. (exists x. x = 0) & x = x": [["x"]],
}


@pytest.mark.parametrize("text", _SHADOWING)
def test_shadowing_binders_through_every_stage(text):
    s = parse_sentence(text)
    for ambient, extras in ((1, 0), (2, 2)):
        dom = coordinate_family(ambient, extras)
        assert eval_flat(flatten(s), dom, ambient) == eval_sentence(s, dom, ambient)
    for n in (1, 2, 3):
        check_solver_text(emit_solver_text(compile_sentence(s, n)))
    blocks, c = [], encode_kernels(flatten(s).sentence, 1)
    while c[0] in ("forall", "exists"):
        blocks.append([name.split(".")[0] for name in c[1][0]])
        c = c[1][1]
    assert blocks == _SHADOWING[text]


def test_a_name_repeated_in_one_quantifier_node_shadows():
    # one node may bind several names; it compiles as one node per name
    s = ("forall", (("x", "y", "x"), parse_sentence("x v y = y v x")))
    nested = parse_sentence("forall x, y, x. x v y = y v x")
    for n in (1, 2):
        text = emit_solver_text(compile_sentence(s, n))
        assert text == emit_solver_text(compile_sentence(nested, n))
        check_solver_text(text)


def test_stats_variable_count():
    # 2 n^2 (V + F) top-level reals
    for n in (1, 2):
        worked = stats(compile_sentence(parse_sentence(WORKED), n))
        assert worked.top_level_reals == 2 * n * n * (3 + 6)
    distrib = stats(compile_sentence(universal_closure(named_equations()["distributive"]), 1))
    assert distrib.top_level_reals == 2 * (3 + 5)


def test_encoding_is_deterministic():
    a = emit_solver_text(compile_sentence(parse_sentence(WORKED), 2))
    b = emit_solver_text(compile_sentence(parse_sentence(WORKED), 2))
    assert a == b


def test_realification_doubles_quantifiers():
    c = encode_kernels(flatten(parse_sentence("forall x. x = x")).sentence, 3)
    op, (names, _) = complex_to_real(c)
    assert op == "forall"
    # the atom's forall v shares the block of forall x
    assert len(names) == 2 * (9 + 3)
    assert names[0] == "x.1.1.re"
    assert names[1] == "x.1.1.im"


def _read_term(text: str):
    """One SMT-LIB term, read as the solver reads it: an atom or a list."""
    (command,) = parse_script(f"({text})")
    (term,) = command
    return term


def _is_linear(t) -> bool:
    """A real part of a complex variable, a numeral, a quotient of
    numerals, or the negation of a linear term."""
    if isinstance(t, str):
        return t.endswith((".re", ".im")) or t.isdigit()
    if t[0] == "/":
        return len(t) == 3 and t[1].isdigit() and t[2].isdigit()
    return t[0] == "-" and len(t) == 2 and _is_linear(t[1])


def _assert_degree_at_most_two(node) -> None:
    stack = [node]
    while stack:
        op, args = stack.pop()
        if op in ("forall", "exists"):
            stack.append(args[1])
        elif op in ("not", "and", "or", "implies", "iff"):
            stack.extend(args)
        else:
            assert op == "eq" and len(args) == 2, repr((op, args))
            terms = [_read_term(side) for side in args]
            while terms:
                t = terms.pop()
                if _is_linear(t):
                    continue
                assert isinstance(t, list), repr(t)
                if t[0] == "*":
                    # a product multiplies two linear terms, never another product
                    assert len(t) == 3 and _is_linear(t[1]) and _is_linear(t[2]), repr(t)
                else:
                    assert t[0] == "+" or (t[0] == "-" and len(t) == 2), repr(t)
                    terms += t[1:]


@pytest.mark.parametrize("n", [1, 2])
def test_realified_atoms_have_degree_at_most_two(n):
    for s in _CORPUS[:4]:
        _assert_degree_at_most_two(compile_sentence(s, n))


@pytest.mark.parametrize("n", [1, 2])
def test_stats_count_the_printed_equations(n):
    # the emitter and stats walk the same formula separately; an iff
    # prints as "(=" and a newline, so "(= " counts only equations
    for s in _CORPUS:
        r = compile_sentence(s, n)
        assert stats(r).equations == emit_solver_text(r).count("(= ")


def _dot_sum(row, vec, n):
    """The sum of products that ``("dot", (row, vec, n))`` stands for."""
    return ("add", tuple(
        ("mul", (("var", (f"{row}.{j}",)), ("var", (f"{vec}.{j}",)))) for j in range(1, n + 1)
    ))


def _complex_value(e, env):
    op, args = e
    if op == "dot":
        return _complex_value(_dot_sum(*args), env)
    if op == "var":
        return env[args[0]]
    if op == "conj":
        return _complex_value(args[0], env).conjugate()
    if op == "mul":
        return _complex_value(args[0], env) * _complex_value(args[1], env)
    assert op == "add", op
    return sum((_complex_value(a, env) for a in args), GaussianRational(0))


def _real_value(t, env):
    """A term read by ``_read_term`` at the values in `env`."""
    if isinstance(t, str):
        if t.isdigit():
            return Fraction(int(t))
        name, part = t.rsplit(".", 1)
        return getattr(env[name], part)
    head, *args = t
    values = [_real_value(a, env) for a in args]
    if head == "+":
        return sum(values, Fraction(0))
    if head == "-":
        (value,) = values
        return -value
    a, b = values
    if head == "*":
        return a * b
    assert head == "/", head
    return a / b


def _check_realification(c, r, rng):
    """Walk a complex formula and its realification in step; at random
    Gaussian-rational values, each complex equation side must equal the
    real and imaginary parts of its real pair, read back as SMT-LIB."""
    env = defaultdict(lambda: GaussianRational(
        Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
        Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
    ))
    equations = 0
    todo = [(c, r)]
    while todo:
        (op, args), (r_op, r_args) = todo.pop()
        if op == "eq":
            assert r_op == "and" and len(r_args) == 2
            (re_op, re_sides), (im_op, im_sides) = r_args
            assert re_op == im_op == "eq"
            for side, re, im in zip(args, re_sides, im_sides):
                value = _complex_value(side, env)
                assert value.re == _real_value(_read_term(re), env)
                assert value.im == _real_value(_read_term(im), env)
            equations += 1
        elif op in ("forall", "exists"):
            names, body = args
            assert r_op == op
            assert r_args[0] == tuple(f"{v}.{p}" for v in names for p in ("re", "im"))
            todo.append((body, r_args[1]))
        else:
            assert r_op == op and len(r_args) == len(args)
            todo += zip(args, r_args)
    return equations


@pytest.mark.parametrize("n", [1, 2])
def test_realification_preserves_complex_values(n):
    rng = random.Random(n)
    for s in _CORPUS:
        c = encode_kernels(flatten(s).sentence, n)
        assert _check_realification(c, complex_to_real(c), rng) > 0


def test_emitted_text_matches_golden_files():
    worked = emit_solver_text(compile_sentence(parse_sentence(WORKED), 2))
    assert worked == (GOLDEN / "worked-example-n2.smt2").read_text()
    distrib = emit_solver_text(
        compile_sentence(universal_closure(named_equations()["distributive"]), 1)
    )
    assert distrib == (GOLDEN / "distributive-n1.smt2").read_text()


def _compile_digests() -> dict[str, str]:
    """blake2b of the solver text of every catalogue closure and of the
    worked example at n = 1..4.  ``tests/golden/compile-digests.json``
    holds the output of ``json.dumps(_compile_digests(), indent=2)``."""
    sources = {name: universal_closure(eq) for name, eq in named_equations().items()}
    sources["worked-example"] = parse_sentence((DATA / "worked_example.sent").read_text())
    digests = {}
    for name, s in sources.items():
        for n in (1, 2, 3, 4):
            text = emit_solver_text(compile_sentence(s, n))
            digests[f"{name} n={n}"] = blake2b(text.encode(), digest_size=32).hexdigest()
    return digests


def test_emitted_text_matches_golden_digests():
    assert _compile_digests() == json.loads((GOLDEN / "compile-digests.json").read_text())


def _corpus_digests() -> dict[str, str]:
    """blake2b of the solver text of every ``_CORPUS`` sentence at
    n = 1..3 in both forms; these cover ``<=``, ``exists``, inner scopes
    and nested constants.  ``tests/golden/compile-digests-corpus.json``
    holds the output of ``json.dumps(_corpus_digests(), indent=2)``."""
    digests = {}
    for i, s in enumerate(_CORPUS):
        for n in (1, 2, 3):
            for form in ("validity", "refutation"):
                text = emit_solver_text(compile_sentence(s, n), form)
                digests[f"corpus-{i} n={n} {form}"] = blake2b(
                    text.encode(), digest_size=32
                ).hexdigest()
    return digests


def test_corpus_text_matches_golden_digests():
    expected = json.loads((GOLDEN / "compile-digests-corpus.json").read_text())
    assert _corpus_digests() == expected


# name in compile-digests-large.json -> (source, n, form)
_LARGE_COMPILES = {
    "worked-example n=8": ("worked-example", 8, "validity"),
    "worked-example n=16": ("worked-example", 16, "validity"),
    "worked-example n=64": ("worked-example", 64, "validity"),
    "separation-1 n=8 refutation": ("separation-1", 8, "refutation"),
}


def test_large_compiles_match_golden_digests():
    sources = {
        "worked-example": parse_sentence((DATA / "worked_example.sent").read_text()),
        "separation-1": universal_closure(named_equations()["separation-1"]),
    }
    digests = {}
    for name, (source, n, form) in _LARGE_COMPILES.items():
        text = emit_solver_text(compile_sentence(sources[source], n), form)
        digests[name] = blake2b(text.encode(), digest_size=32).hexdigest()
    assert digests == json.loads((GOLDEN / "compile-digests-large.json").read_text())


def test_compile_peak_memory_is_a_small_multiple_of_the_text():
    # the worked example at n = 32 prints 2.5 MB; compiling and emitting
    # it peaks at about 4.2 times that, where a real expression tree
    # printed afterwards took about 11 times
    s = parse_sentence((DATA / "worked_example.sent").read_text())
    tracemalloc.start()
    try:
        text = emit_solver_text(compile_sentence(s, 32))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * len(text)


@pytest.mark.parametrize("form", ["validity", "refutation"])
@pytest.mark.parametrize("n", [1, 2])
def test_emitted_text_parses_under_bundled_reader(form, n):
    for s in _CORPUS:
        check_solver_text(emit_solver_text(compile_sentence(s, n), form))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("left, right", [
    ("forall p. 0 = p", "forall p. p = 0"),
    ("forall p. 1 = p", "forall p. p = 1"),
    ("forall p, q. 0 = p <-> q = 1", "forall p, q. p = 0 <-> 1 = q"),
])
def test_constant_side_of_an_atom_compiles_either_way_round(left, right, n):
    def text(source):
        return emit_solver_text(compile_sentence(parse_sentence(source), n))
    assert text(left) == text(right)


def test_atoms_of_two_constants_compile():
    texts = {
        source: emit_solver_text(compile_sentence(parse_sentence(source), 1))
        for source in ("1 = 1", "0 = 0", "0 = 1", "1 = 0")
    }
    for text in texts.values():
        check_solver_text(text)
    # membership in 1 is the empty conjunction, printed as true
    assert texts["1 = 1"] == (
        "(set-logic NRA)\n(assert (not\n(forall ((v!1.1.re Real) (v!1.1.im Real))\n"
        "true)))\n(check-sat)\n"
    )


def test_refutation_form_requests_model():
    r = compile_sentence(universal_closure(named_equations()["distributive"]), 1)
    assert "(get-model)" in emit_solver_text(r, "refutation")
    assert "(get-model)" not in emit_solver_text(r, "validity")


def test_emit_rejects_unknown_form():
    r = compile_sentence(universal_closure(named_equations()["distributive"]), 1)
    with pytest.raises(CompileError):
        emit_solver_text(r, "model")


def test_encode_rejects_bad_dimension():
    with pytest.raises(CompileError):
        encode_kernels(flatten(parse_sentence("forall x. x = x")).sentence, 0)


def _affine(e, env, bound):
    """An expression at the values in `env` of its free names, as
    ({bound name: coefficient}, constant); it must be affine in the
    bound names."""
    op, args = e
    if op == "dot":
        return _affine(_dot_sum(*args), env, bound)
    if op == "var":
        if args[0] in bound:
            return {args[0]: GaussianRational(1)}, GaussianRational(0)
        return {}, env[args[0]]
    if op == "conj":
        coeffs, c = _affine(args[0], env, bound)
        assert not coeffs, "conjugate of a bound variable"
        return {}, c.conjugate()
    if op == "mul":
        (ca, a), (cb, b) = (_affine(x, env, bound) for x in args)
        assert not (ca and cb), "product of two bound variables"
        return {k: c * b for k, c in ca.items()} | {k: c * a for k, c in cb.items()}, a * b
    assert op == "add", op
    coeffs = defaultdict(lambda: GaussianRational(0))
    total = GaussianRational(0)
    for x in args:
        cx, c = _affine(x, env, bound)
        for k, v in cx.items():
            coeffs[k] = coeffs[k] + v
        total = total + c
    return dict(coeffs), total


def _exists_holds(block, env) -> bool:
    """Decide ``exists bound. (conjunction of equations)`` at the values
    in `env`: the equations are linear in the bound names, so a solution
    exists iff the right-hand side column is not a pivot column of the
    augmented system."""
    op, (bound, body) = block
    assert op == "exists"
    rows = []
    todo = [body]
    while todo:
        f_op, f_args = todo.pop()
        if f_op == "and":
            todo += f_args
            continue
        assert f_op == "eq", f_op
        (cl, l), (cr, r) = (_affine(side, env, bound) for side in f_args)
        row = [cl.get(k, GaussianRational(0)) - cr.get(k, GaussianRational(0)) for k in bound]
        row.append(r - l)
        rows.append(_row_from_fracs(part for z in row for part in (z.re, z.im)))
    _, pivots = _reduce_int_rows(rows, len(bound) + 1)
    return len(bound) not in pivots


def _gaussian_vector(int_row):
    return [GaussianRational(re, im) for re, im in zip(int_row[::2], int_row[1::2])]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10_000))
def test_join_is_span_of_member_vectors(n, seed):
    # the join block that the compiler emits, with each matrix set to the
    # conjugated complement basis of a random subspace (so its kernel is
    # that subspace), must hold at a probe v exactly when v lies in y v z
    rng = random.Random(seed)
    y = random_subspace(n, rng.randint(0, n), seed)
    z = random_subspace(n, rng.randint(0, n), seed + 1)
    env = {}
    for name, sub in (("y", y), ("z", z)):
        rows = [[e.conjugate() for e in row] for row in gaussian_rows(complement(sub).basis)]
        rows += [[GaussianRational(0)] * n] * (n - len(rows))
        for i, row in enumerate(rows, 1):
            for j, e in enumerate(row, 1):
                env[f"{name}.{i}.{j}"] = e
    op, (v, (iff, (_, exists))) = _encode_definition("t", Join(Var("y"), Var("z")), n, _Namer())
    assert (op, iff) == ("forall", "iff")
    assert len(exists[1][0]) == 2 * n  # 4n reals once realified
    j = join(y, z)
    # probes in y, in z, in both spans together, and anywhere
    for sources in ((y,), (z,), (y, z), (Subspace.full(n),)):
        probe = [GaussianRational(0)] * n
        for sub in sources:
            for row in sub._rows:  # Gaussian-integer spanning rows
                c = GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
                probe = [p + c * e for p, e in zip(probe, _gaussian_vector(row))]
        point = dict(env)
        point.update(zip(v, probe))
        expected = leq(Subspace.line(n, probe), j)
        assert _exists_holds(exists, point) == expected


def _fake_solver(tmp_path, body: str) -> tuple[str, ...]:
    script = tmp_path / "fake-solver"
    script.write_text(f"#!/bin/sh\n{body}\n")
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    return (str(script),)


def test_solver_result_mapping(tmp_path):
    text = "(set-logic NRA)(assert true)(check-sat)"
    assert run_external_solver(text, _fake_solver(tmp_path, "echo unsat")).status == "valid"
    assert run_external_solver(text, _fake_solver(tmp_path, "echo sat")).status == "invalid"
    assert run_external_solver(text, _fake_solver(tmp_path, "echo unknown")).status == "unknown"
    assert run_external_solver(text, _fake_solver(tmp_path, "echo wat")).status == "error"


def test_solver_timeout_is_reported(tmp_path):
    cmd = _fake_solver(tmp_path, "sleep 5")
    result = run_external_solver("(check-sat)", cmd, timeout_seconds=0.2)
    assert result.status == "timeout"


@pytest.mark.skipif(find_solver() is not None, reason="a solver is installed")
def test_missing_solver_raises():
    with pytest.raises(CompileError, match="no SMT solver"):
        run_external_solver("(check-sat)")
