"""Sentence grammar, printing, closure, and finite-domain evaluation."""

import pytest

from qlattice.checker import coordinate_family
from qlattice.compiler import eval_flat, flatten
from qlattice.formulas import distributive_law, orthomodular_law
from qlattice.sentences import (
    MAX_CONNECTIVES,
    And,
    Eq,
    Exists,
    Forall,
    Iff,
    Implies,
    Leq,
    Neg,
    Or,
    conjoin,
    eval_sentence,
    format_sentence,
    free_sentence_vars,
    is_closed,
    parse_sentence,
    rename_bound,
    universal_closure,
)
from qlattice.terms import MAX_NESTING, ParseError, parse_term


def test_parse_worked_example_shape():
    s = parse_sentence("forall x, y, z. ~(x ^ y) v z = y ^ (~z v x)")
    assert isinstance(s, Forall) and s.var == "x"
    assert isinstance(s.body, Forall) and s.body.var == "y"
    inner = s.body.body
    assert isinstance(inner, Forall) and inner.var == "z"
    assert isinstance(inner.body, Eq)
    assert inner.body.lhs == parse_term("~(x ^ y) v z")


def test_connective_precedence():
    s = parse_sentence("0 = 0 & 0 = 1 | 1 = 1")
    assert isinstance(s, Or)
    assert isinstance(s.lhs, And)
    t = parse_sentence("0 = 0 -> 0 = 1 -> 1 = 1")
    assert isinstance(t, Implies)
    assert isinstance(t.rhs, Implies)  # right associative
    u = parse_sentence("0 = 0 <-> 0 = 1 <-> 1 = 1")
    assert isinstance(u, Iff)
    assert isinstance(u.lhs, Iff)  # left associative
    w = parse_sentence("!0 = 1 & 1 = 1")
    assert isinstance(w, And)
    assert isinstance(w.lhs, Neg)


def test_quantifier_scopes_maximally():
    s = parse_sentence("forall x. x = x & x <= x v x")
    assert isinstance(s, Forall)
    assert isinstance(s.body, And)
    limited = parse_sentence("(forall x. x = x) & 0 = 0")
    assert isinstance(limited, And)
    assert isinstance(limited.lhs, Forall)


def test_paren_backtracking():
    atom = parse_sentence("(x ^ y) = z")
    assert isinstance(atom, Eq)
    grouped = parse_sentence("((x = y))")
    assert isinstance(grouped, Eq)
    mixed = parse_sentence("((x) = (y)) -> (y = x)")
    assert isinstance(mixed, Implies)


@pytest.mark.parametrize(
    "text",
    [
        "forall x, y. x ^ y = y ^ x",
        "exists p. p = 1",
        "forall p. (exists q. p = q) -> p <= p v p",
        "!(0 = 1) & (x v y = y v x <-> 1 = 1)",
        "forall x. (forall y. x = y) -> 0 = 1 | x <= 1",
        "forall a, b, c. !(a = b) -> (exists d. d = a ^ c)",
    ],
)
def test_print_parse_round_trip(text):
    s = parse_sentence(text)
    assert parse_sentence(format_sentence(s)) == s


@pytest.mark.parametrize(
    "text",
    [
        "x",                     # a bare term is not a sentence
        "forall . x = x",        # missing variable
        "forall x x = x",        # missing dot
        "x = y)",                # trailing garbage
        "(x = y",                # unclosed group
        "x = y &",               # dangling connective
        "forall x. x == x",      # '==' is not in the grammar
        pytest.param("(" * 1500 + "x = y" + ")" * 1500, id="deep-groups"),
        pytest.param("(" * 1500 + "x" + ")" * 1500 + " = y", id="deep-term"),
        pytest.param("!" * 1500 + "x = y", id="deep-negation"),
        pytest.param(
            "forall " + ", ".join(f"x{i}" for i in range(1500)) + ". x0 = x0",
            id="many-binders",
        ),
        pytest.param("forall x. " * 1500 + "x = x", id="deep-quantifiers"),
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_sentence(text)


def test_nesting_up_to_the_cap():
    half = MAX_NESTING // 2
    s = parse_sentence("!" * half + "(" * half + "x = y" + ")" * half)
    for _ in range(half):
        assert isinstance(s, Neg)
        s = s.body
    assert s == Eq(parse_term("x"), parse_term("y"))
    with pytest.raises(ParseError, match="nesting deeper"):
        parse_sentence("!" * half + "(" * (half + 1) + "x = y" + ")" * (half + 1))
    grouped = "(" * MAX_NESTING + "x = y" + ")" * MAX_NESTING
    assert parse_sentence(grouped) == Eq(parse_term("x"), parse_term("y"))


def _chain(op: str, atoms: int) -> str:
    return f" {op} ".join(["x = x"] * atoms)


@pytest.mark.parametrize("op", ["&", "|", "->", "<->"])
def test_connectives_up_to_the_cap(op):
    with pytest.raises(ParseError, match=f"more than {MAX_CONNECTIVES} binary"):
        parse_sentence("forall x. " + _chain(op, MAX_CONNECTIVES + 2))
    # the deepest sentence allowed: the cap under MAX_NESTING binders
    names = "".join(f"x{i}, " for i in range(MAX_NESTING - 2)) + "x"
    text = f"exists {names}. (" + _chain(op, MAX_CONNECTIVES + 1) + ")"
    s = parse_sentence(text)
    dom = coordinate_family(1, 0)
    assert eval_sentence(s, dom, 1)
    assert eval_flat(flatten(s), dom, 1)
    assert free_sentence_vars(rename_bound(s)) == frozenset()
    printed = format_sentence(s)
    assert format_sentence(parse_sentence(printed)) == printed


def test_free_vars_and_closure():
    s = parse_sentence("forall x. x = x v y")
    assert free_sentence_vars(s) == {"y"}
    assert not is_closed(s)
    assert is_closed(parse_sentence("forall x, y. x = x v y"))


def test_universal_closure_is_closed():
    s = universal_closure(distributive_law())
    assert is_closed(s)
    assert format_sentence(s).startswith("forall p, q, r. ")


def test_conjoin():
    a, b, c = (parse_sentence(t) for t in ("0 = 0", "1 = 1", "0 = 0"))
    assert conjoin([a]) == a
    assert conjoin([a, b, c]) == And(And(a, b), c)
    with pytest.raises(ValueError):
        conjoin([])


def test_eval_distributive_by_dimension():
    dl = universal_closure(distributive_law())
    assert eval_sentence(dl, coordinate_family(1, 0), 1)
    assert not eval_sentence(dl, coordinate_family(2, 2), 2)


def test_eval_oml_holds():
    s = universal_closure(orthomodular_law())
    assert eval_sentence(s, coordinate_family(2, 2), 2)
    assert eval_sentence(s, coordinate_family(3, 1), 3)


def test_eval_quantifiers_and_connectives():
    dom = coordinate_family(2, 0)
    assert eval_sentence(parse_sentence("exists p. p = 1"), dom, 2)
    assert not eval_sentence(parse_sentence("forall p. p = 0"), dom, 2)
    assert eval_sentence(parse_sentence("forall p, q. p <= p v q"), dom, 2)
    assert eval_sentence(parse_sentence("!(exists p. !(p ^ p = p))"), dom, 2)
    assert eval_sentence(
        parse_sentence("forall p. p = 0 <-> !(exists q. q <= p & !(q = 0))"),
        dom,
        2,
    )


def test_eval_respects_environment_shadowing():
    s = parse_sentence("forall x. (exists x. x = 0) & x = x")
    assert eval_sentence(s, coordinate_family(2, 0), 2)


def test_eval_rejects_wrong_ambient():
    with pytest.raises(ValueError):
        eval_sentence(parse_sentence("0 = 0"), coordinate_family(2, 0), 3)


def test_rename_bound_unique_names():
    s = parse_sentence("(forall x. x = x) & (forall x. x = x v x)")
    r = rename_bound(s)
    assert format_sentence(r) == "(forall x. x = x) & (forall x2. x2 = x2 v x2)"
    # unchanged when names are already unique
    t = parse_sentence("forall a. exists b. a = b")
    assert rename_bound(t) == t


def test_rename_bound_preserves_truth():
    dom = coordinate_family(2, 1)
    s = parse_sentence("forall x. (exists x. x = 0) & x = x")
    assert eval_sentence(rename_bound(s), dom, 2) == eval_sentence(s, dom, 2)
