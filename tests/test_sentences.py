"""Sentence grammar, printing, closure, and finite-domain evaluation."""

import sys

import pytest

import qlattice.terms as terms
from qlattice.checker import coordinate_family
from qlattice.compiler import eval_flat, flatten
from qlattice.formulas import named_equations
from qlattice.subspaces import Subspace
from qlattice.sentences import (
    conjoin,
    eval_sentence,
    format_sentence,
    free_sentence_vars,
    parse_sentence,
    rename_bound,
    universal_closure,
)
from qlattice.terms import (
    MAX_NESTING,
    ParseError,
    Program,
    UnboundVariableError,
    parse_term,
)


def test_parse_worked_example_shape():
    s = parse_sentence("forall x, y, z. ~(x ^ y) v z = y ^ (~z v x)")
    assert s[0] == "forall" and s[1][0] == ("x",)
    assert s[1][1][0] == "forall" and s[1][1][1][0] == ("y",)
    inner = s[1][1][1][1]
    assert inner[0] == "forall" and inner[1][0] == ("z",)
    assert inner[1][1][0] == "eq"
    assert inner[1][1][1][0] == parse_term("~(x ^ y) v z")


def test_connective_precedence():
    s = parse_sentence("0 = 0 & 0 = 1 | 1 = 1")
    assert s[0] == "or"
    assert s[1][0][0] == "and"
    t = parse_sentence("0 = 0 -> 0 = 1 -> 1 = 1")
    assert t[0] == "implies"
    assert t[1][1][0] == "implies"  # right associative
    u = parse_sentence("0 = 0 <-> 0 = 1 <-> 1 = 1")
    assert u[0] == "iff"
    assert u[1][0][0] == "iff"  # left associative
    w = parse_sentence("!0 = 1 & 1 = 1")
    assert w[0] == "and"
    assert w[1][0][0] == "not"


def test_quantifier_scopes_maximally():
    s = parse_sentence("forall x. x = x & x <= x v x")
    assert s[0] == "forall"
    assert s[1][1][0] == "and"
    limited = parse_sentence("(forall x. x = x) & 0 = 0")
    assert limited[0] == "and"
    assert limited[1][0][0] == "forall"


def test_paren_backtracking():
    atom = parse_sentence("(x ^ y) = z")
    assert atom[0] == "eq"
    grouped = parse_sentence("((x = y))")
    assert grouped[0] == "eq"
    mixed = parse_sentence("((x) = (y)) -> (y = x)")
    assert mixed[0] == "implies"


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
        assert s[0] == "not"
        s = s[1][0]
    assert s == ("eq", (parse_term("x"), parse_term("y")))
    with pytest.raises(ParseError, match="nesting deeper"):
        parse_sentence("!" * half + "(" * (half + 1) + "x = y" + ")" * (half + 1))
    grouped = "(" * MAX_NESTING + "x = y" + ")" * MAX_NESTING
    assert parse_sentence(grouped) == ("eq", (parse_term("x"), parse_term("y")))


def _chain(op: str, atoms: int) -> str:
    return f" {op} ".join(["x = x"] * atoms)


@pytest.mark.parametrize("op", ["&", "|", "->", "<->"])
def test_long_connective_chains(op):
    # the walkers use explicit stacks, so no chain is too long for them
    # under the default recursion limit
    assert sys.getrecursionlimit() <= 1000
    s = parse_sentence("forall x. " + _chain(op, 5000))
    printed = format_sentence(s)
    assert format_sentence(parse_sentence(printed)) == printed
    assert free_sentence_vars(s) == frozenset()
    assert format_sentence(rename_bound(s)) == printed
    dom = coordinate_family(1, 0)
    assert eval_sentence(s, dom, 1)
    assert eval_flat(flatten(s), dom, 1)


def test_many_binders_in_a_chain():
    s = parse_sentence(" & ".join(["(forall x. x = x)"] * 5000))
    renamed = format_sentence(rename_bound(s))
    assert renamed.endswith("(forall x4999. x4999 = x4999) & (forall x5000. x5000 = x5000)")
    flat = flatten(s)
    # the binders stay in place, one per conjunct, and no atom needs a name
    assert format_sentence(flat.sentence) == renamed
    assert flat.fresh == ()
    one = [Subspace.zero(1)]  # a one-point domain keeps brute force linear
    assert eval_sentence(s, one, 1)
    assert eval_flat(flat, one, 1)


@pytest.mark.parametrize("op", ["&", "|", "->", "<->"])
def test_connectives_up_to_the_cap(op):
    # the deepest sentence allowed: a long chain under MAX_NESTING binders
    names = "".join(f"x{i}, " for i in range(MAX_NESTING - 2)) + "x"
    text = f"exists {names}. (" + _chain(op, 2000) + ")"
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
    assert free_sentence_vars(parse_sentence("forall x, y. x = x v y")) == frozenset()


def test_universal_closure_is_closed():
    s = universal_closure(named_equations()["distributive"])
    assert free_sentence_vars(s) == frozenset()
    assert format_sentence(s).startswith("forall p, q, r. ")


def test_conjoin():
    a, b, c = (parse_sentence(t) for t in ("0 = 0", "1 = 1", "0 = 0"))
    assert conjoin([a]) == a
    assert conjoin([a, b, c]) == ("and", (("and", (a, b)), c))
    with pytest.raises(ValueError):
        conjoin([])


def test_eval_distributive_by_dimension():
    dl = universal_closure(named_equations()["distributive"])
    assert eval_sentence(dl, coordinate_family(1, 0), 1)
    assert not eval_sentence(dl, coordinate_family(2, 2), 2)


def test_eval_oml_holds():
    s = universal_closure(named_equations()["oml"])
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


def test_eval_builds_each_atom_program_once(monkeypatch):
    # 300 atoms under 25 environments; each atom's two sides are appended
    # to its program once for the whole call, not once per environment
    roots = []
    append = Program._append

    def counting_append(self, root):
        roots.append(root)
        return append(self, root)

    monkeypatch.setattr(Program, "_append", counting_append)
    s = parse_sentence("forall x, y. " + " & ".join(["x ^ y = y ^ x"] * 300))
    assert eval_sentence(s, coordinate_family(2, 1), 2)
    assert 0 < len(roots) <= 2 * 300


def test_eval_short_circuits_before_free_variables():
    dom = coordinate_family(2, 0)
    assert not eval_sentence(parse_sentence("0 = 1 & x = x"), dom, 2)
    assert eval_sentence(parse_sentence("0 = 0 | x = x"), dom, 2)
    with pytest.raises(UnboundVariableError, match="'x'"):
        eval_sentence(parse_sentence("0 = 0 & x = x"), dom, 2)
    with pytest.raises(UnboundVariableError, match="'y'"):
        eval_sentence(parse_sentence("forall x. x = y"), dom, 2)


def test_eval_rejects_wrong_ambient():
    with pytest.raises(ValueError):
        eval_sentence(parse_sentence("0 = 0"), coordinate_family(2, 0), 3)


def test_rename_bound_unique_names():
    s = parse_sentence("(forall x. x = x) & (forall x. x = x v x)")
    r = rename_bound(s)
    assert format_sentence(r) == "(forall x. x = x) & (forall x2. x2 = x2 v x2)"
    # a free x2 is skipped, and later clashes go on from the last name taken
    s = parse_sentence("(forall x. x = x) & (forall x. x = x) & (exists x. x = x2)")
    assert format_sentence(rename_bound(s)) == (
        "(forall x. x = x) & (forall x3. x3 = x3) & (exists x4. x4 = x2)"
    )
    # unchanged when names are already unique
    t = parse_sentence("forall a. exists b. a = b")
    assert rename_bound(t) == t


def test_rename_bound_keeps_atoms_when_no_binder_is_renamed(monkeypatch):
    # with distinct binder names, no atom is rebuilt: no Program is built
    # beyond the ones that find the free variables
    s = universal_closure(named_equations()["separation-1"])
    built = []

    class Counted(terms.Program):
        __slots__ = ()

        def __init__(self, roots=()):
            built.append(1)
            super().__init__(roots)

    monkeypatch.setattr(terms, "Program", Counted)
    free_sentence_vars(s)
    for_free_vars = len(built)
    r = rename_bound(s)
    assert len(built) == 2 * for_free_vars
    assert r == s
    while s[0] == "forall":
        s, r = s[1][1], r[1][1]
    assert r is s


def test_rename_bound_preserves_truth():
    dom = coordinate_family(2, 1)
    s = parse_sentence("forall x. (exists x. x = 0) & x = x")
    assert eval_sentence(rename_bound(s), dom, 2) == eval_sentence(s, dom, 2)
