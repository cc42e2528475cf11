"""Parse outcomes pinned over a corpus of terms, equations and sentences.

``tests/golden/parse-corpus.json`` holds the output of
``json.dumps(_outcomes(), indent=1, ensure_ascii=False)``: for each
parser, each input with its printed parse, or with the exact text and
position of the :class:`ParseError` it raises.  The corpus covers every
error message, backtracking over an opening parenthesis, non-ASCII
input, the nesting cap and one level past it for each kind of level,
and the sentences that the ``compile`` benchmark workload parses.
"""

import json
from pathlib import Path

from qlattice.formulas import named_equations
from qlattice.sentences import format_sentence, parse_sentence, universal_closure
from qlattice.terms import MAX_NESTING, ParseError, format_term, parse_equation, parse_term

GOLDEN = Path(__file__).parent / "golden" / "parse-corpus.json"
DATA = Path(__file__).parent / "data"

CAP = MAX_NESTING


def _parens(inner: str, levels: int) -> str:
    return "(" * levels + inner + ")" * levels


def _binders(count: int) -> str:
    return ", ".join(f"x{i}" for i in range(count))


_TERMS = [
    # the inputs of TestParsing.test_error_positions
    "p ^", "(p", "p q", "2", "p ^ ) q", "", "α", "p v β", "x²", "x٣", "_p",
    "p ^ q v r", "p v q ^ r", "~p ^ q", "~(p v q)", "p ^ (q ^ r)", "~~(p v 0) ^ 1",
    "vx", "v", "p ^ v", "forall", "p ^ q =", "p v q", "p v", "~", ")",
    "(p ^ q é", "p ^ ) #",
    # the nesting cap: parentheses count, runs of '~' do not
    _parens("p", CAP), _parens("p", CAP + 1), _parens("p", 1500),
    "~" * 150 + _parens("p", CAP), _parens("~" * 150 + "p", CAP),
    "(" * (CAP + 1) + "é",
]

_EQUATIONS = [
    "p ^ q = q ^ p", "p", "p =", "= p", "p = q = r", "p == q", "p <= q",
    "(p = q)", "p = q é", "p = q)", _parens("p", CAP) + " = " + _parens("q", CAP),
    _parens("p", CAP + 1) + " = q", "p = " + _parens("q", CAP + 1),
]

_SENTENCES = [
    # the inputs of test_parse_errors
    "x", "forall . x = x", "forall x x = x", "x = y)", "(x = y", "x = y &",
    "forall x. x == x", _parens("x = y", 1500), _parens("x", 1500) + " = y",
    "!" * 1500 + "x = y", f"forall {_binders(1500)}. x0 = x0",
    "forall x. " * 1500 + "x = x",
    # backtracking over '('
    "(x) v (y = z)", "(x = y) v z = w", "~(x = y)", "x <= y <= z",
    "(x ^ y) = z", "((x = y))", "((x) = (y)) -> (y = x)", "(x = y", "((x = y) & z",
    "(x) = y)", "(x", "((x)", "(x = y) = z",
    # binders
    "forall x, . x=x", "forall x", "forall x.", "forall x, y", "forall", "exists 1. x = x",
    "forall x. x = x & exists y. y <= x | x = y", "forall x, y, z. x = y",
    "forall v. v = v", "exists x. forall y. x <= y",
    # connectives
    "0 = 0 & 0 = 1 | 1 = 1", "0 = 0 -> 0 = 1 -> 1 = 1", "0 = 0 <-> 0 = 1 <-> 1 = 1",
    "!0 = 1 & 1 = 1", "!(x = y) -> x = y <-> y = x | x <= y & y <= x",
    "", "!", "(", ")", "x = y x", "x <= ", "x = = y", "x = y & & y = x", "x = y ->",
    "x = y <- y = x", "x = y, y = z", "x = y.",
    # non-ASCII
    "forall α. α = α", "x = y ∧ y = x", "x = y & y = x²", "∀x. x = x", "(x = y é",
    "x = y & y = x", "forall x. x = x é",
    # the nesting cap, and one level past it, for each kind of level
    _parens("x = y", CAP), _parens("x = y", CAP + 1),
    _parens("x", CAP) + " = y", _parens("x", CAP + 1) + " = y",
    "x = " + _parens("y", CAP), "x = " + _parens("y", CAP + 1),
    "!" * CAP + "x = y", "!" * (CAP + 1) + "x = y",
    "!" * (CAP - 1) + "(x = y)", "!" * CAP + "(x = y)",
    f"forall {_binders(CAP)}. x0 = x0", f"forall {_binders(CAP + 1)}. x0 = x0",
    "forall x. " * CAP + "x = x", "forall x. " * (CAP + 1) + "x = x",
    "!" * 50 + _parens("x = y", 50), "!" * 50 + _parens("x = y", 51),
    "!" * 60 + _parens("x", 40) + " = y", "!" * 60 + _parens("x", 41) + " = y",
    _parens(_parens("x", 40) + " = y", 60), _parens(_parens("x", 41) + " = y", 60),
    f"exists {_binders(CAP - 2)}. !(x0 = x0 & x1 = x1)",
    f"exists {_binders(CAP - 2)}. !!(x0 = x0 & x1 = x1)",
    "~" * 300 + "x = y", "!" * (CAP + 1) + "é",
]


def _compile_sentences() -> list[str]:
    """The sentences that the ``compile`` benchmark workload parses."""
    eqs = named_equations()
    names = ("oml", "distributive", "alpha-zero", "beta-zero", "separation-1")
    texts = [format_sentence(universal_closure(eqs[name])) for name in names]
    return texts + [(DATA / "worked_example.sent").read_text()]


def _outcome(parse, show, src: str) -> dict:
    try:
        return {"input": src, "printed": show(parse(src))}
    except ParseError as e:
        return {"input": src, "error": str(e), "pos": e.pos}


def _outcomes() -> dict[str, list[dict]]:
    return {
        "term": [_outcome(parse_term, format_term, s) for s in _TERMS],
        "equation": [_outcome(parse_equation, str, s) for s in _EQUATIONS],
        "sentence": [_outcome(parse_sentence, format_sentence, s)
                     for s in _SENTENCES + _compile_sentences()],
    }


def test_parse_outcomes_match_the_golden_corpus():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = _outcomes()
    assert actual.keys() == golden.keys()
    for parser, entries in golden.items():
        assert len(actual[parser]) == len(entries), parser
        for got, want in zip(actual[parser], entries):
            assert got == want, (parser, want["input"][:80])
