"""Properties of the sentence layer on generated sentence text.

The generator writes text, not syntax trees, so these tests depend only on
the public functions and not on how a parsed sentence is represented.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from qlattice.checker import coordinate_family
from qlattice.compiler import eval_flat, flatten
from qlattice.sentences import (
    eval_sentence,
    format_sentence,
    free_sentence_vars,
    parse_sentence,
)

_VARS = ("x", "y", "z")

_terms = st.recursive(
    st.sampled_from(_VARS + ("0", "1")),
    lambda sub: st.one_of(
        sub.map(lambda a: f"~({a})"),
        st.tuples(sub, st.sampled_from(["^", "v"]), sub).map(
            lambda t: f"({t[0]}) {t[1]} ({t[2]})"
        ),
    ),
    max_leaves=3,
)

# A generated sentence is a small tree: ("atom", text), ("!", f),
# (connective, f, g) or (quantifier, names, f).
_atoms = st.tuples(_terms, st.sampled_from(["=", "<="]), _terms).map(
    lambda t: ("atom", " ".join(t))
)
_trees = st.recursive(
    _atoms,
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(["&", "|", "->", "<->"]), sub, sub),
        st.tuples(
            st.sampled_from(["forall", "exists"]),
            st.lists(st.sampled_from(_VARS), min_size=1, max_size=2),
            sub,
        ),
        sub.map(lambda f: ("!", f)),
    ),
    max_leaves=8,
)


def _render(tree) -> str:
    kind = tree[0]
    if kind == "atom":
        return tree[1]
    if kind == "!":
        return "!" + _operand(tree[1])
    if kind in ("forall", "exists"):
        return f"{kind} {', '.join(tree[1])}. {_render(tree[2])}"
    return f"{_operand(tree[1])} {kind} {_operand(tree[2])}"


def _operand(tree) -> str:
    return _render(tree) if tree[0] == "atom" else f"({_render(tree)})"


def _free(tree) -> set[str]:
    kind = tree[0]
    if kind == "atom":
        return set(re.findall(r"[xyz]", tree[1]))
    if kind == "!":
        return _free(tree[1])
    if kind in ("forall", "exists"):
        return _free(tree[2]) - set(tree[1])
    return _free(tree[1]) | _free(tree[2])


def _truth(tree, dom, ambient, env) -> bool:
    """Reference semantics; atoms alone go through eval_sentence."""
    kind = tree[0]
    if kind == "atom":
        return eval_sentence(parse_sentence(tree[1]), (), ambient, env)
    if kind == "!":
        return not _truth(tree[1], dom, ambient, env)
    if kind in ("forall", "exists"):
        name, *rest = tree[1]
        body = (kind, rest, tree[2]) if rest else tree[2]
        results = [_truth(body, dom, ambient, {**env, name: d}) for d in dom]
        return all(results) if kind == "forall" else any(results)
    a = _truth(tree[1], dom, ambient, env)
    b = _truth(tree[2], dom, ambient, env)
    return {"&": a and b, "|": a or b, "->": not a or b, "<->": a == b}[kind]


def _binders(tree) -> int:
    kind = tree[0]
    if kind == "atom":
        return 0
    if kind == "!":
        return _binders(tree[1])
    if kind in ("forall", "exists"):
        return len(tree[1]) + _binders(tree[2])
    return _binders(tree[1]) + _binders(tree[2])


@given(_trees)
@settings(max_examples=300, deadline=None)
def test_printing_is_stable_and_free_vars_match(tree):
    s = parse_sentence(_render(tree))
    printed = format_sentence(s)
    assert format_sentence(parse_sentence(printed)) == printed
    assert free_sentence_vars(s) == _free(tree)


@given(_trees)
@settings(max_examples=100, deadline=None)
def test_flat_evaluation_agrees_on_closed_sentences(tree):
    free = sorted(_free(tree))
    text = _render(tree)
    if free:
        text = f"forall {', '.join(free)}. {text}"
    c = parse_sentence(text)
    reprinted = parse_sentence(format_sentence(c))
    flat = flatten(c)
    binders = _binders(tree) + len(free)
    for ambient, extra, most in ((1, 0, 8), (2, 1, 4)):
        if binders <= most:  # brute force over |domain| ** binders tuples
            dom = coordinate_family(ambient, extra)
            truth = eval_sentence(c, dom, ambient)
            assert eval_flat(flat, dom, ambient) == truth
            assert eval_sentence(reprinted, dom, ambient) == truth
            env = {name: dom[0] for name in free}
            assert _truth(tree, dom, ambient, env) == eval_sentence(
                parse_sentence(_render(tree)), dom, ambient, env
            )
