"""Generators for the structural formulas and their known witnesses.

The central object is the distributivity-defect term ``alpha``: for
``a = p v (q ^ r)`` and ``b = (p v q) ^ (p v r)`` it is
``(a v b) ^ (~a v ~b)``, which vanishes exactly when ``a = b``.  Iterating
alpha inside its own value (``alpha_iter``) halves the dimension available
at each level, which separates the subspace lattices of different ambient
dimensions: ``alpha_iter(i + 1) = 0`` holds in ambients up to ``2**i`` and
fails in ambient ``2**(i + 1)``.  The witness constructions here are exact
and are re-evaluated by the test suite rather than trusted.
"""

from __future__ import annotations

from functools import cache
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .subspaces import Subspace, complement, embed, meet
from .terms import (
    BOT,
    Assignment,
    Equation,
    Meet,
    Not,
    Term,
    Var,
    parse_equation,
    parse_term,
    rename,
    restrict,
    substitute,
)


@cache
def alpha() -> Term:
    """The distributivity defect over variables p, q, r."""
    a = "p v (q ^ r)"
    b = "(p v q) ^ (p v r)"
    return parse_term(f"(({a}) v ({b})) ^ (~({a}) v ~({b}))")


def alpha_at(x: Term, y: Term, z: Term) -> Term:
    """``alpha`` with terms substituted for its three variables."""
    return substitute(alpha(), {"p": x, "q": y, "r": z})


@cache
def beta() -> Term:
    """Second-round defect over p, q, r, s.

    Feeds the value of ``alpha(p, q, r)`` back into alpha together with the
    part of ``~p`` orthogonal to it.  Identically zero in ambient 2, but
    nonzero in ambient 4; see :func:`beta_witness`.
    """
    a = alpha()
    return alpha_at(a, Meet(Not(a), Not(Var("p"))), Var("s"))


@cache
def alpha_iter(m: int) -> Term:
    """`m`-fold iterate of alpha, over variables p1, q1, r1, ..., pm, qm, rm.

    Level 1 is alpha itself (with subscripted variables); level m applies
    alpha to fresh variables and relativises every literal below the value
    of the previous level.  Shared structure keeps evaluation linear in the
    number of distinct subterms.
    """
    if m < 1:
        raise ValueError("iteration depth starts at 1")
    level = rename(alpha(), {"p": f"p{m}", "q": f"q{m}", "r": f"r{m}"})
    if m == 1:
        return level
    return restrict(level, alpha_iter(m - 1))


def separation_equation(i: int) -> Equation:
    """``alpha_iter(i + 1) = 0``: holds in ambient up to ``2**i``, not beyond."""
    if i < 0:
        raise ValueError("separation index starts at 0")
    return Equation(alpha_iter(i + 1), BOT)


@cache
def separation_witness(i: int) -> Assignment:
    """Assignment over ambient ``2**(i + 1)`` falsifying :func:`separation_equation`.

    Level by level, the current subspace (initially everything) is split
    into two coordinate halves p and q plus the graph line family
    r = span{b_j + b_(j+h)}; alpha then evaluates to the relative complement
    of p, halving the dimension, so after ``i + 1`` levels a single
    dimension survives.  Built once per `i`: every caller gets the same
    assignment, so none may change its bindings.
    """
    n = 2 ** (i + 1)
    current = Subspace.full(n)
    bindings: dict[str, Subspace] = {}
    for m in range(1, i + 2):
        rows = current.basis
        h = current.dim // 2
        p = Subspace.from_spanning(n, rows[:h])
        q = Subspace.from_spanning(n, rows[h:])
        graph = [
            [(a + c, b + d) for (a, b), (c, d) in zip(rows[j], rows[j + h])]
            for j in range(h)
        ]
        r = Subspace.from_spanning(n, graph)
        bindings[f"p{m}"] = p
        bindings[f"q{m}"] = q
        bindings[f"r{m}"] = r
        current = meet(complement(p), current)
    return Assignment(n, bindings)


def beta_witness() -> Assignment:
    """The ambient-4 assignment at which ``beta`` evaluates to span{e4}."""
    return Assignment(
        4,
        {
            "p": Subspace.from_spanning(4, [[1, 0, 0, 0], [0, 1, 0, 0]]),
            "q": Subspace.from_spanning(4, [[0, 0, 1, 0], [0, 0, 0, 1]]),
            "r": Subspace.from_spanning(4, [[1, 0, 0, 0], [0, 1, 1, 0]]),
            "s": Subspace.from_spanning(4, [[1, 0, 0, 0], [0, 0, 1, 1]]),
        },
    )


_GAMMA_NAMES = ("p", "q", "r", "s", "t", "u", "w", "x", "y", "z")


def _gamma_name(index: int) -> str:
    if index < len(_GAMMA_NAMES):
        return _GAMMA_NAMES[index]
    return f"x{index + 1}"


@cache
def gamma_distinct_lines(k: int) -> Term:
    """Formula over k variables that can be nonzero in ambient 2 only when
    all k arguments are distinct lines.

    For k = 3 this is alpha; each later variable v is folded in by nesting:
    the running term g becomes ``alpha(g, e, v)`` for every earlier
    variable e in order.
    """
    if k < 3:
        raise ValueError("needs at least three variables")
    names = [_gamma_name(j) for j in range(k)]
    g = alpha()
    for j in range(3, k):
        new = Var(names[j])
        for earlier in names[:j]:
            g = alpha_at(g, Var(earlier), new)
    return g


@cache
def named_equations() -> Mapping[str, Equation]:
    """The equation catalogue by CLI name, in a stable order: parsed once
    per process, and every call returns that one read-only mapping."""
    return MappingProxyType({
        "oml": parse_equation("p ^ (~p v (p ^ q)) = p ^ q"),
        "modular": parse_equation("(p ^ r) v (q ^ r) = ((p ^ r) v q) ^ r"),
        "distributive": parse_equation("p v (q ^ r) = (p v q) ^ (p v r)"),
        "demorgan-meet": parse_equation("~(p ^ q) = ~p v ~q"),
        "demorgan-join": parse_equation("~(p v q) = ~p ^ ~q"),
        "involution": parse_equation("~~p = p"),
        "complement-meet": parse_equation("p ^ ~p = 0"),
        # The two equality characterizations: each holds exactly when p = q.
        "eq-char": parse_equation("(p v q) ^ (~p v ~q) = 0"),
        "eq-char-dual": parse_equation("(~p ^ ~q) v (p ^ q) = 1"),
        "alpha-zero": Equation(alpha(), BOT),
        "beta-zero": Equation(beta(), BOT),
        "separation-0": separation_equation(0),
        "separation-1": separation_equation(1),
        "gamma4-zero": Equation(gamma_distinct_lines(4), BOT),
    })


class Counterexample(NamedTuple):
    """A stored falsifying assignment for an equation."""

    label: str
    equation: Equation
    assignment: Assignment


def transport(a: Assignment, extra: int) -> Assignment:
    """Move an assignment into ``extra`` more dimensions.

    Every binding v becomes ``v (+) C^extra``, and a counterexample stays
    one.  The block-diagonal subspaces ``x (+) y`` of ``C^(m + e)`` form a
    sub-ortholattice isomorphic to ``L(C^m) x L(C^e)``: meet and join act
    blockwise, ``~(x (+) y) = ~x (+) ~y`` because the two coordinate
    blocks are orthogonal under the Hermitian form, and ``0 = 0 (+) 0``,
    ``1 = 1 (+) 1``.  So every term's value at the moved assignment has
    its value at `a` as its first block, and two sides that differ at `a`
    still differ.
    """
    if extra < 0:
        raise ValueError("extra dimensions must be nonnegative")
    if extra == 0:
        return a
    pad = Subspace.full(extra)
    return Assignment(
        a.ambient + extra, {name: embed(s, pad) for name, s in a.bindings.items()}
    )


@cache
def counterexample_catalog() -> tuple[Counterexample, ...]:
    """Known falsifying assignments, re-derivable and exact."""
    distrib = Counterexample(
        "distributive-three-lines",
        named_equations()["distributive"],
        Assignment(
            2,
            {
                "p": Subspace.line(2, [1, 1]),
                "q": Subspace.line(2, [1, 0]),
                "r": Subspace.line(2, [0, 1]),
            },
        ),
    )
    beta_cx = Counterexample("beta-nonzero", Equation(beta(), BOT), beta_witness())
    seps = tuple(
        Counterexample(
            f"separation-{i}", separation_equation(i), separation_witness(i)
        )
        for i in range(3)
    )
    return (distrib, beta_cx) + seps
