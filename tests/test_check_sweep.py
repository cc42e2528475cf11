"""The chunked sweep behind ``check``: the same verdicts as a plain loop
over single assignments, bounded draws, and pinned outcomes."""

import json
from hashlib import blake2b
from pathlib import Path

import pytest

from qlattice.checker import (
    CoordinateFamilyStrategy,
    RandomSampling,
    StoredWitnesses,
    check,
    coordinate_family,
    default_strategies,
)
from qlattice.formulas import named_equations
from qlattice.subspaces import Subspace
from qlattice.terms import BOT, Assignment, Equation, Join, Var, evaluate, parse_equation

GOLDEN = Path(__file__).parent / "golden"


def reference_check(eq, ambient, strategies):
    """One assignment at a time: status, samples tried, log and the
    counterexample as (assignment, lhs value, rhs value)."""
    samples, log = 0, []
    for strategy in strategies:
        k = 0
        for row in strategy.assignments(eq, ambient):
            k += 1
            samples += 1
            a = Assignment(ambient, dict(zip(eq.free_vars, row)))
            lhs, rhs = evaluate(eq.lhs, a), evaluate(eq.rhs, a)
            if lhs != rhs:
                log.append(f"{strategy.name}: counterexample at assignment {k}")
                return "counterexample", samples, log, (a, lhs, rhs)
        log.append(f"{strategy.name}: {k} assignments, no counterexample")
    return "holds-on-samples", samples, log, None


def assert_same_as_reference(eq, ambient, strategies):
    verdict = check(eq, ambient, strategies)
    status, samples, log, cx = reference_check(eq, ambient, strategies)
    assert (verdict.status, verdict.samples_tried) == (status, samples)
    assert list(verdict.strategy_log) == log
    if cx is None:
        assert verdict.counterexample is None
    else:
        got = verdict.counterexample
        assert got.assignment.bindings == cx[0].bindings
        assert (got.lhs_value, got.rhs_value) == cx[1:]
    return verdict


STRATEGY_SETS = {
    "stored": lambda: [StoredWitnesses()],
    "coordinate-family": lambda: [CoordinateFamilyStrategy(cap=600, seed=3)],
    "random": lambda: [RandomSampling(count=40, seed=5)],
    "all": lambda: [StoredWitnesses(), CoordinateFamilyStrategy(cap=600, seed=3),
                    RandomSampling(count=40, seed=5)],
}


@pytest.mark.parametrize("ambient", [1, 2, 3, 4])
@pytest.mark.parametrize("strategies", sorted(STRATEGY_SETS))
def test_check_matches_the_one_at_a_time_loop(strategies, ambient):
    for eq in named_equations().values():
        assert_same_as_reference(eq, ambient, STRATEGY_SETS[strategies]())


class Listed:
    """A fixed list of rows that counts how many were drawn."""

    name = "listed"

    def __init__(self, rows):
        self.listed = rows
        self.drawn = 0

    def assignments(self, eq, ambient):
        for row in self.listed:
            self.drawn += 1
            yield row


# p <= q: holds wherever p is 0 or q is 1, fails at p = 1, q = 0.
BELOW = parse_equation("p = p ^ q")
_FAMILY = coordinate_family(2, 3)
# rows of BELOW are (p, q)
_FAILING = (Subspace.full(2), Subspace.zero(2))


def _holding(count):
    """`count` rows under which BELOW holds, not all alike."""
    zero, full = Subspace.zero(2), Subspace.full(2)
    return [
        (zero, _FAMILY[i % len(_FAMILY)]) if i % 2 else (_FAMILY[i % len(_FAMILY)], full)
        for i in range(count)
    ]


# Around the chunk boundaries: chunks of 1, 2, 4, ... end at 1, 3, 7, ..., 63.
POSITIONS = [1, 2, 3, 4, 7, 8, 63, 64, 65]


@pytest.mark.parametrize("k", POSITIONS)
def test_first_counterexample_at_a_chunk_boundary(k):
    strategy = Listed(_holding(k - 1) + [_FAILING] + _holding(200))
    verdict = assert_same_as_reference(BELOW, 2, [strategy])
    assert verdict.samples_tried == k
    assert verdict.strategy_log == (f"listed: counterexample at assignment {k}",)
    assert verdict.counterexample.assignment.bindings == dict(zip(("p", "q"), _FAILING))


@pytest.mark.parametrize("k", POSITIONS + [100, 129, 1000])
def test_a_counterexample_at_k_draws_at_most_2k_minus_1(k):
    strategy = Listed(_holding(k - 1) + [_FAILING] + _holding(2 * k))
    verdict = check(BELOW, 2, [strategy])
    assert verdict.samples_tried == k
    assert k <= strategy.drawn <= 2 * k - 1


def test_a_clean_strategy_is_drawn_once_to_its_end():
    strategy = Listed(_holding(300))
    verdict = check(BELOW, 2, [strategy])
    assert verdict.status == "holds-on-samples"
    assert strategy.drawn == verdict.samples_tried == 300


@pytest.mark.parametrize("k", [1, 2, 5, 65])
def test_a_program_over_the_memory_cap_draws_exactly_k(k):
    # 2,000 variables joined: 4,000 slots of 2 x 2 entries, over 2**14
    names = [f"x{i}" for i in range(2000)]
    chain = Var(names[0])
    for name in names[1:]:
        chain = Join(chain, Var(name))
    eq = Equation(chain, BOT)
    zero = Subspace.zero(2)
    holding = (zero,) * len(names)
    failing = tuple(Subspace.line(2, [1, 0]) if name == "x7" else zero
                    for name in eq.free_vars)
    strategy = Listed([holding] * (k - 1) + [failing] + [holding] * k)
    verdict = check(eq, 2, [strategy])
    assert verdict.samples_tried == k
    assert strategy.drawn == k


@pytest.mark.parametrize("k", [1, 3, 8])
def test_a_wide_ambient_draws_exactly_k(k):
    # three slots of 64 x 64 entries reach the cap alone
    zero, full = Subspace.zero(64), Subspace.full(64)
    holding = (zero, full)
    failing = (full, zero)
    strategy = Listed([holding] * (k - 1) + [failing] + [holding] * k)
    verdict = check(BELOW, 64, [strategy])
    assert verdict.samples_tried == k
    assert strategy.drawn == k


def _check_outcomes() -> dict[str, list]:
    """Status, samples tried, strategy log and the blake2b of the
    counterexample fixture (or None) of every catalogue equation, under
    ``default_strategies(samples=100)`` at ambients 1..3 and under the
    plane-family strategies at ambients 2 and 3.
    ``tests/golden/check-outcomes.json`` holds the output of
    ``json.dumps(_check_outcomes(), indent=2)``."""
    strategy_sets = {
        "default": (lambda: default_strategies(samples=100), (1, 2, 3)),
        "plane-family": (lambda: [StoredWitnesses(), CoordinateFamilyStrategy(cap=4096)], (2, 3)),
    }
    outcomes = {}
    for label, (strategies, ambients) in strategy_sets.items():
        for name, eq in named_equations().items():
            for n in ambients:
                v = check(eq, n, strategies())
                cx = v.counterexample
                digest = None if cx is None else blake2b(
                    cx.fixture().encode(), digest_size=32
                ).hexdigest()
                outcomes[f"{name} n={n} {label}"] = [
                    v.status, v.samples_tried, list(v.strategy_log), digest,
                ]
    return outcomes


def test_check_outcomes_match_golden():
    expected = json.loads((GOLDEN / "check-outcomes.json").read_text())
    assert _check_outcomes() == expected
