"""Strategies, verdicts, and the property suites at reduced sample counts."""

import json
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings

import qlattice.checker as checker
from qlattice.checker import (
    CheckError,
    CoordinateFamilyStrategy,
    StoredWitnesses,
    RandomSampling,
    SuiteRecord,
    SuiteReport,
    check,
    coordinate_family,
    default_strategies,
    run_gamma_suite,
    run_laws_suite,
    run_lemma2_suite,
    run_lemma3_suite,
    run_meet_agreement_suite,
    run_separation_suite,
    run_transport_suite,
)
from qlattice.cli import main
from qlattice.fixtures import parse_assignment_fixture
from qlattice.formulas import (
    beta,
    beta_witness,
    counterexample_catalog,
    named_equations,
    separation_witness,
    transport,
)
import qlattice.subspaces as sub
from qlattice.subspaces import Subspace
from qlattice.terms import BOT, TOP, Assignment, Equation, Evaluator, evaluate, parse_equation
from test_terms import term_with_assignment


def test_family_ambient2_no_extras():
    fam = coordinate_family(2, 0)
    assert fam == (
        Subspace.zero(2),
        Subspace.line(2, [1, 0]),
        Subspace.line(2, [0, 1]),
        Subspace.full(2),
    )


def test_family_ambient2_two_extras():
    fam = coordinate_family(2, 2)
    assert fam[4] == Subspace.line(2, [1, 1])
    assert fam[5] == Subspace.line(2, [1, (0, 1)])
    # coefficient-major across pairs: every pair i < j with c = 1 comes
    # before the first line with c = i
    assert coordinate_family(3, 4)[8:] == (
        Subspace.line(3, [1, 1, 0]),
        Subspace.line(3, [1, 0, 1]),
        Subspace.line(3, [0, 1, 1]),
        Subspace.line(3, [1, (0, 1), 0]),
    )


def test_family_sizes():
    assert len(coordinate_family(3, 0)) == 8
    assert len(coordinate_family(4, 0)) == 16
    assert len(coordinate_family(2, 5)) == 9


def test_family_elements_distinct():
    fam = coordinate_family(3, 9)
    assert len(set(fam)) == len(fam)


def test_family_rejects_bad_arguments():
    with pytest.raises(ValueError):
        coordinate_family(5, 0)
    with pytest.raises(ValueError):
        coordinate_family(0, 0)
    with pytest.raises(ValueError):
        coordinate_family(2, -1)
    # no pairs i < j exist in one dimension
    with pytest.raises(ValueError):
        coordinate_family(1, 1)
    # each pair i < j takes one line per coefficient, and no more
    for ambient, capacity in ((2, 16), (3, 48)):
        assert len(coordinate_family(ambient, capacity)) == 2 ** ambient + capacity
        with pytest.raises(ValueError, match=(
            f"^cannot construct {capacity + 1} distinct extra lines in ambient {ambient}$"
        )):
            coordinate_family(ambient, capacity + 1)


def test_family_deterministic():
    assert coordinate_family(3, 6) == coordinate_family(3, 6)


def test_family_is_shared_and_read_only():
    family = coordinate_family(3, 4)
    assert coordinate_family(3, 4) is family
    with pytest.raises(TypeError):
        family[0] = family[1]


def test_coordinate_strategy_exhaustive_count():
    eq = named_equations()["oml"]  # two variables
    strat = CoordinateFamilyStrategy()
    got = list(strat.assignments(eq, 2))
    assert len(got) == 8 ** 2
    assert eq.free_vars == ("p", "q")
    family = coordinate_family(2, 4)
    assert got == [(p, q) for p in family for q in family]


def test_coordinate_strategy_caps_large_products():
    # six variables over a 20-element family would be 6.4e7 tuples
    eq = named_equations()["separation-1"]
    strat = CoordinateFamilyStrategy(cap=50, seed=7)
    got = list(strat.assignments(eq, 4))
    assert len(got) == 50
    again = list(strat.assignments(eq, 4))
    assert got == again
    assert all(type(row) is tuple and len(row) == len(eq.free_vars) for row in got)


@pytest.mark.parametrize("ambient, size", [
    pytest.param(1, 2, id="1"),  # ambient 1 takes no extra lines
    pytest.param(2, 8, id="2"),
    pytest.param(3, 12, id="3"),
    pytest.param(4, 20, id="4"),
])
@pytest.mark.parametrize("seed", [0, 7])
def test_coordinate_strategy_keeps_the_choice_stream(ambient, size, seed):
    # above the cap, each binding is what rng.choice(family) would draw;
    # at a power-of-two size half the drawn words are rejected
    eq = named_equations()["separation-1"]
    family = coordinate_family(ambient, 4 if ambient >= 2 else 0)
    assert len(family) == size
    cap = min(300, size ** len(eq.free_vars) - 1)
    strat = CoordinateFamilyStrategy(cap=cap, seed=seed)
    rng = Random(f"coordinate-family:{seed}:{ambient}")
    expected = [tuple([rng.choice(family) for name in eq.free_vars]) for _ in range(strat.cap)]
    assert list(strat.assignments(eq, ambient)) == expected


def test_random_strategy_keeps_the_randint_stream():
    # dimensions as rng.randint(0, ambient) drew them, between the
    # coefficient draws of _random_from (pinned in test_subspaces)
    eq = named_equations()["oml"]
    for ambient in (1, 3, 5):
        strat = RandomSampling(count=40, seed=3, coeff_bound=2)
        rng = Random(f"random:3:{ambient}")
        expected = [
            tuple([sub._random_from(rng, ambient, rng.randint(0, ambient), 2)
                   for name in eq.free_vars])
            for _ in range(strat.count)
        ]
        assert list(strat.assignments(eq, ambient)) == expected


def test_coordinate_strategy_skips_large_ambients():
    assert list(CoordinateFamilyStrategy().assignments(named_equations()["oml"], 8)) == []


def test_random_strategy_deterministic_and_bounded():
    eq = named_equations()["oml"]
    strat = RandomSampling(count=25, seed=3, coeff_bound=2)
    one = list(strat.assignments(eq, 3))
    two = list(strat.assignments(eq, 3))
    assert len(one) == 25
    assert one == two
    assert eq.free_vars == ("p", "q")
    assert all(type(row) is tuple and len(row) == 2 for row in one)


def test_stored_witness_strategy_matches_exactly():
    strat = StoredWitnesses()
    eq = named_equations()["distributive"]
    hits = list(strat.assignments(eq, 2))
    assert len(hits) == 1
    # the stored witness, read in free-variable order
    (stored,) = [r.assignment for r in counterexample_catalog() if r.equation == eq]
    assert hits[0] == tuple(stored[name] for name in eq.free_vars)
    assert dict(zip(eq.free_vars, hits[0]))["p"] == Subspace.line(2, [1, 1])
    # same equation, wrong ambient: the stored witness does not apply
    assert list(strat.assignments(named_equations()["distributive"], 3)) == []


def test_check_distributive_counterexample():
    verdict = check(named_equations()["distributive"], 2)
    assert verdict.status == "counterexample"
    cx = verdict.counterexample
    assert cx.lhs_value != cx.rhs_value
    assert all(cx.assignment[n].dim == 1 for n in ("p", "q", "r"))
    assert verdict.strategy_log[0].startswith("stored-witnesses")


def test_check_is_deterministic():
    a = check(named_equations()["distributive"], 2)
    b = check(named_equations()["distributive"], 2)
    assert (a.status, a.samples_tried, a.strategy_log) == (
        b.status, b.samples_tried, b.strategy_log
    )
    assert a.counterexample.assignment.bindings == \
        b.counterexample.assignment.bindings


def test_check_holds_on_samples_wording():
    strategies = [CoordinateFamilyStrategy(), RandomSampling(count=50)]
    verdict = check(named_equations()["oml"], 2, strategies)
    assert verdict.status == "holds-on-samples"
    assert verdict.counterexample is None
    assert "sampling cannot certify validity" in verdict.summary()
    assert verdict.samples_tried == 8 ** 2 + 50


def test_check_beta_witness_value():
    verdict = check(Equation(beta(), BOT), 4, [StoredWitnesses()])
    assert verdict.status == "counterexample"
    e4 = Subspace.line(4, [0, 0, 0, 1])
    assert verdict.counterexample.lhs_value == e4


def test_check_counterexample_fixture_round_trips():
    verdict = check(named_equations()["distributive"], 2)
    text = verdict.counterexample.fixture()
    assert parse_assignment_fixture(text).bindings == \
        verdict.counterexample.assignment.bindings


def test_check_rejects_bad_ambient():
    with pytest.raises(ValueError):
        check(named_equations()["oml"], 0)


class _WrongNames:
    name = "broken"

    def assignments(self, eq, ambient):
        yield tuple(beta_witness().bindings.values())  # p,q,r,s where z alone is asked


def test_check_reports_unbindable_variables():
    eq = parse_equation("z = z ^ z")
    with pytest.raises(CheckError, match="broken"):
        check(eq, 4, [_WrongNames()])


class _ThirdLacksQ:
    name = "bad"

    def assignments(self, eq, ambient):
        e1, e2 = Subspace.line(2, [1, 0]), Subspace.line(2, [0, 1])
        yield (e1, e2)
        yield (e2, e1)
        yield (e1,)
        yield (e2, e2)


def test_check_reports_a_variable_missing_from_a_chunk():
    # the third assignment is drawn in the second chunk, a batch of two
    with pytest.raises(CheckError) as info:
        check(parse_equation("p v q = q v p"), 2, [_ThirdLacksQ()])
    assert str(info.value) == "strategy 'bad' produced an assignment missing variable 'q'"


class _Malformed:
    """Rows of ``p v q = q v p`` that hold, with `item` at position `at`."""

    name = "malformed"

    def __init__(self, item, at):
        self.item, self.at = item, at

    def assignments(self, eq, ambient):
        e1, e2 = Subspace.line(2, [1, 0]), Subspace.line(2, [0, 1])
        for k in range(1, 10):
            yield self.item if k == self.at else (e1, e2)


_E1 = Subspace.line(2, [1, 0])


@pytest.mark.parametrize("item, message", [
    pytest.param(Assignment(2, {"p": _E1, "q": _E1}),
                 "produced an assignment that is not a tuple of values", id="assignment"),
    pytest.param([_E1, _E1], "produced an assignment that is not a tuple of values", id="list"),
    pytest.param((_E1,), "produced an assignment missing variable 'q'", id="short"),
    pytest.param((), "produced an assignment missing variable 'p'", id="empty"),
    pytest.param((_E1, _E1, _E1), "produced an assignment of 3 values for 2 variables",
                 id="long"),
])
@pytest.mark.parametrize("at", [1, 2, 5])  # the first chunk, the second, the third
def test_check_refuses_an_item_that_is_not_a_row(item, message, at):
    strategy = _Malformed(item, at)
    with pytest.raises(CheckError) as info:
        check(parse_equation("p v q = q v p"), 2, [strategy])
    assert str(info.value) == f"strategy 'malformed' {message}"


class _TwoLines:
    name = "two-lines"

    def __init__(self, p, q):
        self.row = (p, q)

    def assignments(self, eq, ambient):
        yield self.row


def test_corrupted_meet_memo_fails_certification(monkeypatch):
    # a wrong memoised p ^ q makes "p ^ q = q ^ p" look refuted; the
    # De Morgan route must catch it instead of reporting a counterexample
    p, q = Subspace.line(2, [1, 0]), Subspace.line(2, [0, 1])
    real = sub.meet
    monkeypatch.setattr(sub, "meet", lambda a, b: p if (a, b) == (p, q) else real(a, b))
    with pytest.raises(CheckError, match="certification"):
        check(parse_equation("p ^ q = q ^ p"), 2, [_TwoLines(p, q)])


@pytest.mark.parametrize("ambient", [2, 3])
def test_faulty_join_fails_certification(monkeypatch, ambient):
    # a join that returns its left operand for two distinct lines refutes
    # "p v q = q v p", and the meet route cannot see it, since it has no
    # meet; the dual "p ^ q = q ^ p" holds at the complements, so the
    # duality leg must refuse the counterexample
    real = sub.join
    monkeypatch.setattr(
        sub, "join", lambda a, b: a if a.dim == b.dim == 1 and a != b else real(a, b)
    )
    with pytest.raises(CheckError, match="dual equation holds"):
        check(parse_equation("p v q = q v p"), ambient)


@given(term_with_assignment(max_ambient=4))
@settings(max_examples=80, deadline=None)
def test_a_true_refutation_by_a_constant_is_certified(case):
    # t = c fails at a, as c is 1 where t is 0 and 0 where t is not; its
    # dual, t's program relabelled set equal to the other constant, fails
    # at the complements of a, so either order must certify
    t, a = case
    c = TOP if evaluate(t, a).dim == 0 else BOT
    checker._certify(Equation(t, c), a)
    checker._certify(Equation(c, t), a)


@pytest.mark.parametrize("ambient", [0, -1])
@pytest.mark.parametrize("suite", ["run_lemma2_suite", "run_laws_suite"])
def test_suites_refuse_an_ambient_below_one(suite, ambient):
    # In a child process with a timeout, since a draw of _below(rng, 0)
    # would never end.
    code = (
        f"from qlattice.checker import {suite}\n"
        "from qlattice.subspaces import AmbientMismatch\n"
        "try:\n"
        f"    {suite}(ambients=({ambient},), samples=1)\n"
        "except AmbientMismatch as e:\n"
        "    print('refused:', e)\n"
    )
    src = str(Path(checker.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"refused: ambient dimension must be at least 1, got {ambient}\n"


def test_sweep_refuses_ambient_zero_before_drawing_a_row(monkeypatch):
    calls = []
    real = checker._random_from
    monkeypatch.setattr(checker, "_random_from", lambda *args: calls.append(args) or real(*args))
    with pytest.raises(sub.AmbientMismatch, match="at least 1, got 0"):
        run_lemma2_suite(ambients=(0,), samples=1)
    assert calls == []


def test_default_strategy_order():
    names = [s.name for s in default_strategies()]
    assert names == ["stored-witnesses", "coordinate-family", "random"]


def test_lemma2_suite_small():
    report = run_lemma2_suite(samples=200)
    assert report.passed
    suites = [r.suite for r in report.records]
    assert suites == ["lemma2"] * 4 + ["lemma2-tight"]
    # ambient 4 random sampling regularly reaches the extreme dimension 2
    assert "max dim seen" in report.records[2].detail


def test_lemma3_suite_counts():
    report = run_lemma3_suite()
    assert report.passed
    record = report.records[0]
    # 9 family members, 7 of them lines: 7 * 6 * 5 ordered distinct triples
    assert record.samples == 9 ** 3
    assert "210 of 729" in record.detail


def test_separation_suite_small():
    report = run_separation_suite(max_i=1, samples=50)
    assert report.passed
    suites = [r.suite for r in report.records]
    assert suites == [
        "separation-0-holds",
        "separation-0-witness",
        "separation-1-holds",
        "separation-1-holds",
        "separation-1-witness",
    ]
    witness = report.records[1]
    assert witness.certificate is not None
    parsed = parse_assignment_fixture(witness.certificate)
    assert parsed.ambient == 2


def test_laws_suite_small():
    report = run_laws_suite(samples=150)
    assert report.passed
    assert [r.ambient for r in report.records] == [2, 3, 4, 5]
    assert all("dimension" in r.detail for r in report.records)


@pytest.mark.parametrize("ambient,samples", [(12, 3), (16, 2)])
def test_laws_suite_wide_ambients(ambient, samples):
    # Elimination without exact pivot division grew coefficients to
    # hundreds of thousands of bits at n = 12 and took minutes here.
    report = run_laws_suite(ambients=(ambient,), samples=samples, seed=0)
    assert report.passed
    assert [r.ambient for r in report.records] == [ambient]


def test_meet_agreement_suite():
    report = run_meet_agreement_suite()
    assert report.passed
    assert report.records[0].samples > 144  # pairs plus equation evaluations


def test_transport_suite():
    report = run_transport_suite()
    assert report.passed
    assert len(report.records) == 10  # five stored counterexamples, two pads
    assert {r.status for r in report.records} == {"pass"}


def test_gamma_suite_counts():
    report = run_gamma_suite()
    assert report.passed
    record = report.records[0]
    assert record.samples == 6 ** 4
    assert "936" in record.detail and "264" in record.detail


def test_report_concatenation_and_json():
    combined = run_gamma_suite() + run_transport_suite()
    assert len(combined.records) == 11
    blob = json.loads(json.dumps(combined.as_dict()))
    assert blob["passed"] is True
    assert len(blob["records"]) == 11


def test_report_fails_when_any_record_fails():
    good = run_gamma_suite().records[0]
    bad = SuiteRecord("demo", 2, 1, "fail", "synthetic", None)
    report = SuiteReport((good, bad))
    assert not report.passed
    assert report.lines()[-1].startswith("SUITE FAILURES")
    assert "[FAIL] demo" in report.lines()[1]


# --- suites under an injected wrong operation ---------------------------------
# Each arm makes one operation wrong at its k-th use and returns the
# assignments it has seen, so that the k-th is the one that fails.


def _other(v: Subspace) -> Subspace:
    full = Subspace.full(v.ambient)
    return Subspace.zero(v.ambient) if v == full else full


def _wrong_eval(flips, dual=False):
    """Evaluator.eval goes wrong on the terms `flips` picks: in the column
    entry of the k-th row under which it evaluates one of them, in sweep
    order, and again at every later row of the same values, such as the
    row certification builds from the reported assignment.  With `dual`
    it goes wrong at the row of their complements too, the row at which
    certification evaluates the dual equation."""
    def arm(monkeypatch, k):
        seen = []  # each row object first evaluated, as an Assignment
        rows = []  # the same rows
        position = {}  # id of each row in `rows` -> its index there
        real = Evaluator.eval

        def eval(self, t):
            column = real(self, t)
            if not flips(t):
                return column
            for row in self.rows:
                if id(row) not in position:
                    position[id(row)] = len(rows)
                    rows.append(row)
                    seen.append(Assignment(self.ambient, dict(zip(self.names, row))))
            if len(rows) < k:
                return column
            wrong = [rows[k - 1]]
            if dual:
                wrong.append(tuple(map(sub.complement, rows[k - 1])))
            return [_other(v) if position[id(row)] >= k - 1 and row in wrong else v
                    for row, v in zip(self.rows, column)]

        monkeypatch.setattr(Evaluator, "eval", eval)
        return seen
    return arm


def _wrong_meet(monkeypatch, k):
    seen = []

    def meet(p, q):
        seen.append(Assignment(p.ambient, {"p": p, "q": q}))
        v = sub.meet(p, q)
        return _other(v) if len(seen) == k else v

    monkeypatch.setattr(checker, "meet", meet)
    return seen


def _lossy_transport(monkeypatch, k):
    """The k-th transport loses its subspaces, so the equation holds there."""
    seen = []

    def lossy(a, extra):
        moved = transport(a, extra)
        if len(seen) + 1 == k:
            zero = Subspace.zero(moved.ambient)
            moved = Assignment(moved.ambient, {name: zero for name in sorted(moved.bindings)})
        seen.append(moved)
        return moved

    monkeypatch.setattr(checker, "transport", lossy)
    return seen


_ANY = _wrong_eval(lambda t: True)
_OML_LHS = named_equations()["oml"].lhs


@pytest.mark.parametrize("name, run, arm, k, position", [
    pytest.param(*case, id=case[0]) for case in (
        ("lemma2", lambda: run_lemma2_suite(ambients=(3,), samples=10), _ANY, 4, 4),
        ("lemma3", run_lemma3_suite, _ANY, 100, 100),
        ("separation", lambda: run_separation_suite(max_i=0, samples=10),
         _wrong_eval(lambda t: t in (BOT, TOP), dual=True), 5, 5),
        ("laws", lambda: run_laws_suite(ambients=(2,), samples=10),
         _wrong_eval(lambda t: t == _OML_LHS), 7, 7),
        ("meet-agreement", run_meet_agreement_suite, _wrong_meet, 20, 20),
        ("transport", run_transport_suite, _lossy_transport, 3, 1),
        ("gamma", run_gamma_suite, _ANY, 500, 500),
    )
])
def test_suite_records_its_first_failure(monkeypatch, capsys, name, run, arm, k, position):
    seen = arm(monkeypatch, k)
    report = run()
    failed = [r for r in report.records if r.status == "fail"]
    assert not report.passed and len(failed) == 1
    record = failed[0]
    assert record.suite.startswith(name)
    assert record.samples == position  # assignments evaluated, the failing one included
    cert = parse_assignment_fixture(record.certificate)
    assert cert.ambient == seen[k - 1].ambient
    assert cert.bindings == seen[k - 1].bindings

    monkeypatch.undo()
    arm(monkeypatch, k)
    code = main(["suite", name, "--samples", "10", "--max-i", "0"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert any(line.startswith(f"[FAIL] {name}") for line in lines)
    assert lines[-1].startswith("SUITE FAILURES")


def test_wrong_value_at_one_row_fails_duality_certification(monkeypatch):
    # the separation case above with 0 wrong only at the failing row:
    # the dual equation, "... = 1" at the complements, holds there, so
    # the refutation is not certified
    _wrong_eval(lambda t: t == BOT)(monkeypatch, 5)
    with pytest.raises(CheckError, match="dual equation holds"):
        run_separation_suite(max_i=0, samples=10)


_HALF_SPLIT = separation_witness(1)


@pytest.mark.parametrize("name, run, suite, witness, detail", [
    pytest.param(
        "lemma2", lambda: run_lemma2_suite(ambients=(2,), samples=10), "lemma2-tight",
        Assignment(4, {"p": _HALF_SPLIT["p1"], "q": _HALF_SPLIT["q1"], "r": _HALF_SPLIT["r1"]}),
        "expected dim 2, got 4", id="lemma2-tight"),
    pytest.param(
        "separation", lambda: run_separation_suite(max_i=0, samples=10),
        "separation-0-witness", separation_witness(0),
        "witness value has dimension 2, expected 1", id="separation-0-witness"),
])
def test_witness_record_fails_on_a_wrong_value(monkeypatch, capsys, name, run, suite, witness,
                                               detail):
    """A wrong Evaluator.eval on the witness row alone fails that suite's
    one-assignment record, certified by the witness."""
    values = set(witness.bindings.values())
    real = Evaluator.eval

    def eval(self, t):
        column = real(self, t)
        return [_other(v) if self.ambient == witness.ambient and set(row) == values else v
                for row, v in zip(self.rows, column)]

    monkeypatch.setattr(Evaluator, "eval", eval)
    failed = [r for r in run().records if r.status == "fail"]
    assert [(r.suite, r.ambient, r.samples, r.detail) for r in failed] == [
        (suite, witness.ambient, 1, detail)
    ]
    cert = parse_assignment_fixture(failed[0].certificate)
    assert (cert.ambient, cert.bindings) == (witness.ambient, witness.bindings)

    code = main(["suite", name, "--samples", "10", "--max-i", "0"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert f"[FAIL] {suite} ambient={witness.ambient} samples=1: {detail}" in lines
    assert lines[-1].startswith("SUITE FAILURES")
