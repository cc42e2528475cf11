"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Each criterion is checked at its stated tolerance (always exact — zero
violations) and within its stated runtime budget.  The external-solver
criterion is optional: with no solver on PATH it reports SKIP, and a
solver timeout is reported, not failed.
"""

import itertools
import time
from pathlib import Path

import pytest

from qlattice.checker import (
    RandomSampling,
    check,
    coordinate_family,
    run_gamma_suite,
    run_laws_suite,
    run_lemma2_suite,
    run_lemma3_suite,
    run_meet_agreement_suite,
    run_separation_suite,
    run_transport_suite,
)
from qlattice.compiler import (
    compile_sentence,
    emit_solver_text,
    eval_flat,
    find_solver,
    flatten,
    run_external_solver,
)
from qlattice.formulas import (
    alpha_iter,
    beta,
    beta_witness,
    gamma_distinct_lines,
    named_equations,
    separation_witness,
)
from qlattice.sentences import (
    eval_sentence,
    format_sentence,
    parse_sentence,
    universal_closure,
)
from qlattice.smtlib import check_solver_text
from qlattice.subspaces import Subspace
from qlattice.terms import Assignment, evaluate

GOLDEN = Path(__file__).parent / "golden"
WORKED = "forall x, y, z. ~(x ^ y) v z = y ^ (~z v x)"


def _report(capsys, number: int, text: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}")
    assert ok, f"criterion {number}: {text}"


def test_criterion_01_beta_witness_value(capsys):
    start = time.perf_counter()
    value = evaluate(beta(), beta_witness())
    elapsed = time.perf_counter() - start
    ok = value == Subspace.line(4, [0, 0, 0, 1]) and elapsed < 1.0
    _report(
        capsys, 1,
        f"beta at the stored witness is exactly span{{e4}} ({elapsed:.3f}s < 1s)",
        ok,
    )


def test_criterion_02_beta_vanishes_in_the_plane(capsys):
    start = time.perf_counter()
    family = coordinate_family(2, 5)

    class PlaneFamily:
        name = "plane-family"

        def assignments(self, eq, ambient):
            return itertools.product(family, repeat=len(eq.free_vars))

    strategies = (PlaneFamily(), RandomSampling(count=10_000))
    verdict = check(named_equations()["beta-zero"], 2, strategies)
    elapsed = time.perf_counter() - start
    expected = len(family) ** 4 + 10_000
    ok = (
        verdict.counterexample is None
        and verdict.samples_tried == expected
        and elapsed < 60.0
    )
    _report(
        capsys, 2,
        f"beta = 0 on all {len(family)}^4 family tuples and 10^4 random "
        f"4-tuples in C^2 ({elapsed:.1f}s < 60s)",
        ok,
    )


def test_criterion_03_separation_hierarchy(capsys):
    start = time.perf_counter()
    report = run_separation_suite(max_i=2, samples=1000)
    dims = []
    for i in range(3):
        witness = separation_witness(i)
        dims.append(evaluate(alpha_iter(i + 1), witness).dim)
    elapsed = time.perf_counter() - start
    ok = report.passed and dims == [1, 1, 1] and elapsed < 300.0
    _report(
        capsys, 3,
        "separation equations i=0,1,2 hold below and are falsified above "
        f"with witness dimension exactly 1 ({elapsed:.1f}s < 5min)",
        ok,
    )


def test_criterion_04_half_dimension_bound(capsys):
    report = run_lemma2_suite(samples=10_000)
    tight = [r for r in report.records if r.suite == "lemma2-tight"]
    ok = report.passed and len(tight) == 1 and tight[0].status == "pass"
    _report(
        capsys, 4,
        "2*dim(alpha) <= n on 10^4 samples in C^2..C^5, tight at dim 2 in C^4",
        ok,
    )


def test_criterion_05_three_distinct_lines(capsys):
    report = run_lemma3_suite()
    ok = report.passed
    _report(
        capsys, 5,
        "alpha nonzero exactly on triples of distinct lines, equal to ~p, "
        "exhaustively over a plane family with 0, 1, and seven lines",
        ok,
    )


def test_criterion_06_laws_suite(capsys):
    report = run_laws_suite(samples=10_000)
    ok = report.passed
    _report(
        capsys, 6,
        "orthomodular, modular, De Morgan, involution, equality "
        "characterization, dimension formula: 10^4 samples per ambient, "
        "zero violations",
        ok,
    )


def test_criterion_07_counterexample_transport(capsys):
    report = run_transport_suite()
    ok = report.passed and len(report.records) == 10
    _report(
        capsys, 7,
        "every stored counterexample still falsifies after embedding into "
        "one and two extra dimensions",
        ok,
    )


def test_criterion_08_meet_route_agreement(capsys):
    report = run_meet_agreement_suite()
    ok = report.passed and [r.ambient for r in report.records] == [3]
    _report(
        capsys, 8,
        "kernel-intersection meet agrees with the complement-of-join-of-"
        "complements route on all family pairs in C^3",
        ok,
    )


def test_criterion_09_compiler_structural(capsys):
    # 6 fresh names and 6 definitions, the first t1 = x ^ y, and the
    # conclusion t3 = t6
    flat = flatten(parse_sentence(WORKED))
    flat_text = (
        "forall x, y, z, t1, t2, t3, t4, t5, t6. "
        "t1 = x ^ y & t2 = ~t1 & t3 = t2 v z & t4 = ~z & t5 = t4 v x "
        "& t6 = y ^ t5 -> t3 = t6"
    )
    shape_ok = (
        flat.fresh == ("t1", "t2", "t3", "t4", "t5", "t6")
        and format_sentence(flat.sentence) == flat_text
        and flat.sentence == parse_sentence(flat_text)
    )

    agree_ok = True
    sentences = [
        parse_sentence(WORKED),
        universal_closure(named_equations()["oml"]),
        universal_closure(named_equations()["distributive"]),
    ]
    for s in sentences:
        for ambient, extras in ((2, 1), (3, 0)):
            dom = coordinate_family(ambient, extras)
            if eval_flat(flatten(s), dom, ambient) != eval_sentence(s, dom, ambient):
                agree_ok = False

    worked_text = emit_solver_text(compile_sentence(parse_sentence(WORKED), 2))
    distrib_text = emit_solver_text(
        compile_sentence(universal_closure(named_equations()["distributive"]), 1)
    )
    golden_ok = (
        worked_text == (GOLDEN / "worked-example-n2.smt2").read_text()
        and distrib_text == (GOLDEN / "distributive-n1.smt2").read_text()
    )
    check_solver_text(worked_text)
    check_solver_text(distrib_text)

    ok = shape_ok and agree_ok and golden_ok
    _report(
        capsys, 9,
        "flattening shape, flat-vs-direct evaluation agreement, golden "
        "byte-stability, and reader-validated solver text",
        ok,
    )


def test_criterion_10_external_solver(capsys):
    command = find_solver()
    if command is None:
        with capsys.disabled():
            print(
                "[SKIP] criterion 10: optional end-to-end solver check "
                "(no real-arithmetic solver on PATH)"
            )
        pytest.skip("no external solver available")
    cases = [
        (universal_closure(named_equations()["distributive"]), 1, "valid"),
        (universal_closure(named_equations()["distributive"]), 2, "invalid"),
        (universal_closure(named_equations()["oml"]), 1, "valid"),
    ]
    verdicts = []
    for sentence, n, _ in cases:
        text = emit_solver_text(compile_sentence(sentence, n))
        verdicts.append(run_external_solver(text, command, timeout_seconds=120.0).status)
    if "timeout" in verdicts:
        with capsys.disabled():
            print(f"[SKIP] criterion 10: solver timed out (verdicts {verdicts})")
        pytest.skip("solver timeout is reported, not failed")
    ok = verdicts == [want for _, _, want in cases]
    _report(
        capsys, 10,
        f"solver verdicts {verdicts} match Boolean C^1 / quantum C^2",
        ok,
    )


def test_criterion_11_gamma_distinct_line_detector(capsys):
    report = run_gamma_suite()
    lines = [
        Subspace.line(2, [1, 0]),
        Subspace.line(2, [0, 1]),
        Subspace.line(2, [1, 1]),
        Subspace.line(2, [1, 2]),
    ]
    assignment = Assignment(2, dict(zip("pqrs", lines)))
    value = evaluate(gamma_distinct_lines(4), assignment)
    ok = report.passed and not value.is_zero() and value == lines[0]
    _report(
        capsys, 11,
        "gamma_4 vanishes on every coincident 4-tuple of the 6-line family "
        "and is nonzero at four distinct lines",
        ok,
    )
