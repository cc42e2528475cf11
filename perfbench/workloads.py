"""The four workloads: fixed job lists built from a seed, and their oracles.

A job is what one CLI command does: one ``check`` with its printed verdict
and certificate, one suite run (a call per ambient) with its report lines,
or one sentence x n compile with its SMT-LIB text and stats line.  Jobs call the
library through module attributes (``checker.check``, ...), so the traced
run sees every call.

Every oracle runs outside the timed region.  It compares against what is
known independently of the code under test: verdicts derived from the
mathematics, re-certification through the complement-based meet, the
suites' own pass/fail records, the bundled SMT-LIB reader, the golden
files, and flat-versus-direct evaluation of each compiled sentence.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable

from qlattice import checker, compiler, formulas, sentences, smtlib
from qlattice.subspaces import meet_via_demorgan
from qlattice.terms import holds

ROOT = Path(__file__).resolve().parent.parent

LAWS = ("oml", "modular", "demorgan-meet", "demorgan-join", "involution", "complement-meet")
# Fail in every ambient >= 2: three lines in the plane break distributivity,
# and alpha / gamma_4 are nonzero there; transport keeps each failure in
# every larger ambient.
_FAIL_FROM_2 = ("distributive", "eq-char", "eq-char-dual", "alpha-zero",
                "separation-0", "gamma4-zero")


def expected_verdict(name: str, n: int) -> bool | None:
    """Whether equation `name` holds in L(C^n); None where no claim is made.

    beta is identically zero in the plane and has a witness in C^4;
    separation-i holds up to 2^i and has a witness in C^(2^(i+1)).
    """
    if name in LAWS:
        return True
    if name in _FAIL_FROM_2:
        return False if n >= 2 else None
    level = {"beta-zero": 1, "separation-1": 1}.get(name)
    if level is not None:
        if n <= 2 ** level:
            return True
        if n >= 2 ** (level + 1):
            return False
    return None


@dataclass
class Output:
    """One job's result: `key` and `text` must repeat exactly across rounds
    and between the traced and untraced runs; `value` feeds the oracle."""

    key: tuple
    text: str
    value: object = None

    def summary(self) -> dict:
        """What a round reports: the key, a digest and the size of the text,
        and the assignments a check or suite evaluated."""
        data = self.text.encode()
        v = self.value
        if isinstance(v, checker.Verdict):
            assignments = v.samples_tried
        elif isinstance(v, checker.SuiteReport):
            assignments = sum(r.samples for r in v.records)
        else:
            assignments = 0
        return {"key": repr(self.key), "digest": hashlib.blake2b(data, digest_size=16).hexdigest(),
                "bytes": len(data), "assignments": assignments}


@dataclass
class Job:
    label: str
    run: Callable[[], Output]


@dataclass
class Workload:
    jobs: list[Job]
    # oracle and validate return (job label, message) for every failure found.
    oracle: Callable[[list[Output]], list[tuple[str, str]]]
    # The percentile job_tail_ms reports.  It is fixed per workload, so that
    # it does not move with the number of rounds that fit in a run.  Each
    # leaves at least 10 jobs beyond it in a 30 s run with margin, and falls
    # inside one kind of job rather than between two, where it would jump.
    tail_percentile: float
    # Per-layer metrics that must be nonzero in the traced run.
    exercised: tuple[str, ...] = ()
    # The oracle's solver-text validation, which the traced run traces.
    validate: Callable[[list[Output]], list[tuple[str, str]]] = lambda outputs: []


# --- jobs ---------------------------------------------------------------------


def _check_job(label: str, eq, n: int, strategies: list) -> Job:
    def run() -> Output:
        v = checker.check(eq, n, strategies)
        text = v.summary() + "\n"
        if v.counterexample is not None:
            text += v.counterexample.fixture()
        return Output((v.status, v.samples_tried), text, v)

    return Job(label, run)


def _suite_job(label: str, suite: str, *calls: dict) -> Job:
    """One suite call per entry of `calls` (keyword arguments), reported as one."""
    fn_name = f"run_{suite.replace('-', '_')}_suite"

    def run() -> Output:
        report = checker.SuiteReport(())
        for kwargs in calls:
            report += getattr(checker, fn_name)(**kwargs)
        text = "\n".join(report.lines()) + "\n"
        key = tuple((r.status, r.samples, r.detail) for r in report.records)
        return Output(key, text, report)

    return Job(label, run)


def _compile_job(label: str, source: str, n: int) -> Job:
    def run() -> Output:
        real = compiler.compile_sentence(sentences.parse_sentence(source), n)
        text = compiler.emit_solver_text(real)
        st = compiler.stats(real)
        return Output((st.top_level_reals, st.quantifier_blocks, st.equations), text, st)

    return Job(label, run)


# --- oracles ------------------------------------------------------------------


def _check_oracle(jobs: list[Job], expect: dict[str, tuple]):
    """Oracle over check and suite jobs.

    `expect` maps a check job's label to (equation name, ambient, samples it
    must try or None).  Suites must pass; verdicts must agree with
    :func:`expected_verdict`; every counterexample must still refute its
    equation under both meet routes.
    """
    eqs = formulas.named_equations()

    def oracle(outputs: list[Output]) -> list[tuple[str, str]]:
        errors = []
        for job, out in zip(jobs, outputs):
            v = out.value
            if isinstance(v, checker.SuiteReport):
                if not v.passed:
                    errors.append((job.label, "suite failed"))
                continue
            name, n, want_samples = expect[job.label]
            want = expected_verdict(name, n)
            if want is not None and (v.status == "holds-on-samples") != want:
                errors.append((job.label, f"verdict {v.status}, expected "
                               + ("holds" if want else "a counterexample")))
            if want_samples is not None and v.samples_tried != want_samples:
                errors.append((job.label, f"{v.samples_tried} samples, expected {want_samples}"))
            if v.counterexample is not None:
                a = v.counterexample.assignment
                if holds(eqs[name], a) or holds(eqs[name], a, meet_op=meet_via_demorgan):
                    errors.append((job.label, "counterexample fails re-certification"))
        return errors

    return oracle


# --- plane-family -------------------------------------------------------------


def plane_family(seed: int, small: bool) -> Workload:
    """Structured traffic of acceptance criteria 2, 5, 8 and 11: every
    catalogue equation over the coordinate families of C^2 and C^3, plus
    the lemma3, gamma and meet-agreement suites.  The same few hundred
    operand pairs recur, so an operation memo would show here.

    The checks use the CLI's default strategy seed: above the 4096 cap the
    coordinate-family strategy samples tuples, and the number it needs
    before a counterexample (beta and gamma_4 in C^3) varies tenfold with
    that seed.  The run seed feeds meet-agreement and orders the jobs.
    """
    strategies = [checker.StoredWitnesses(), checker.CoordinateFamilyStrategy(cap=4096)]
    jobs = []
    meta = {}
    for n in ((2,) if small else (2, 3)):
        for name, eq in formulas.named_equations().items():
            job = _check_job(f"check {name} n={n}", eq, n, strategies)
            meta[job.label] = (name, n, None)
            jobs.append(job)
    jobs.append(_suite_job("suite lemma3", "lemma3", {}))
    jobs.append(_suite_job("suite gamma", "gamma", {}))
    jobs.append(_suite_job("suite meet-agreement", "meet-agreement", {"seed": seed}))
    Random(seed).shuffle(jobs)
    return Workload(
        jobs,
        _check_oracle(jobs, meta),
        tail_percentile=92,
        exercised=(
            "linalg.reduce.calls", "linalg.kernel.calls", "subspaces.meet.calls",
            "subspaces.join.calls", "subspaces.complement.calls", "subspaces.repeat_share",
            "terms.eval.calls", "formulas.catalog.calls", "fixtures.format.calls",
            "checker.strategy.stored-witnesses.assignments",
            "checker.strategy.coordinate-family.assignments", "checker.certify.calls",
            "checker.suite.lemma3.s", "checker.suite.gamma.s", "checker.suite.meet-agreement.s",
        ),
    )


# --- random-narrow ------------------------------------------------------------

# Samples per suite call by ambient; a RandomSampling check draws twice as many.
_NARROW = {2: 50, 3: 40, 4: 30, 5: 20}
_NARROW_JOBS = 6


def random_narrow(seed: int, small: bool) -> Workload:
    """Acceptance traffic of criteria 4 and 6 at ambients 2..5: the laws and
    lemma2 suites on seeded random triples, and RandomSampling-only checks
    of the six laws.  Elimination dominates, on small matrices.

    Each suite job makes one call per ambient on its own sub-seed, so the
    suite jobs of one kind are draws from one distribution.
    """
    eqs = formulas.named_equations()
    scale = 10 if small else 1
    jobs = []
    meta = {}
    for j in range(2 if small else _NARROW_JOBS):
        for suite in ("laws", "lemma2"):
            jobs.append(_suite_job(f"suite {suite} n=2..5 #{j}", suite, *(
                {"ambients": (n,), "samples": size // scale, "seed": seed * 1000 + j}
                for n, size in _NARROW.items())))
    for n, size in _NARROW.items():
        for k, name in enumerate(LAWS):
            count = 2 * size // scale
            strategies = [checker.RandomSampling(count=count, seed=seed * 1000 + k)]
            job = _check_job(f"check {name} n={n}", eqs[name], n, strategies)
            meta[job.label] = (name, n, count)
            jobs.append(job)
    return Workload(
        jobs,
        _check_oracle(jobs, meta),
        tail_percentile=92,
        exercised=(
            "linalg.reduce.calls", "linalg.kernel.calls", "subspaces.meet.calls",
            "subspaces.join.calls", "subspaces.complement.calls", "subspaces.sample.calls",
            "terms.eval.calls", "checker.strategy.random.assignments",
            "checker.suite.laws.s", "checker.suite.lemma2.s",
        ) + tuple(f"checker.laws.n{n}.s" for n in _NARROW),
    )


# --- random-wide --------------------------------------------------------------

# Samples per job by ambient.  From ambient 9 on, the cost of one sample
# varies over two orders of magnitude with the seed, so no affordable count
# gives a steady round: see README.md.
_WIDE = {6: 12, 7: 9, 8: 9}
_WIDE_JOBS = 14


def random_wide(seed: int, small: bool) -> Workload:
    """Laws-suite samples at ambients 6..8, where elimination is nearly all
    of the time and intermediate coefficients grow.

    Every job has the same make-up, one laws-suite call per ambient on its
    own sub-seed, so the job times are draws from one distribution and
    their percentiles settle.
    """
    jobs = [
        _suite_job(f"suite laws n=6..8 #{j}", "laws", *(
            {"ambients": (n,), "samples": 1 if small else size, "seed": seed * 1000 + j}
            for n, size in _WIDE.items()))
        for j in range(2 if small else _WIDE_JOBS)
    ]
    return Workload(
        jobs,
        _check_oracle(jobs, {}),
        tail_percentile=85,
        exercised=(
            "linalg.reduce.calls", "linalg.kernel.calls", "linalg.reduce.out_bits_max",
            "subspaces.meet.calls", "subspaces.join.calls", "subspaces.complement.calls",
            "subspaces.sample.calls", "terms.eval.calls", "checker.suite.laws.s",
        ) + tuple(f"checker.laws.n{n}.s" for n in _WIDE),
    )


# --- compile ------------------------------------------------------------------

_SENTENCES = ("oml", "distributive", "alpha-zero", "beta-zero", "separation-1")
WORKED = ROOT / "tests" / "data" / "worked_example.sent"
GOLDEN = ROOT / "tests" / "golden"
# (sentence, n) -> golden file holding its exact solver text.
_GOLDENS = {("worked-example", 2): "worked-example-n2.smt2",
            ("distributive", 1): "distributive-n1.smt2"}


def compile_workload(seed: int, small: bool) -> Workload:
    """Sentence compilation to SMT-LIB at n = 1..4; no lattice arithmetic.
    The inputs are fixed; the seed only orders the jobs."""
    eqs = formulas.named_equations()
    sources = {name: sentences.format_sentence(sentences.universal_closure(eqs[name]))
               for name in _SENTENCES}
    sources["worked-example"] = WORKED.read_text()
    parsed = {name: sentences.parse_sentence(text) for name, text in sources.items()}
    jobs = []
    meta = {}
    for name, text in sources.items():
        for n in ((1, 2) if small else (1, 2, 3, 4)):
            job = _compile_job(f"compile {name} n={n}", text, n)
            meta[job.label] = (name, n)
            jobs.append(job)
    Random(seed).shuffle(jobs)

    def validate(outputs: list[Output]) -> list[tuple[str, str]]:
        errors = []
        for job, out in zip(jobs, outputs):
            try:
                smtlib.check_solver_text(out.text)
            except smtlib.SmtError as exc:
                errors.append((job.label, f"invalid solver text: {exc}"))
        return errors

    def oracle(outputs: list[Output]) -> list[tuple[str, str]]:
        errors = []
        for job, out in zip(jobs, outputs):
            golden = _GOLDENS.get(meta[job.label])
            if golden and out.text != (GOLDEN / golden).read_text():
                errors.append((job.label, f"differs from golden {golden}"))
        domain = checker.coordinate_family(2, 1)
        for name, s in parsed.items():
            if compiler.eval_flat(compiler.flatten(s), domain, 2) != sentences.eval_sentence(s, domain, 2):
                errors += [(job.label, "flat and direct evaluation disagree")
                           for job in jobs if meta[job.label][0] == name]
        return errors

    return Workload(
        jobs, oracle,
        validate=validate,
        tail_percentile=97,
        exercised=(
            "sentences.parse.self_s", "compiler.flatten.self_s", "compiler.encode.self_s",
            "compiler.to_real.self_s", "compiler.emit.self_s", "compiler.binders",
            "compiler.blocks", "compiler.equations", "smtlib.check.self_s", "smtlib.tokens",
        ),
    )


BUILDERS = {
    "plane-family": plane_family,
    "random-narrow": random_narrow,
    "random-wide": random_wide,
    "compile": compile_workload,
}
