"""Equation checking over subspace assignments.

An equation either has a falsifying assignment or it does not, and only
the first half of that alternative is observable by evaluation: a
counterexample is a certificate, while surviving every sample proves
nothing.  ``check`` therefore runs assignment-generating strategies in a
fixed order (stored witnesses, then a structured coordinate family, then
random sampling) and stops at the first disagreement; a clean run is
reported as ``holds-on-samples``, never as validity.

Counterexamples are self-certifying: before one is returned it is
re-evaluated with the alternative complement-based meet, so a bug in
either meet route surfaces as a loud :class:`CheckError` instead of a
bogus verdict.

The ``run_*_suite`` functions package the recurring experiments (the
dimension bound on alpha, the line classification, the hierarchy
separation, the always-true laws, route agreement, counterexample
transport, and the distinct-line family) into pass/fail records with
inline certificates; :data:`SUITES` names them for the CLI and
:func:`run_all`.

``check`` and every suite run on one sweep, :func:`_sweep`.  Its unit of
work is a row: a plain tuple of subspaces of the sweep's one ambient, the
values of the variable names in order (``eq.free_vars`` order for a
strategy, so a custom strategy's ``assignments(eq, ambient)`` yields such
tuples).  The sweep draws rows in chunks of 1, 2, 4, ... up to a cap,
evaluates the chunk's terms slot by slot as columns
(:class:`~qlattice.terms.Evaluator`), then runs a probe that returns None
or the detail of a failure on each row in order.  The first failure ends
the sweep, and only that row becomes an :class:`~qlattice.terms.Assignment`:
a suite record's ``samples`` counts the rows evaluated up to and including
the failing one, whose fixture is the certificate.  A clean sweep gives a
pass record over every row, worded from what the probe tallied.
"""

from __future__ import annotations

import itertools
from functools import cache
from random import Random
from typing import Iterable, Iterator, NamedTuple, Sequence

from .fixtures import format_assignment_fixture
from .formulas import (
    alpha,
    counterexample_catalog,
    gamma_distinct_lines,
    named_equations,
    separation_equation,
    separation_witness,
    transport,
)
from .subspaces import (
    AmbientMismatch,
    Subspace,
    _below,
    _random_from,
    complement,
    join,
    meet,
    meet_via_demorgan,
)
from .terms import (
    Assignment,
    Equation,
    Evaluator,
    Program,
    Term,
    Var,
    evaluate,
    holds,
    substitute,
)


class CheckError(RuntimeError):
    """A strategy or certification step went wrong (not a mere refutation)."""


_MAX_EXHAUSTIVE_AMBIENT = 4
# Non-coordinate lines the coordinate-family strategy adds from ambient 2 on.
_EXTRA_LINES = 4

# Coefficients for non-coordinate lines e_i + c*e_j, nicest first.  The
# order is the public contract: ambient 2 with two extras must yield
# e1+e2 then e1+i*e2.
_EXTRA_COEFFS = (
    1, (0, 1), -1, 2, (0, -1), 3, (1, 1), (1, -1),
    -2, (2, 1), (0, 2), (-1, 1), -3, (3, 1), (0, 3), (-1, -1),
)


# Kept per (ambient, extra_lines): at most 4 ambients, each with at most
# 6 * 16 extra lines, so the cache stays small.
@cache
def coordinate_family(ambient: int, extra_lines: int = 0) -> tuple[Subspace, ...]:
    """Deterministic exhaustive family: every coordinate subspace (one per
    subset of basis vectors, so 0 and 1 included) plus ``extra_lines``
    non-coordinate lines e_i + c*e_j.

    Extras are ordered coefficient-major: all pairs i < j with c = 1,
    then with c = i, and so on through :data:`_EXTRA_COEFFS`.  Each
    family is built once per arguments, and every call returns that one
    tuple.
    """
    if ambient < 1:
        raise ValueError("ambient dimension must be at least 1")
    if ambient > _MAX_EXHAUSTIVE_AMBIENT:
        raise ValueError(
            f"ambient {ambient} too large for exhaustive enumeration "
            f"(2^{ambient} coordinate subspaces)"
        )
    if extra_lines < 0:
        raise ValueError("extra_lines must be nonnegative")
    family = []
    for mask in range(2 ** ambient):
        rows = [
            [1 if c == i else 0 for c in range(ambient)]
            for i in range(ambient)
            if mask >> i & 1
        ]
        family.append(Subspace.from_spanning(ambient, rows))
    pairs = list(itertools.combinations(range(ambient), 2))
    produced = 0
    for coeff in _EXTRA_COEFFS:
        for i, j in pairs:
            if produced == extra_lines:
                return tuple(family)
            row = [0] * ambient
            row[i] = 1
            row[j] = coeff
            family.append(Subspace.line(ambient, row))
            produced += 1
    if produced < extra_lines:
        raise ValueError(
            f"cannot construct {extra_lines} distinct extra lines "
            f"in ambient {ambient}"
        )
    return tuple(family)


class StoredWitnesses:
    """Stored counterexample assignments whose equation matches exactly,
    each read into a row: a tuple of its values in ``eq.free_vars`` order."""

    name = "stored-witnesses"

    def assignments(self, eq: Equation, ambient: int) -> Iterator[tuple]:
        names = eq.free_vars
        for record in counterexample_catalog():
            if record.equation == eq and record.assignment.ambient == ambient:
                yield tuple(map(record.assignment.__getitem__, names))


class CoordinateFamilyStrategy:
    """All rows over :func:`coordinate_family` with :data:`_EXTRA_LINES`
    extra lines (none in ambient 1), sampled above a cap; a row is a tuple
    of family members in ``eq.free_vars`` order.

    Exhaustive when family_size ** nvars <= cap, in product order;
    otherwise ``cap`` seeded uniform rows, so the strategy stays
    deterministic and bounded even for equations with many variables.
    """

    name = "coordinate-family"

    def __init__(self, cap: int = 4096, seed: int = 0) -> None:
        self.cap = cap
        self.seed = seed

    def assignments(self, eq: Equation, ambient: int) -> Iterator[tuple]:
        if ambient > _MAX_EXHAUSTIVE_AMBIENT:
            return
        # Ambient 1 has no pairs i < j, hence no non-coordinate lines.
        family = coordinate_family(ambient, _EXTRA_LINES if ambient >= 2 else 0)
        names = eq.free_vars
        total = len(family) ** len(names)
        if total <= self.cap:
            yield from itertools.product(family, repeat=len(names))
        else:
            # Each index is drawn as _below(rng, size) draws it, inline: the
            # words and values of rng.choice(family).
            getrandbits = Random(f"coordinate-family:{self.seed}:{ambient}").getrandbits
            size = len(family)
            k = size.bit_length()
            for _ in range(self.cap):
                row = []
                for _ in names:
                    r = getrandbits(k)
                    while r >= size:
                        r = getrandbits(k)
                    row.append(family[r])
                yield tuple(row)


def _random_assignments(
    seed: str, ambient: int, names: Sequence[str], count: int, coeff_bound: int
) -> Iterator[tuple]:
    """`count` rows of `names`, each value a random subspace of uniform dimension."""
    rng = Random(seed)
    for _ in range(count):
        yield tuple([
            _random_from(rng, ambient, _below(rng, ambient + 1), coeff_bound)
            for _ in names
        ])


class RandomSampling:
    """Seeded random rows, tuples of subspaces in ``eq.free_vars`` order;
    dimensions drawn uniformly in 0..ambient."""

    name = "random"

    def __init__(self, count: int = 10_000, seed: int = 0, coeff_bound: int = 3) -> None:
        self.count = count
        self.seed = seed
        self.coeff_bound = coeff_bound

    def assignments(self, eq: Equation, ambient: int) -> Iterator[tuple]:
        yield from _random_assignments(
            f"random:{self.seed}:{ambient}", ambient, eq.free_vars,
            self.count, self.coeff_bound,
        )


def default_strategies(
    samples: int = 10_000,
    seed: int = 0,
    coeff_bound: int = 3,
) -> list:
    """Cheapest certain refutations first, randomness last."""
    return [
        StoredWitnesses(),
        CoordinateFamilyStrategy(seed=seed),
        RandomSampling(count=samples, seed=seed, coeff_bound=coeff_bound),
    ]


class CounterexampleRecord(NamedTuple):
    """A falsifying assignment together with both evaluated sides."""

    assignment: Assignment
    lhs_value: Subspace
    rhs_value: Subspace

    def fixture(self) -> str:
        return format_assignment_fixture(self.assignment)


class Verdict(NamedTuple):
    """The outcome of :func:`check`: ``status`` is ``"counterexample"`` with
    the certified `counterexample`, or ``"holds-on-samples"`` with None."""

    status: str  # "counterexample" | "holds-on-samples"
    samples_tried: int
    strategy_log: tuple[str, ...]
    counterexample: CounterexampleRecord | None

    def summary(self) -> str:
        if self.status == "counterexample":
            cx = self.counterexample
            return (
                f"counterexample after {self.samples_tried} assignments "
                f"(lhs dim {cx.lhs_value.dim}, rhs dim {cx.rhs_value.dim})"
            )
        return (
            f"holds on {self.samples_tried} sampled assignments "
            "(sampling cannot certify validity)"
        )


def _certify(eq: Equation, a: Assignment) -> None:
    """Re-evaluate a refutation through the complement-based meet."""
    if holds(eq, a, meet_op=meet_via_demorgan):
        raise CheckError(
            "counterexample failed certification: the two meet routes disagree"
        )


# The live columns of one chunk hold at most this many matrix entries:
# chunk size x program slots x ambient**2 (see _sweep).
_CHUNK_ENTRIES = 2 ** 14


def _sweep(
    rows: Iterable[tuple],
    names: Sequence[str],
    ambient: int,
    roots: Sequence[Term],
    probe,
    routes: Sequence = (None,),
) -> tuple[int, Assignment | None, object]:
    """Run `probe` on each row in order until it returns a failure.

    A row is a tuple of subspaces of `ambient`, the values of `names` in
    that order.  Rows are drawn in chunks of 1, 2, 4, ... rows.  Each
    chunk's `roots` are evaluated as columns by one :class:`Evaluator` per
    meet route in `routes` (None is the default meet), over one shared
    program; then ``probe(row, *values)`` runs on each row of the chunk,
    with the values of the roots under each route in turn, and returns
    None or the detail of a failure.

    Returns the number of rows probed and, at the first failure, the
    failing row as an :class:`Assignment` and its detail (else None and
    None).  A failure at position k has drawn at most 2k - 1 rows, since
    no chunk is longer than all chunks before it plus one.  A chunk is at
    most ``_CHUNK_ENTRIES // (program slots * ambient**2)`` long, and at
    least 1, which bounds the matrix entries its columns hold.

    Raises:
        AmbientMismatch: if `ambient` is below 1, before any row is drawn.
        CheckError: if an item of a chunk is not a tuple of one value per
            name; the message is worded to follow the name of the rows'
            source, as in ``strategy 'x' produced ...``.
        UnboundVariableError: if a root has a variable not in `names`.
    """
    if ambient < 1:
        raise AmbientMismatch(f"ambient dimension must be at least 1, got {ambient}")
    program = Program(roots)
    limit = max(1, _CHUNK_ENTRIES // (max(1, len(program.code)) * ambient * ambient))
    width = len(names)
    it = iter(rows)
    size = 1
    done = 0
    while chunk := list(itertools.islice(it, size)):
        # the shape of every row, checked once per chunk by C-level passes
        if not all(map(isinstance, chunk, itertools.repeat(tuple))):
            raise CheckError("produced an assignment that is not a tuple of values")
        widths = set(map(len, chunk))
        if widths != {width}:
            short = min(widths)
            if short < width:
                raise CheckError(f"produced an assignment missing variable {names[short]!r}")
            raise CheckError(
                f"produced an assignment of {max(widths)} values for {width} variables"
            )
        columns = []
        for route in routes:
            ev = Evaluator(chunk, names, ambient, route, program)
            columns += [ev.eval(t) for t in roots]
        for row, values in zip(chunk, zip(*columns) if columns else itertools.repeat(())):
            done += 1
            detail = probe(row, *values)
            if detail is not None:
                return done, Assignment(ambient, dict(zip(names, row))), detail
        size = min(2 * size, limit)
    return done, None, None


def _differ(row: tuple, lhs: Subspace, rhs: Subspace) -> tuple[Subspace, Subspace] | None:
    """The two sides when they differ."""
    return None if lhs == rhs else (lhs, rhs)


def check(eq: Equation, ambient: int, strategies: Sequence | None = None) -> Verdict:
    """Search the strategies in order for a falsifying assignment.

    A strategy's ``assignments(eq, ambient)`` yields rows: tuples of
    subspaces of `ambient`, one per name of ``eq.free_vars``, in that
    order.  Each strategy's rows go through :func:`_sweep`, so a
    counterexample at its k-th row has drawn at most 2k - 1 of them, and
    exactly k when one row's values alone reach the sweep's memory cap.
    Stops at the first counterexample (certified before it is returned);
    otherwise reports how many rows were survived.

    Raises:
        CheckError: naming the strategy, if it yields an item that is not
            a tuple of one value per free variable, or if certification
            fails.
    """
    if ambient < 1:
        raise ValueError("ambient dimension must be at least 1")
    if strategies is None:
        strategies = default_strategies()
    names = eq.free_vars
    samples_tried = 0
    log: list[str] = []
    for strategy in strategies:
        try:
            n, a, sides = _sweep(strategy.assignments(eq, ambient), names, ambient, eq, _differ)
        except CheckError as exc:
            raise CheckError(f"strategy {strategy.name!r} {exc}") from None
        samples_tried += n
        if a is not None:
            _certify(eq, a)
            log.append(f"{strategy.name}: counterexample at assignment {n}")
            return Verdict(
                "counterexample",
                samples_tried,
                tuple(log),
                CounterexampleRecord(a, *sides),
            )
        log.append(f"{strategy.name}: {n} assignments, no counterexample")
    return Verdict("holds-on-samples", samples_tried, tuple(log), None)


# ---------------------------------------------------------------------------
# Suites


class SuiteRecord(NamedTuple):
    suite: str
    ambient: int | None
    samples: int
    status: str  # "pass" | "fail"
    detail: str
    certificate: str | None = None

    def line(self) -> str:
        tag = "PASS" if self.status == "pass" else "FAIL"
        where = f" ambient={self.ambient}" if self.ambient is not None else ""
        return f"[{tag}] {self.suite}{where} samples={self.samples}: {self.detail}"


class SuiteReport(NamedTuple):
    records: tuple[SuiteRecord, ...]

    @property
    def passed(self) -> bool:
        return all(r.status == "pass" for r in self.records)

    def lines(self) -> list[str]:
        out = [r.line() for r in self.records]
        verdict = "all suites passed" if self.passed else "SUITE FAILURES"
        out.append(f"{verdict} ({len(self.records)} records)")
        return out

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "records": [r._asdict() for r in self.records],
        }

    def __add__(self, other: "SuiteReport") -> "SuiteReport":
        return SuiteReport(self.records + other.records)


def _fail(suite: str, ambient: int | None, samples: int, detail: str,
          a: Assignment) -> SuiteRecord:
    return SuiteRecord(suite, ambient, samples, "fail", detail,
                       format_assignment_fixture(a))


def run_lemma2_suite(
    ambients: Iterable[int] = (2, 3, 4, 5),
    samples: int = 10_000,
    seed: int = 0,
    coeff_bound: int = 3,
) -> SuiteReport:
    """Dimension bound 2*dim(alpha) <= ambient on random triples, plus the
    even-ambient triple that meets the bound exactly."""
    term = alpha()
    names = ("p", "q", "r")
    records = []
    for ambient in ambients:
        max_dim = 0

        def probe(row: tuple, value: Subspace) -> str | None:
            nonlocal max_dim
            d = value.dim
            if 2 * d > ambient:
                return f"bound violated: dim {d} with ambient {ambient}"
            max_dim = max(max_dim, d)
            return None

        n, a, detail = _sweep(_random_assignments(
            f"lemma2:{seed}:{ambient}", ambient, names, samples, coeff_bound
        ), names, ambient, (term,), probe)
        records.append(_fail("lemma2", ambient, n, detail, a) if a else SuiteRecord(
            "lemma2", ambient, n, "pass",
            f"2*dim(alpha) <= {ambient} held; max dim seen {max_dim}",
        ))
    # Tightness: the full-space half split in ambient 4 reaches dim 2.
    w = separation_witness(1)
    tight = Assignment(4, {"p": w["p1"], "q": w["q1"], "r": w["r1"]})
    d = evaluate(term, tight).dim
    if d == 2:
        records.append(SuiteRecord(
            "lemma2-tight", 4, 1, "pass",
            "half-split triple reaches dim 2 = ambient/2",
        ))
    else:
        records.append(_fail(
            "lemma2-tight", 4, 1, f"expected dim 2, got {d}", tight,
        ))
    return SuiteReport(tuple(records))


def run_lemma3_suite() -> SuiteReport:
    """Classification in the plane: alpha is nonzero exactly on triples of
    three distinct lines, where it equals the complement of p."""
    nonzero = 0

    def probe(row: tuple, value: Subspace) -> str | None:
        nonlocal nonzero
        p, q, r = row
        distinct_lines = (
            p.dim == 1 and q.dim == 1 and r.dim == 1
            and p != q and q != r and p != r
        )
        if value.is_zero() == distinct_lines:
            return (
                f"misclassified triple: value dim {value.dim}, "
                f"distinct-lines={distinct_lines}"
            )
        if distinct_lines:
            nonzero += 1
            if value != complement(p):
                return "nonzero value differs from complement of p"
        return None

    names = ("p", "q", "r")
    triples = itertools.product(coordinate_family(2, 5), repeat=len(names))
    total, a, detail = _sweep(triples, names, 2, (alpha(),), probe)
    return SuiteReport((_fail("lemma3", 2, total, detail, a) if a else SuiteRecord(
        "lemma3", 2, total, "pass",
        f"{nonzero} of {total} triples nonzero, all equal to ~p; "
        "the rest vanish",
    ),))


def run_separation_suite(
    max_i: int = 2,
    samples: int = 1000,
    seed: int = 0,
    coeff_bound: int = 3,
) -> SuiteReport:
    """Level i equation holds in every ambient 2^k with k <= i (sampled)
    and is falsified by the constructed witness in ambient 2^(i+1)."""
    records = []
    for i in range(max_i + 1):
        eq = separation_equation(i)
        for k in range(i + 1):
            ambient = 2 ** k
            verdict = check(eq, ambient, default_strategies(samples, seed, coeff_bound))
            if verdict.status == "holds-on-samples":
                records.append(SuiteRecord(
                    f"separation-{i}-holds", ambient, verdict.samples_tried,
                    "pass", verdict.summary(),
                ))
            else:
                records.append(SuiteRecord(
                    f"separation-{i}-holds", ambient, verdict.samples_tried,
                    "fail", "unexpected " + verdict.summary(),
                    verdict.counterexample.fixture(),
                ))
        witness = separation_witness(i)
        value = evaluate(eq.lhs, witness)
        if value.dim == 1:
            records.append(SuiteRecord(
                f"separation-{i}-witness", 2 ** (i + 1), 1, "pass",
                "witness falsifies with value dimension exactly 1",
                format_assignment_fixture(witness),
            ))
        else:
            records.append(_fail(
                f"separation-{i}-witness", 2 ** (i + 1), 1,
                f"witness value has dimension {value.dim}, expected 1", witness,
            ))
    return SuiteReport(tuple(records))


_LAW_NAMES = (
    "oml",
    "modular",
    "demorgan-meet",
    "demorgan-join",
    "involution",
    "complement-meet",
)


def run_laws_suite(
    ambients: Iterable[int] = (2, 3, 4, 5),
    samples: int = 10_000,
    seed: int = 0,
    coeff_bound: int = 3,
) -> SuiteReport:
    """Always-true laws on shared random samples, the equality
    characterizations in both directions, and the dimension formula."""
    catalogue = named_equations()
    laws = [(name, catalogue[name]) for name in _LAW_NAMES]
    chars = (catalogue["eq-char"], catalogue["eq-char-dual"])
    # Both sides of each law and characterization under (p, q, r), then of
    # each characterization with q := p: its value where p = q.
    roots = [t for _, eq in laws for t in eq] + [t for eq in chars for t in eq]
    roots += [substitute(t, {"q": Var("p")}) for eq in chars for t in eq]
    names = ("p", "q", "r")
    records = []
    for ambient in ambients:
        distinct_pairs = 0

        def probe(row: tuple, *values: Subspace) -> str | None:
            nonlocal distinct_pairs
            sides = iter(values)
            for name, _ in laws:
                if next(sides) != next(sides):
                    return f"{name} violated"
            # Equality characterizations: both formulas detect p = q.
            as_given = [next(sides) == next(sides) for _ in chars]
            if not all(next(sides) == next(sides) for _ in chars):
                return "eq-char-equal violated"
            p, q, _ = row
            if p != q:
                distinct_pairs += 1
                if any(as_given):
                    return "eq-char-distinct violated"
            if join(p, q).dim + meet(p, q).dim != p.dim + q.dim:
                return "dimension-formula violated"
            return None

        n, a, detail = _sweep(_random_assignments(
            f"laws:{seed}:{ambient}", ambient, names, samples, coeff_bound
        ), names, ambient, roots, probe)
        records.append(_fail("laws", ambient, n, detail, a) if a else SuiteRecord(
            "laws", ambient, n, "pass",
            f"{len(laws)} laws, both equality characterizations "
            f"({distinct_pairs} distinct pairs), and the dimension "
            "formula held",
        ))
    return SuiteReport(tuple(records))


def run_meet_agreement_suite(seed: int = 0) -> SuiteReport:
    """The kernel-based meet and the complement-based meet agree, both on
    raw pairs and through whole-equation evaluation, over the ambient-3
    coordinate family with four extra lines."""
    suite = "meet-agreement"
    ambient = 3

    def pair_agrees(row: tuple) -> str | None:
        p, q = row
        if meet(p, q) != meet_via_demorgan(p, q):
            return f"routes disagree on pair of dims {p.dim}, {q.dim}"
        return None

    names = ("p", "q")
    pairs = itertools.product(coordinate_family(ambient, _EXTRA_LINES), repeat=len(names))
    paired, a, detail = _sweep(pairs, names, ambient, (), pair_agrees)
    done = paired
    strategy = CoordinateFamilyStrategy(cap=256, seed=seed)
    for name, eq in named_equations().items():
        if a is not None:
            break

        def equation_agrees(_: tuple, lhs, rhs, lhs_demorgan, rhs_demorgan) -> str | None:
            if (lhs == rhs) != (lhs_demorgan == rhs_demorgan):
                return f"routes disagree evaluating {name}"
            return None

        n, a, detail = _sweep(strategy.assignments(eq, ambient), eq.free_vars, ambient,
                              eq, equation_agrees, (None, meet_via_demorgan))
        done += n
    return SuiteReport((_fail(suite, ambient, done, detail, a) if a else SuiteRecord(
        suite, ambient, done, "pass",
        f"{paired} pairs and {done - paired} equation evaluations agree "
        "across both meet routes",
    ),))


def run_transport_suite() -> SuiteReport:
    """Stored counterexamples still falsify after moving to a space of one
    or two more dimensions."""
    records = []
    for record in counterexample_catalog():
        for extra in (1, 2):
            moved = transport(record.assignment, extra)
            suite = f"transport-{record.label}"
            if holds(record.equation, moved):
                records.append(_fail(
                    suite, moved.ambient, 1,
                    f"falsification lost after adding {extra} dimensions",
                    moved,
                ))
                continue
            _certify(record.equation, moved)
            records.append(SuiteRecord(
                suite, moved.ambient, 1, "pass",
                f"still falsifies with {extra} extra dimensions",
            ))
    return SuiteReport(tuple(records))


def run_gamma_suite() -> SuiteReport:
    """The four-variable distinct-line detector over a six-line family.

    Any coincidence among the four arguments forces the value to zero
    (distinctness is necessary for a nonzero value).  It is not
    sufficient: the nesting folds r and s against the running value,
    which is the complement of p, so r = ~p or s = ~p also collapses
    everything.  Away from those degeneracies the value is p itself.
    """
    lines = [
        Subspace.line(2, [1, 0]),
        Subspace.line(2, [0, 1]),
        Subspace.line(2, [1, 1]),
        Subspace.line(2, [1, -1]),
        Subspace.line(2, [1, (0, 1)]),
        Subspace.line(2, [1, 2]),
    ]
    nonzero = 0
    coincident = 0

    def probe(row: tuple, value: Subspace) -> str | None:
        nonlocal nonzero, coincident
        p, _, r, s = row
        if len(set(row)) < 4:
            coincident += 1
            if not value.is_zero():
                return f"nonzero value (dim {value.dim}) despite a coincidence"
            return None
        pbar = complement(p)
        expect_nonzero = r != pbar and s != pbar
        if value.is_zero() == expect_nonzero:
            return f"value dim {value.dim}, expected " + (
                "nonzero" if expect_nonzero else "zero"
            )
        if expect_nonzero:
            nonzero += 1
            if value != p:
                return "nonzero value differs from p"
        return None

    names = ("p", "q", "r", "s")
    total, a, detail = _sweep(itertools.product(lines, repeat=len(names)), names, 2,
                              (gamma_distinct_lines(4),), probe)
    return SuiteReport((_fail("gamma", 2, total, detail, a) if a else SuiteRecord(
        "gamma", 2, total, "pass",
        f"zero on all {coincident} coincident tuples; nonzero exactly on "
        f"the {nonzero} distinct tuples avoiding r = ~p and s = ~p, "
        "always equal to p",
    ),))


def _shared(run, *takes):
    """`run` as a call on the shared suite parameters, passing on those it
    takes; a `samples` of None keeps the suite's own default."""
    def call(samples=None, seed=0, coeff_bound=3, max_i=2) -> SuiteReport:
        given = {"samples": samples, "seed": seed, "coeff_bound": coeff_bound, "max_i": max_i}
        return run(**{key: given[key] for key in takes if given[key] is not None})
    return call


# CLI name -> a run of that suite from the shared parameters, in `run_all` order.
SUITES = {
    "lemma2": _shared(run_lemma2_suite, "samples", "seed", "coeff_bound"),
    "lemma3": _shared(run_lemma3_suite),
    "separation": _shared(run_separation_suite, "max_i", "samples", "seed", "coeff_bound"),
    "laws": _shared(run_laws_suite, "samples", "seed", "coeff_bound"),
    "meet-agreement": _shared(run_meet_agreement_suite, "seed"),
    "transport": _shared(run_transport_suite),
    "gamma": _shared(run_gamma_suite),
}


def run_all(
    samples: int | None = None, seed: int = 0, coeff_bound: int = 3, max_i: int = 2
) -> SuiteReport:
    """Every suite of :data:`SUITES`, in order, as one combined report;
    separation takes at most 1,000 samples."""
    report = SuiteReport(())
    for name, run in SUITES.items():
        n = min(samples, 1000) if name == "separation" and samples is not None else samples
        report += run(n, seed, coeff_bound, max_i)
    return report
