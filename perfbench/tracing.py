"""Spans around the public entry points of each qlattice layer.

The program carries no instrumentation of its own.  :class:`Tracer`
replaces each hooked function, in every ``qlattice`` module that binds it,
with a wrapper that records a span (name, start, end, parent) in memory;
:meth:`Tracer.uninstall` puts the originals back.  Self time is derived
afterwards: a span's duration minus the durations of its direct children.

A few hooks also count work where it happens: rows fed to elimination and
the bit length of its output, repeated operand pairs of meet and join,
complements served from the subspace's own cache, and solver-text tokens.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

_LAYER_SPANS = (
    "linalg.reduce", "linalg.kernel", "subspaces.meet", "subspaces.join",
    "subspaces.complement", "subspaces.sample", "terms.eval", "formulas.catalog",
    "checker.certify", "fixtures.format",
)
_SUITES = ("lemma2", "lemma3", "laws", "meet-agreement", "gamma")
_STRATEGIES = ("stored-witnesses", "coordinate-family", "random")
_LAWS_AMBIENTS = range(2, 9)
_STAGES = ("flatten", "encode", "to_real", "emit")

# The per-layer metrics, in print order, with their units.
PER_LAYER = (
    [(f"{s}.calls", "count") for s in _LAYER_SPANS]
    + [(f"{s}.self_s", "s") for s in _LAYER_SPANS]
    + [
        ("linalg.reduce.rows_in", "count"),
        ("linalg.reduce.out_bits_max", "bits"),
        ("subspaces.repeat_share", "share"),
        ("subspaces.complement.cached_share", "share"),
    ]
    + [(f"checker.strategy.{s}.assignments", "count") for s in _STRATEGIES]
    + [(f"checker.strategy.{s}.self_s", "s") for s in _STRATEGIES]
    + [(f"checker.suite.{s}.s", "s") for s in _SUITES]
    + [(f"checker.laws.n{n}.s", "s") for n in _LAWS_AMBIENTS]
    + [("sentences.parse.self_s", "s")]
    + [(f"compiler.{stage}.self_s", "s") for stage in _STAGES]
    + [
        ("compiler.binders", "count"),
        ("compiler.blocks", "count"),
        ("compiler.equations", "count"),
        ("smtlib.check.self_s", "s"),
        ("smtlib.tokens", "count"),
        ("src.lines", "count"),
        ("trace.overhead", "ratio"),
    ]
)

# (span name, module, attribute, kind).  An attribute "Class.method" is
# patched on the class; any other is replaced at every binding site.
HOOKS = (
    ("linalg.reduce", "qlattice.linalg", "_reduce_int_rows", "reduce"),
    ("linalg.kernel", "qlattice.linalg", "_kernel_int", "plain"),
    ("subspaces.meet", "qlattice.subspaces", "meet", "pair"),
    ("subspaces.join", "qlattice.subspaces", "join", "pair"),
    ("subspaces.complement", "qlattice.subspaces", "complement", "complement"),
    ("subspaces.sample", "qlattice.subspaces", "_random_from", "plain"),
    ("terms.eval", "qlattice.terms", "Evaluator.eval", "recursive"),
    ("formulas.catalog", "qlattice.formulas", "counterexample_catalog", "plain"),
    ("fixtures.format", "qlattice.fixtures", "format_assignment_fixture", "plain"),
    ("checker.certify", "qlattice.checker", "_certify", "plain"),
    ("checker.suite.lemma2", "qlattice.checker", "run_lemma2_suite", "plain"),
    ("checker.suite.lemma3", "qlattice.checker", "run_lemma3_suite", "plain"),
    ("checker.suite.laws", "qlattice.checker", "run_laws_suite", "laws"),
    ("checker.suite.meet-agreement", "qlattice.checker", "run_meet_agreement_suite", "plain"),
    ("checker.suite.gamma", "qlattice.checker", "run_gamma_suite", "plain"),
    ("checker.strategy.stored-witnesses", "qlattice.checker", "StoredWitnesses.assignments", "generator"),
    ("checker.strategy.coordinate-family", "qlattice.checker", "CoordinateFamilyStrategy.assignments", "generator"),
    ("checker.strategy.random", "qlattice.checker", "RandomSampling.assignments", "generator"),
    ("sentences.parse", "qlattice.sentences", "parse_sentence", "plain"),
    ("compiler.flatten", "qlattice.compiler", "flatten", "plain"),
    ("compiler.encode", "qlattice.compiler", "encode_kernels", "plain"),
    ("compiler.to_real", "qlattice.compiler", "complex_to_real", "recursive"),
    ("compiler.emit", "qlattice.compiler", "emit_solver_text", "plain"),
    ("smtlib.check", "qlattice.smtlib", "check_solver_text", "plain"),
    ("smtlib.tokenize", "qlattice.smtlib", "tokenize_sexpr", "tokens"),
)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # One entry per span, in start order, so a parent precedes its children.
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts: dict[str, float] = defaultdict(int)
        self._pairs_seen: set = set()
        self._restore: list = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name: str, f, *args, **kwargs):
        """Run ``f(*args, **kwargs)`` inside a span called `name`."""
        return self._span(self._id(name), f, args, kwargs)

    def _span(self, nid: int, f, args, kwargs):
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        try:
            return f(*args, **kwargs)
        finally:
            self.end[idx] = perf_counter_ns()
            self._stack.pop()

    # --- installing the hooks ---------------------------------------------

    def install(self) -> None:
        for name, module, attr, kind in HOOKS:
            mod = sys.modules.get(module)
            if mod is None:
                raise RuntimeError(f"trace hook {name}: module {module} is not loaded")
            owner, _, method = attr.rpartition(".")
            target = getattr(mod, owner) if owner else mod
            orig = getattr(target, method, None)
            if orig is None:
                raise RuntimeError(f"trace hook {name}: {module}.{attr} not found")
            wrapper = getattr(self, "_wrap_" + kind)(self._id(name), orig)
            if owner:
                self._patch(target, method, wrapper)
                continue
            sites = 0
            for mname, m in list(sys.modules.items()):
                if mname != "qlattice" and not mname.startswith("qlattice."):
                    continue
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, key, wrapper)
                        sites += 1
            if not sites:
                raise RuntimeError(f"trace hook {name}: no binding site patched")

    def _patch(self, target, key: str, wrapper) -> None:
        self._restore.append((target, key, getattr(target, key)))
        setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._restore):
            setattr(target, key, orig)
        self._restore.clear()

    def _wrap_plain(self, nid: int, f):
        span = self._span

        def wrapper(*args, **kwargs):
            return span(nid, f, args, kwargs)

        return wrapper

    def _wrap_recursive(self, nid: int, f):
        # Only the outermost call is a span; inner calls are part of it.
        span = self._span
        depth = [0]

        def run(*args, **kwargs):
            depth[0] += 1
            try:
                return f(*args, **kwargs)
            finally:
                depth[0] -= 1

        def wrapper(*args, **kwargs):
            if depth[0]:
                return f(*args, **kwargs)
            return span(nid, run, args, kwargs)

        return wrapper

    def _wrap_laws(self, nid: int, f):
        # A call on one ambient also gets a child span checker.laws.n<k>.
        span = self._span

        def wrapper(*args, **kwargs):
            ambients = kwargs.get("ambients")
            if ambients is not None and len(ambients) == 1:
                sub = self._id(f"checker.laws.n{ambients[0]}")
                return span(nid, span, (sub, f, args, kwargs), {})
            return span(nid, f, args, kwargs)

        return wrapper

    def _wrap_pair(self, nid: int, f):
        span = self._span
        seen = self._pairs_seen
        counts = self.counts

        def wrapper(p, q):
            key = (nid, hash(p), hash(q))
            counts["subspaces.pair_calls"] += 1
            if key in seen:
                counts["subspaces.pair_repeats"] += 1
            else:
                seen.add(key)
            return span(nid, f, (p, q), {})

        return wrapper

    def _wrap_complement(self, nid: int, f):
        span = self._span
        counts = self.counts

        def wrapper(p):
            # Peeks at the subspace's own cache slot; absent slot reads as a miss.
            if getattr(p, "_complement", None) is not None:
                counts["subspaces.complement.cached"] += 1
            return span(nid, f, (p,), {})

        return wrapper

    def _wrap_reduce(self, nid: int, f):
        span = self._span
        counts = self.counts

        def wrapper(rows, *args, **kwargs):
            rows = list(rows)
            counts["linalg.reduce.rows_in"] += len(rows)
            red, pivots = span(nid, f, (rows, *args), kwargs)
            bits = max((abs(x).bit_length() for r in red for x in r), default=0)
            if bits > counts["linalg.reduce.out_bits_max"]:
                counts["linalg.reduce.out_bits_max"] = bits
            return red, pivots

        return wrapper

    def _wrap_tokens(self, nid: int, f):
        span = self._span
        counts = self.counts

        def wrapper(*args, **kwargs):
            tokens = span(nid, f, args, kwargs)
            counts["smtlib.tokens"] += len(tokens)
            return tokens

        return wrapper

    def _wrap_generator(self, nid: int, f):
        # One span per assignment produced, so generation cost is separated
        # from the evaluation the caller does between two draws.
        span = self._span
        counts = self.counts
        count_key = self.names[nid] + ".assignments"

        def wrapper(*args, **kwargs):
            gen = f(*args, **kwargs)
            try:
                while True:
                    try:
                        item = span(nid, next, (gen,), {})
                    except StopIteration:
                        return
                    counts[count_key] += 1
                    yield item
            finally:
                gen.close()

        return wrapper

    # --- results ------------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, dict[str, float]]]:
        """Per root span name: for each span name, calls, total and self seconds."""
        n = len(self.start)
        root = array("i", bytes(4 * n))
        child_ns = array("q", bytes(8 * n))
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                root[i] = root[p]
                child_ns[p] += end[i] - start[i]
            else:
                root[i] = i
        out: dict = {}
        for i in range(n):
            dur = end[i] - start[i]
            per = out.setdefault(self.names[name_of[root[i]]], {})
            rec = per.get(self.names[name_of[i]])
            if rec is None:
                rec = per[self.names[name_of[i]]] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            rec["calls"] += 1
            rec["total_s"] += dur / 1e9
            rec["self_s"] += (dur - child_ns[i]) / 1e9
        return out

    def write(self, path: Path) -> None:
        """Spans as gzip'd JSON lines: a header, then [name, parent, start_ns, end_ns]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names, "fields": ["name", "parent", "start_ns", "end_ns"]}) + "\n")
            for i in range(len(self.start)):
                fh.write(f"[{self.name_of[i]},{self.parent[i]},{self.start[i]},{self.end[i]}]\n")


def layer_metrics(tracer: Tracer, outputs, src: Path) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric except ``trace.overhead``.

    Spans under the ``bench.jobs`` root give the job-time layers; the
    SMT-LIB reader is read from the ``bench.validate`` root.  Compiler sizes
    come from the jobs' own ``stats``.
    """
    from qlattice.compiler import CompileStats

    agg = tracer.aggregate()
    jobs = agg.get("bench.jobs", {})
    validate = agg.get("bench.validate", {})
    counts = tracer.counts
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def span(name: str, where=jobs) -> dict:
        return where.get(name, zero)

    m: dict[str, float] = {}
    for s in _LAYER_SPANS:
        m[f"{s}.calls"] = span(s)["calls"]
        m[f"{s}.self_s"] = span(s)["self_s"]
    m["linalg.reduce.rows_in"] = counts["linalg.reduce.rows_in"]
    m["linalg.reduce.out_bits_max"] = counts["linalg.reduce.out_bits_max"]
    pair_calls = counts["subspaces.pair_calls"]
    m["subspaces.repeat_share"] = counts["subspaces.pair_repeats"] / pair_calls if pair_calls else 0.0
    complements = span("subspaces.complement")["calls"]
    m["subspaces.complement.cached_share"] = (
        counts["subspaces.complement.cached"] / complements if complements else 0.0)
    for s in _STRATEGIES:
        m[f"checker.strategy.{s}.assignments"] = counts[f"checker.strategy.{s}.assignments"]
        m[f"checker.strategy.{s}.self_s"] = span(f"checker.strategy.{s}")["self_s"]
    for s in _SUITES:
        m[f"checker.suite.{s}.s"] = span(f"checker.suite.{s}")["total_s"]
    for n in _LAWS_AMBIENTS:
        m[f"checker.laws.n{n}.s"] = span(f"checker.laws.n{n}")["total_s"]
    m["sentences.parse.self_s"] = span("sentences.parse")["self_s"]
    for stage in _STAGES:
        m[f"compiler.{stage}.self_s"] = span(f"compiler.{stage}")["self_s"]
    stats = [o.value for o in outputs if isinstance(o.value, CompileStats)]
    m["compiler.binders"] = sum(st.top_level_reals for st in stats)
    m["compiler.blocks"] = sum(st.quantifier_blocks for st in stats)
    m["compiler.equations"] = sum(st.equations for st in stats)
    m["smtlib.check.self_s"] = span("smtlib.check", validate)["self_s"]
    m["smtlib.tokens"] = counts["smtlib.tokens"]
    m["src.lines"] = sum(len(p.read_text().splitlines()) for p in src.rglob("*.py"))
    return m
