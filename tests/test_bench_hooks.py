"""The traced benchmark's hooks still name real qlattice entry points."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import qlattice
import qlattice.smtlib  # a traced module that the package does not import
from qlattice import checker

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def test_every_trace_hook_resolves():
    tracing = _load("tracing")
    for name, module, attr, kind in tracing.HOOKS:
        target = importlib.import_module(module)
        for part in attr.split("."):
            target = getattr(target, part, None)
            assert target is not None, f"{name}: {module}.{attr} not found"
        assert callable(target), name
        assert hasattr(tracing.Tracer, "_wrap_" + kind), name


def test_tracer_patches_every_hook():
    tracing = _load("tracing")
    tracer = tracing.Tracer()
    orig = qlattice.terms.Evaluator.eval
    try:
        tracer.install()  # raises if a hook has no binding site
        assert qlattice.terms.Evaluator.eval is not orig
    finally:
        tracer.uninstall()
    assert qlattice.terms.Evaluator.eval is orig


def test_hooked_suites_accept_the_workload_keywords(monkeypatch):
    # Run every suite job of the benchmark's workloads against recorders,
    # then bind what each call passed to the real suite's signature.
    workloads = _load("workloads")
    hooked = [attr for _, module, attr, _ in _load("tracing").HOOKS
              if module == "qlattice.checker" and attr.startswith("run_")]
    calls = {attr: [] for attr in hooked}
    for attr in hooked:
        def record(*args, _attr=attr, **kwargs):
            assert not args, f"{_attr} called with positional arguments"
            calls[_attr].append(kwargs)
            return checker.SuiteReport(())
        monkeypatch.setattr(checker, attr, record)
    for name in ("plane-family", "random-narrow", "random-wide"):
        for job in workloads.BUILDERS[name](1, True).jobs:
            if job.label.startswith("suite "):
                job.run()
    monkeypatch.undo()
    keywords = {attr: {frozenset(kw) for kw in kw_list} for attr, kw_list in calls.items()}
    assert keywords == {
        "run_lemma2_suite": {frozenset({"ambients", "samples", "seed"})},
        "run_lemma3_suite": {frozenset()},
        "run_laws_suite": {frozenset({"ambients", "samples", "seed"})},
        "run_meet_agreement_suite": {frozenset({"seed"})},
        "run_gamma_suite": {frozenset()},
    }
    for attr, kw_list in calls.items():
        for kwargs in kw_list:
            inspect.signature(getattr(checker, attr)).bind(**kwargs)


def test_every_meet_and_join_slot_calls_the_hooked_function(monkeypatch, empty_memo):
    # Zero and full operands are settled inside subspaces.meet and join,
    # not in Evaluator.eval, and the other operand order of a pair is
    # passed on through a private name, so the tracer still sees one call
    # per slot.
    calls = {"meet": 0, "join": 0}
    for name in calls:
        def counted(p, q, _name=name, _orig=getattr(qlattice.subspaces, name)):
            calls[_name] += 1
            return _orig(p, q)
        monkeypatch.setattr(qlattice.subspaces, name, counted)
    # A batch evaluates slot by slot, so the count is per slot and row;
    # a batch has one ambient, so each ambient's rows take their own evaluator.
    t = qlattice.terms.parse_term("((0 ^ 1) v (1 ^ 1)) ^ ~((1 v 0) ^ (0 v 0)) v (1 ^ ~1)")
    code = qlattice.terms.Program((t,)).code
    batches = {3: [(), ()], 1: [()], 2: [()]}
    values = [v for n, rows in batches.items()
              for v in qlattice.terms.Evaluator(rows, (), n).eval(t)]
    assert [v.ambient for v in values] == [3, 3, 1, 2]
    assert all(v.dim == v.ambient for v in values)
    assert calls == {"meet": 5 * 4, "join": 4 * 4}
    assert calls == {op: len(values) * sum(o == op for o, _, _ in code) for op in calls}
    # Nontrivial operands in both orders, each order first met with the
    # memo empty, so each pair is a miss passed on to the other order.
    calls.update(meet=0, join=0)
    span = qlattice.Subspace.from_spanning
    p, q = span(3, [[1, 1, 0]]), span(3, [[1, 0, 0], [0, 1, 1]])
    assert p._rows > q._rows
    t = qlattice.terms.parse_term("((p ^ q) v (q ^ p)) ^ ((q v p) v (p v q))")
    code = qlattice.terms.Program((t,)).code
    rows = [(p, q), (q, p)]
    values = qlattice.terms.Evaluator(rows, ("p", "q"), 3).eval(t)
    assert [v.dim for v in values] == [0, 0]  # the line is not in the plane
    assert calls == {"meet": 3 * 2, "join": 4 * 2}
    assert calls == {op: len(rows) * sum(o == op for o, _, _ in code) for op in calls}


@pytest.mark.parametrize("ambient", [2, 3, 6])
@pytest.mark.parametrize("strategy", [
    checker.StoredWitnesses(),
    checker.CoordinateFamilyStrategy(),
    checker.CoordinateFamilyStrategy(cap=4),
    checker.RandomSampling(count=3),
], ids=["stored", "family", "family-sampled", "random"])
def test_strategy_assignments_can_be_closed(strategy, ambient):
    # The tracer's generator hook calls close() on whatever a hooked
    # strategy's assignments returns, so each must return an object that
    # has one, on every branch.
    eq = qlattice.terms.parse_equation("p ^ (q v r) = (p ^ q) v (p ^ r)")
    assert callable(getattr(strategy.assignments(eq, ambient), "close", None))
    tracer = _load("tracing").Tracer()
    hooked = tracer._wrap_generator(tracer._id("strategy"), strategy.assignments)
    rows = list(hooked(eq, ambient))
    assert rows == list(strategy.assignments(eq, ambient))


def test_reduce_keeps_its_pair_under_the_tracer(empty_memo):
    # The tracer's reduce hook unpacks ``(rows, pivots)`` from
    # _reduce_int_rows, the one elimination helper that still returns
    # pivots.  Every elimination route of meet, join and complement must
    # reach it through the hook and give the untraced result.  Meet's
    # merge route needs 2s > 3n with neither operand full, so it starts at
    # n = 5.
    sub = qlattice.subspaces
    rs = sub.random_subspace
    cases = []
    for n in (4, 5, 6):
        cases += [
            ("meet", rs(n, n // 2, seed=n), rs(n, n - n // 2 + 1, seed=n + 10)),  # 2s <= 3n
            ("join", rs(n, 1, seed=n + 20), rs(n, 2, seed=n + 30)),  # a merge
            ("complement", rs(n, n - 1, seed=n + 40)),  # 2d > n
            ("complement", rs(n, 1, seed=n + 50)),  # 2d <= n
        ]
        if n > 4:
            cases.append(("meet", rs(n, n - 1, seed=n + 60), rs(n, n - 1, seed=n + 70)))
    memos = (sub.meet, sub.join)

    def run(each=lambda: None):
        for memo in memos:
            memo.cache_clear()
        out = []
        for name, *operands in cases:
            for s in operands:
                s._complement = None
            out.append(getattr(sub, name)(*operands))
            each()
        return out

    untraced = run()
    assert all(not v.is_zero() for v in untraced)
    tracer = _load("tracing").Tracer()
    rows_in = []
    tracer.install()
    try:
        traced = run(lambda: rows_in.append(tracer.counts["linalg.reduce.rows_in"]))
    finally:
        tracer.uninstall()
    assert all(t is u for t, u in zip(traced, untraced, strict=True))
    # each operation reduced some rows through the hook
    assert all(a < b for a, b in zip([0] + rows_in, rows_in))
