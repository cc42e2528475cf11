"""The traced benchmark's hooks still name real qlattice entry points."""

import importlib
import importlib.util
from pathlib import Path

import qlattice

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_hook_resolves():
    tracing = _load_tracing()
    for name, module, attr, kind in tracing.HOOKS:
        target = importlib.import_module(module)
        for part in attr.split("."):
            target = getattr(target, part, None)
            assert target is not None, f"{name}: {module}.{attr} not found"
        assert callable(target), name
        assert hasattr(tracing.Tracer, "_wrap_" + kind), name


def test_tracer_patches_every_hook():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    orig = qlattice.terms.Evaluator.eval
    try:
        tracer.install()  # raises if a hook has no binding site
        assert qlattice.terms.Evaluator.eval is not orig
    finally:
        tracer.uninstall()
    assert qlattice.terms.Evaluator.eval is orig
