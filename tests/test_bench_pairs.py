"""The summary and bytecode clean-up of bench/pairs.py, without running perfbench."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def _run(**values):
    return {"correct": True, "metrics": {
        name: {"value": v, "unit": "s"} for name, v in values.items()
    }}


def test_summary_gives_medians_parent_quartiles_and_wins():
    parent = [_run(wall_s=w, hits=h) for w, h in [(0.30, 5), (0.28, 7), (0.29, 6), (0.31, 9)]]
    change = [_run(wall_s=w, hits=h) for w, h in [(0.23, 6), (0.29, 7), (0.22, 4), (0.24, 10)]]
    lines = pairs.summarise(parent, change, {"wall_s": "lower", "hits": "higher"})
    assert lines == [
        "wall_s (s, lower is better): parent 0.295 [0.2875, 0.3025] -> change 0.235; "
        "better in 3 of 4 pairs",
        "hits (s, higher is better): parent 6.5 [5.75, 7.5] -> change 6.5; "
        "better in 2 of 4 pairs",
    ]


def test_summary_of_one_pair_and_unlisted_metric():
    lines = pairs.summarise([_run(x=1035524)], [_run(x=1035524.0)], {})
    assert lines == [
        "x (s, lower is better): parent 1035524 [1035524, 1035524] -> change 1035524; "
        "better in 0 of 1 pairs"
    ]


def test_clear_bytecode_only_under_src_and_perfbench(tmp_path):
    for d in ("src/pkg/__pycache__", "src/__pycache__", "perfbench/__pycache__",
              "tests/__pycache__"):
        (tmp_path / d).mkdir(parents=True)
        (tmp_path / d / "m.cpython-311.pyc").write_bytes(b"")
    assert pairs.clear_bytecode(tmp_path) == 3
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("__pycache__")) == [
        "tests/__pycache__"
    ]
    assert pairs.clear_bytecode(tmp_path) == 0


def test_refuses_a_tree_without_perfbench(tmp_path):
    with pytest.raises(SystemExit, match="no perfbench/run.py"):
        pairs.main([str(tmp_path), str(tmp_path), "--workload", "compile"])
