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


@pytest.mark.parametrize("count", ["0", "-1"])
def test_refuses_fewer_than_one_pair_before_any_run(tmp_path, monkeypatch, capsys, count):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("")
    runs = []
    monkeypatch.setattr(pairs, "run_once", lambda *args: runs.append(args))
    with pytest.raises(SystemExit) as exc:
        pairs.main([str(tmp_path), str(tmp_path), "--workload", "plane-family",
                    "--pairs", count])
    assert exc.value.code == 2 and runs == []
    assert f"--pairs must be at least 1, got {count}" in capsys.readouterr().err


_SPECS = {
    "wall_s": {"name": "wall_s", "better": "lower", "bound": 0.25},
    "peak_rss_mb": {"name": "peak_rss_mb", "better": "lower", "bound": 0.15},
    "hits": {"name": "hits", "better": "higher", "bound": 0.25},
}
_PARENT_WALL = [0.30, 0.31, 0.29, 0.30, 0.32, 0.30, 0.31, 0.29, 0.30, 0.30]


def _verdict(name, old, new):
    lines = pairs.verdicts([_run(**{name: v}) for v in old],
                           [_run(**{name: v}) for v in new], _SPECS)
    assert len(lines) == 1 and lines[0].startswith(name + ": ")
    return lines[0][len(name) + 2:]


def test_gain_shown_at_nine_of_ten_pairs_beyond_the_parent_iqr():
    # parent median 0.30, quartiles 0.30 and 0.3075
    assert _verdict("wall_s", _PARENT_WALL, [0.25] * 9 + [0.35]) == (
        "gain shown (better in 9 of 10 pairs; medians apart by 0.05 > parent IQR 0.0075)"
    )


def test_no_gain_at_eight_of_ten_pairs():
    assert _verdict("wall_s", _PARENT_WALL, [0.25] * 8 + [0.35] * 2) == (
        "no gain shown, within bound"
    )


def test_no_gain_when_the_medians_are_within_the_parent_iqr():
    # better in every pair, but the medians are only 0.005 apart
    new = [v - 0.005 for v in _PARENT_WALL]
    assert _verdict("wall_s", _PARENT_WALL, new) == "no gain shown, within bound"


def test_a_tie_counts_for_neither_side():
    assert _verdict("wall_s", _PARENT_WALL, [0.25] * 9 + [0.30]) == (
        "gain shown (better in 9 of 10 pairs; medians apart by 0.05 > parent IQR 0.0075)"
    )
    assert _verdict("wall_s", _PARENT_WALL, [0.25] * 8 + [0.30, 0.30]) == (
        "no gain shown, within bound"
    )


def test_worse_beyond_bound_is_relative_to_the_parent_median():
    old = [20.0, 20.0, 20.0]
    assert _verdict("peak_rss_mb", old, [23.5, 23.0, 23.5]) == (
        "worse beyond bound (worse by 3.5 > 0.15 of parent median 20)"
    )
    # exactly the bound is still within it
    assert _verdict("peak_rss_mb", old, [23.0, 23.0, 23.0]) == "no gain shown, within bound"


def test_unresolved_when_the_parent_iqr_is_wider_than_the_bound():
    # parent median 20, quartiles 16 and 24: an IQR of 8 > 0.15 * 20
    old = [10.0, 16.0, 20.0, 24.0, 30.0]
    assert _verdict("peak_rss_mb", old, [21.0, 15.0, 22.0, 25.0, 19.0]) == (
        "unresolved (parent IQR 8 > 0.15 of parent median 20)"
    )
    # unless every change run is better than every parent run, here by
    # less than the parent IQR (quartiles 19.6 and 30)
    assert _verdict("peak_rss_mb", [19.5, 19.6, 20.0, 30.0, 40.0], [19.0] * 5) == (
        "no gain shown, within bound"
    )
    # the gain and bound verdicts come first
    assert _verdict("peak_rss_mb", old, [40.0] * 5) == (
        "worse beyond bound (worse by 20 > 0.15 of parent median 20)"
    )
    assert _verdict("hits", [1, 4, 8, 12, 15], [20, 16, 20, 20, 20]) == (
        "gain shown (better in 5 of 5 pairs; medians apart by 12 > parent IQR 8)"
    )
    # an IQR of exactly the bound, 0.25 of 8, still reads the median
    assert _verdict("hits", [4, 8, 8, 10, 12], [7] * 5) == "no gain shown, within bound"


def test_verdicts_follow_the_better_direction():
    assert _verdict("hits", [8, 8, 8, 8], [4, 5, 5, 5]) == (
        "worse beyond bound (worse by 3 > 0.25 of parent median 8)"
    )
    assert _verdict("hits", [8, 8, 8, 8], [10, 10, 10, 10]) == (
        "gain shown (better in 4 of 4 pairs; medians apart by 2 > parent IQR 0)"
    )


def test_verdicts_only_for_listed_metrics_the_runs_report():
    parent = [_run(wall_s=0.3, unlisted=1.0)]
    change = [_run(wall_s=0.3, unlisted=9.0)]
    assert pairs.verdicts(parent, change, _SPECS) == ["wall_s: no gain shown, within bound"]


def test_unscaled_medians_are_read_from_the_note_line_and_summarised():
    lines = [
        "wall_s = 0.4 s",
        "unscaled medians: setup 0.1155 s, round 0.31 s, reference slice 0.0205 s",
        '{"correct": true}',
    ]
    assert pairs.unscaled(lines) == {"setup": 0.1155, "round": 0.31, "reference slice": 0.0205}
    assert pairs.unscaled(lines[:1]) == {}

    def run(setup, round_s, ref):
        return dict(_run(wall_s=round_s), unscaled={
            "setup": setup, "round": round_s, "reference slice": ref})

    parent = [run(0.12, 0.30, 0.020), run(0.11, 0.32, 0.021), run(0.13, 0.31, 0.022)]
    change = [run(0.12, 0.28, 0.024), run(0.12, 0.27, 0.025), run(0.11, 0.29, 0.023)]
    assert pairs.unscaled_summary(parent, change) == [
        "parent unscaled medians: setup 0.12 s, round 0.31 s, reference slice 0.021 s",
        "change unscaled medians: setup 0.12 s, round 0.28 s, reference slice 0.024 s",
    ]
    # A run without the note line (an older perfbench) gives no summary.
    assert pairs.unscaled_summary(parent, change + [_run(wall_s=0.3)]) == []
