"""Alternating benchmark pairs: one checkout against another.

    python3 bench/pairs.py PARENT CHANGE --workload plane-family \\
        --seeds 901 902 903 904 905 --pairs 2 --seconds 10

Runs ``perfbench/run.py --trace 0`` in each checkout, once per pair, and
alternates which checkout runs first from one pair to the next, so a
drift in the speed of the host falls on both sides alike.  Each seed
gives ``--pairs`` pairs.  At the end it prints, for every end-to-end
metric, each side's median, the quartiles of PARENT's runs, and in how
many pairs CHANGE was better; "better" is read from the ``end_to_end``
list of ``BENCHMARK.json`` in CHANGE, and is "lower" for a metric not
listed there.  Then it prints one verdict line per metric of that list:
"gain shown" when CHANGE was better in at least nine tenths of the pairs
(ties count for neither side) and the medians differ, in CHANGE's favour,
by more than the distance between PARENT's quartiles; "worse beyond
bound" when CHANGE's median is worse than PARENT's by more than the
metric's ``bound``, a fraction of PARENT's median; "unresolved" when
the distance between PARENT's quartiles is wider than that bound, so a
worse median within it would not show, unless every CHANGE run is better
than every PARENT run; else "no gain shown, within bound".  Last, it
prints the median over each side's runs of the unscaled setup, round
and reference-slice times that every run notes (its ``unscaled
medians:`` line), so a move in ``setup_s`` that comes only from the
reference-slice scale shows as one.

Before the first run it deletes every ``__pycache__`` under ``src/`` and
``perfbench/`` of both checkouts.  A checkout made from committed files
has no bytecode, and where ``PYTHONDONTWRITEBYTECODE`` is set none is
ever written, so every round process compiles the package first; a stale
cache on one side only would lower that side's ``setup_s`` and
``peak_rss_mb``.

Exits 1 if a run fails or reports ``correct: false``.  Standard library
only.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout measured as the baseline")
    ap.add_argument("change", type=Path, help="checkout measured against it")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--pairs", type=int, default=1, help="pairs per seed")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--small", action="store_true",
                    help="pass --small: the reduced job list of the self-test")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error(f"--pairs must be at least 1, got {args.pairs}")
    return args


def clear_bytecode(tree: Path) -> int:
    """Delete every ``__pycache__`` under `tree`'s ``src/`` and
    ``perfbench/``; returns how many were deleted."""
    caches = [d for sub in ("src", "perfbench")
              for d in (tree / sub).rglob("__pycache__") if d.is_dir()]
    for d in caches:
        shutil.rmtree(d)
    return len(caches)


_UNSCALED = re.compile(
    r"unscaled medians: setup (\S+) s, round (\S+) s, reference slice (\S+) s")
_UNSCALED_PARTS = ("setup", "round", "reference slice")


def unscaled(lines: list[str]) -> dict[str, float]:
    """``part -> seconds`` from a run's ``unscaled medians:`` note line,
    or nothing when the run printed none."""
    for line in lines:
        if m := _UNSCALED.fullmatch(line):
            return dict(zip(_UNSCALED_PARTS, map(float, m.groups())))
    return {}


def run_once(tree: Path, args, seed: int) -> dict:
    """The result line of one ``perfbench/run.py`` run in `tree`, with the
    run's :func:`unscaled` times under ``"unscaled"``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
    cmd += ["--small"] * args.small
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"pairs: run in {tree} at seed {seed} failed (exit {proc.returncode})")
    return dict(json.loads(lines[-1]), unscaled=unscaled(lines))


def end_to_end(tree: Path) -> dict[str, dict]:
    """``metric -> its entry`` (``better``, ``bound``, ...) in the
    ``end_to_end`` list of `tree`'s ``BENCHMARK.json``."""
    path = tree / "BENCHMARK.json"
    if not path.is_file():
        return {}
    return {m["name"]: m for m in json.loads(path.read_text())["end_to_end"]}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _num(v: float) -> str:
    return str(int(v)) if v == int(v) else f"{v:.6g}"


def _compare(parent: list[dict], change: list[dict], name: str, better: str):
    """`name`'s values in `parent` and in `change`, the sign that makes a
    better value lower, and in how many pairs `change` was better."""
    old = [r["metrics"][name]["value"] for r in parent]
    new = [r["metrics"][name]["value"] for r in change]
    sign = -1 if better == "higher" else 1
    return old, new, sign, sum(sign * (b - a) < 0 for a, b in zip(old, new))


def summarise(parent: list[dict], change: list[dict], better: dict[str, str]) -> list[str]:
    """One line per metric of the runs' result lines: the medians, the
    quartiles of `parent`, and the pairs in which `change` was better."""
    lines = []
    for name, first in parent[0]["metrics"].items():
        old, new, _, wins = _compare(parent, change, name, better.get(name, "lower"))
        q1, q3 = quartiles(old)
        lines.append(
            f"{name} ({first['unit']}, {better.get(name, 'lower')} is better): "
            f"parent {_num(statistics.median(old))} [{_num(q1)}, {_num(q3)}] -> "
            f"change {_num(statistics.median(new))}; better in {wins} of {len(old)} pairs"
        )
    return lines


def verdicts(parent: list[dict], change: list[dict], specs: dict[str, dict]) -> list[str]:
    """One verdict line per metric of `specs` that the runs report: "gain
    shown", "worse beyond bound", "unresolved" or "no gain shown, within
    bound"."""
    lines = []
    for name, spec in specs.items():
        if name not in parent[0]["metrics"]:
            continue
        old, new, sign, wins = _compare(parent, change, name, spec["better"])
        q1, q3 = quartiles(old)
        m_old, m_new = statistics.median(old), statistics.median(new)
        worse_by = sign * (m_new - m_old)
        bound = spec["bound"] * abs(m_old)
        if 10 * wins >= 9 * len(old) and -worse_by > q3 - q1:
            verdict = (f"gain shown (better in {wins} of {len(old)} pairs; medians "
                       f"apart by {_num(-worse_by)} > parent IQR {_num(q3 - q1)})")
        elif worse_by > bound:
            verdict = (f"worse beyond bound (worse by {_num(worse_by)} > "
                       f"{_num(spec['bound'])} of parent median {_num(m_old)})")
        elif q3 - q1 > bound and max(sign * v for v in new) >= min(sign * v for v in old):
            verdict = (f"unresolved (parent IQR {_num(q3 - q1)} > "
                       f"{_num(spec['bound'])} of parent median {_num(m_old)})")
        else:
            verdict = "no gain shown, within bound"
        lines.append(f"{name}: {verdict}")
    return lines


def unscaled_summary(parent: list[dict], change: list[dict]) -> list[str]:
    """One line per side: the median over its runs of each unscaled time;
    nothing unless every run reported them."""
    if not all(r.get("unscaled") for r in parent + change):
        return []
    return [
        f"{side} unscaled medians: " + ", ".join(
            f"{part} {_num(statistics.median(r['unscaled'][part] for r in runs))} s"
            for part in _UNSCALED_PARTS)
        for side, runs in (("parent", parent), ("change", change))
    ]


def main(argv=None) -> int:
    args = parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "perfbench" / "run.py").is_file():
            raise SystemExit(f"pairs: no perfbench/run.py in {tree}")
        print(f"{side}: {tree}; deleted {clear_bytecode(tree)} __pycache__ directories")
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    seeds = [seed for seed in args.seeds for _ in range(args.pairs)]
    for i, seed in enumerate(seeds):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            result = run_once(trees[side], args, seed)
            runs[side].append(result)
            wall = result["metrics"].get("wall_s", {}).get("value")
            print(f"pair {i + 1} seed {seed} {side}: wall_s {wall} correct {result['correct']}",
                  flush=True)
    print(f"{args.workload}: {len(seeds)} pairs, each side's median, "
          "parent quartiles in brackets")
    specs = end_to_end(trees["change"])
    better = {name: spec["better"] for name, spec in specs.items()}
    for line in (summarise(runs["parent"], runs["change"], better)
                 + verdicts(runs["parent"], runs["change"], specs)
                 + unscaled_summary(runs["parent"], runs["change"])):
        print(line)
    bad = sum(not r["correct"] for side in runs.values() for r in side)
    if bad:
        print(f"pairs: {bad} runs were not correct")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
