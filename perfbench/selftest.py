"""Reduced-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of ``BENCHMARK.json`` on its reduced job list
(``--small``), untraced and traced, and checks that the result line has
exactly the declared metrics with their declared units, that each is also
printed by name and unit, and that the run is correct.  Then it injects a
wrong verdict (every counterexample reported as ``holds-on-samples``) into
the round processes and checks that the failures show in ``failed`` and in
the printed error_rate.  Exits nonzero on the first failed check.

``selftest.py --wrong-verdict ARGS...`` is that injected round process: it
patches ``checker.check`` and then runs ``run.py ARGS...`` in-process.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, child=run.CHILD) -> tuple[dict, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                           "--trace", str(trace), "--small"], child)
    text = buf.getvalue()
    last = text.strip().splitlines()[-1]
    if json.loads(last) != result:
        raise AssertionError(f"{workload}: last line is not the result object")
    return result, text


def _check_metrics(workload: str, trace: int) -> None:
    result, text = _run(workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{workload} trace={trace}: run not correct:\n{text}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        raise AssertionError(f"{workload} trace={trace}: metrics {got} != declared {want}")
    for name, m in result["metrics"].items():
        if f"{name} = {m['value']} {m['unit']}" not in text:
            raise AssertionError(f"{workload}: {name} not printed with its unit")
        if trace == 0 and not m["value"] > 0:
            raise AssertionError(f"{workload}: end-to-end metric {name} is {m['value']}")
    print(f"ok  {workload} trace={trace}: {len(got)} metrics")


def _patch_wrong_verdict() -> None:
    from qlattice import checker

    real_check = checker.check

    def wrong_check(eq, ambient, strategies=None):
        v = real_check(eq, ambient, strategies)
        if v.status == "counterexample":
            return checker.Verdict("holds-on-samples", v.samples_tried, v.strategy_log, None)
        return v

    checker.check = wrong_check


def _check_injected_wrong_verdict() -> None:
    child = [sys.executable, str(run.HERE / "selftest.py"), "--wrong-verdict"]
    result, text = _run("plane-family", 0, child)
    rate = float(re.search(r"error_rate = ([0-9.e-]+)", text).group(1))
    if result["correct"] or not result["failed"] or not rate > 0:
        raise AssertionError(f"injected wrong verdict not caught:\n{text}")
    print(f"ok  injected wrong verdict: {result['failed']} of {result['attempted']} "
          f"jobs failed, error_rate {rate}")


def main() -> None:
    run.import_program()
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            _check_metrics(w["name"], trace)
    _check_injected_wrong_verdict()


if __name__ == "__main__":
    if sys.argv[1:2] == ["--wrong-verdict"]:
        run.import_program()
        _patch_wrong_verdict()
        run.main(sys.argv[2:])
        sys.exit(0)
    try:
        main()
    except AssertionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        sys.exit(1)
