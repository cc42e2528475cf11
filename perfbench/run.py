"""qlattice benchmark: one workload, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  The workload's job list is built from the seed.  A round runs
the whole list once, one job after another, in a fresh process, so no
cache of the program carries over from one round to the next.  Rounds
follow each other until the next one would overrun ``--seconds``.  Then
one more, untimed round runs the workload's oracle on its outputs.  Every
round must produce exactly the same outputs.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced round and one traced round (see ``tracing.py``), fails unless the
two give identical outputs, and prints the per-layer metrics.  Every metric
is printed as ``name = value unit``; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from math import gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = [sys.executable, str(HERE / "run.py")]
ROUND_TIMEOUT_S = 170
# Times are reported in seconds of a reference machine on which one
# _reference_slice() takes exactly this long (see README.md).
REFERENCE_SLICE_S = 0.005
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("out_bytes", "bytes"),
)


def import_program() -> None:
    if not (SRC / "qlattice" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qlattice sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qlattice

    if Path(qlattice.__file__).resolve().parent != (SRC / "qlattice").resolve():
        raise SystemExit(f"perfbench: imported qlattice from {qlattice.__file__}, not {SRC}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced job list, for the self-test")
    ap.add_argument("--round", action="store_true",
                    help="internal: run one round in this process and print its report")
    ap.add_argument("--oracle", action="store_true",
                    help="internal: with --round, check the outputs after timing")
    return ap.parse_args(argv)


# --- one round, in its own process ----------------------------------------------


def _reference_slice() -> float:
    """Seconds for a fixed piece of interpreted work that shares no code with
    qlattice: big-integer arithmetic and gcd, tuples, dicts and str.  It
    measures how fast the machine runs Python at the moment."""
    start = time.perf_counter()
    counts: dict = {}
    x, acc = 12345, 0
    for i in range(1800):
        x = (x * 6364136223846793005 + 1442695040888963407) & ((1 << 64) - 1)
        key = (i & 255, x & 7)
        counts[key] = counts.get(key, 0) + 1
        acc += gcd(x, 3 ** 40 + i) & 1
        acc += len(str([x >> k for k in range(0, 16, 4)][0]))
    return time.perf_counter() - start


def _run_jobs(workload, keep: bool):
    """Every job once, in order.

    Returns per job its output (None where it raised; only a summary unless
    `keep`, so that held outputs do not add to the peak RSS), its ns, and
    the mean time of the reference slices run between the jobs.  Before each
    job, and outside its time, a full collection starts it from the same
    collector state, as a fresh CLI process would.
    """
    outputs, job_ns, slices = [], [], [_reference_slice()]
    for job in workload.jobs:
        gc.collect()
        start = time.perf_counter_ns()
        try:
            out = job.run()
        except Exception:
            print(f"perfbench: {job.label} raised:", file=sys.stderr)
            traceback.print_exc()
            out = None
        job_ns.append(time.perf_counter_ns() - start)
        outputs.append(out if keep or out is None else out.summary())
        del out
        slices.append(_reference_slice())
    return outputs, job_ns, statistics.fmean(slices)


def round_main(args) -> dict:
    """Set up, print ``ready``, run the job list once; return the round's report.

    With ``--trace 1`` the jobs, and the solver-text validation of the
    oracle, run under a :class:`tracing.Tracer`, and the report carries the
    per-layer metrics.
    """
    import workloads

    workload = workloads.BUILDERS[args.workload](args.seed, args.small)
    print("ready", flush=True)
    keep = bool(args.oracle or args.trace)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    errors = []
    try:
        if tracer is None:
            outputs, job_ns, reference_s = _run_jobs(workload, keep)
        else:
            outputs, job_ns, reference_s = tracer.call("bench.jobs", _run_jobs, workload, keep)
        round_s = sum(job_ns) / 1e9
        complete = all(out is not None for out in outputs)
        if args.oracle and complete:
            errors += (workload.validate(outputs) if tracer is None
                       else tracer.call("bench.validate", workload.validate, outputs))
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.oracle:
        errors += workload.oracle(outputs) if complete else [("*", "a job raised; oracle skipped")]
    summaries = [out and out.summary() for out in outputs] if keep else outputs
    report = {
        "round_s": round_s,
        "reference_s": reference_s,
        "job_ns": job_ns,
        "labels": [job.label for job in workload.jobs],
        "digests": [None if s is None else [s["key"], s["digest"]] for s in summaries],
        "out_bytes": sum(s["bytes"] for s in summaries if s is not None),
        "assignments": sum(s["assignments"] for s in summaries if s is not None),
        "peak_rss_mb": peak_rss_mb,
        "tail_percentile": workload.tail_percentile,
        "errors": errors,
    }
    if tracer is not None:
        from tracing import layer_metrics

        layers = layer_metrics(tracer, [out for out in outputs if out is not None], SRC)
        report["layers"] = layers
        report["unexercised"] = [name for name in workload.exercised if not layers[name]]
        report["spans"] = len(tracer.start)
        tracer.write(HERE / "out" / f"{args.workload}.spans.jsonl.gz")
    return report


# --- the parent: spawn rounds, summarise -------------------------------------------


def spawn_round(args, child, trace: int = 0, oracle: bool = False) -> tuple[float, dict]:
    """Run one round in a fresh process; returns (set-up seconds, report)."""
    cmd = child + ["--round", "--workload", args.workload, "--seed", str(args.seed),
                   "--trace", str(trace)]
    cmd += ["--oracle"] * oracle + ["--small"] * args.small
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        try:
            rest, _ = proc.communicate(timeout=ROUND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SystemExit(f"perfbench: round took over {ROUND_TIMEOUT_S} s")
    if proc.returncode != 0 or ready.strip() != "ready":
        raise SystemExit(f"perfbench: round process failed (exit {proc.returncode})")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def _differ(a: dict, b: dict, why: str) -> list[tuple[str, str]]:
    return [(label, why) for label, x, y in zip(a["labels"], a["digests"], b["digests"]) if x != y]


def _failures(reports: list[dict], errors: list) -> int:
    """(round, job) pairs that raised, differ from round one, or fail the oracle."""
    bad = {label for label, _ in errors}
    first = reports[0]["digests"]
    return sum(
        d is None or d != ref or label in bad
        for r in reports
        for label, d, ref in zip(r["labels"], r["digests"], first)
    )


def _percentile(sorted_values: list[float], p: float) -> float:
    pos = (len(sorted_values) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def timed_run(args, child=CHILD) -> tuple[dict, list[str]]:
    setups, reports = [], []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        setup_s, report = spawn_round(args, child)
        setups.append(setup_s)
        reports.append(report)
        now = time.perf_counter()
        if now - begin + (now - start) > args.seconds:
            break
    _, check = spawn_round(args, child, oracle=True)
    errors = check["errors"] + _differ(check, reports[0], "oracle round differs from round one")
    failed = _failures(reports, errors)
    attempted = sum(len(r["job_ns"]) for r in reports)

    # Other tenants of the host change its speed by up to 2x over tens of
    # seconds.  Each round process times a fixed reference slice between its
    # jobs; scaling by their mean reports every time in reference seconds.
    scale = [REFERENCE_SLICE_S / r["reference_s"] for r in reports]
    round_s = [r["round_s"] * f for r, f in zip(reports, scale)]
    job_ms = sorted(ns / 1e6 * f for r, f in zip(reports, scale) for ns in r["job_ns"])
    tail_p = reports[0]["tail_percentile"]
    beyond = attempted * (1 - tail_p / 100)
    metrics = {
        "setup_s": statistics.median(s * f for s, f in zip(setups, scale)),
        "wall_s": statistics.median(round_s),
        "job_p50_ms": _percentile(job_ms, 50),
        "job_tail_ms": _percentile(job_ms, tail_p),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
        "out_bytes": reports[0]["out_bytes"],
    }
    notes = [
        f"{args.workload} seed {args.seed}: {len(reports)} rounds of {len(reports[0]['job_ns'])} "
        f"jobs; {failed} of {attempted} jobs failed, error_rate = {failed / attempted}",
        f"setup_s and wall_s: medians of {len(reports)} round processes; job_p50_ms and "
        f"job_tail_ms (p{tail_p}, {beyond:.0f} jobs beyond it) over {attempted} jobs; "
        f"all in reference seconds",
        f"unscaled medians: setup {statistics.median(setups)} s, round "
        f"{statistics.median(r['round_s'] for r in reports)} s, reference slice "
        f"{statistics.median(r['reference_s'] for r in reports)} s",
    ]
    if check["assignments"]:
        notes.append(f"assignments_per_s = {check['assignments'] / metrics['wall_s']} 1/s "
                     f"({check['assignments']} assignments per round)")
    return _result(failed, attempted, errors, metrics, END_TO_END), notes + _error_lines(errors)


def traced_run(args, child=CHILD) -> tuple[dict, list[str]]:
    from tracing import PER_LAYER

    _, plain = spawn_round(args, child)
    _, traced = spawn_round(args, child, trace=1, oracle=True)
    if traced["unexercised"]:
        raise SystemExit("perfbench: trace hooks saw no work for "
                         + ", ".join(traced["unexercised"]))
    errors = traced["errors"] + _differ(plain, traced, "traced and untraced outputs differ")
    failed = _failures([plain, traced], errors)
    overhead = (traced["round_s"] / traced["reference_s"]) / (plain["round_s"] / plain["reference_s"])
    metrics = dict(traced["layers"], **{"trace.overhead": overhead})
    notes = [
        f"{args.workload} seed {args.seed}: one untraced and one traced round of "
        f"{len(plain['job_ns'])} jobs; {traced['spans']} spans; trace.overhead is "
        f"{traced['round_s']} s / {plain['round_s']} s, each scaled by its reference slices",
    ]
    return (_result(failed, 2 * len(plain["job_ns"]), errors, metrics, PER_LAYER),
            notes + _error_lines(errors))


def _error_lines(errors) -> list[str]:
    return [f"error: {label}: {msg}" for label, msg in errors]


def _result(failed, attempted, errors, metrics, declared) -> dict:
    return {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared},
    }


def main(argv=None, child=CHILD) -> dict:
    args = parse_args(argv)
    import_program()
    import workloads

    if args.workload not in workloads.BUILDERS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.BUILDERS)}")
    if args.round:
        report = round_main(args)
        print(json.dumps(report), flush=True)
        return report
    result, notes = (traced_run if args.trace else timed_run)(args, child)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']} {m['unit']}")
    print("\n".join(notes))
    print(json.dumps(result), flush=True)
    return result


if __name__ == "__main__":
    main()
