"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Run it from the root of a repository checkout; the program is imported from
``src/``.  Inputs are generated from ``--seed`` before anything is timed.
With ``--trace 0`` the workload is set up five times (the median is
``setup_s``), measured for ``--seconds`` and checked; the last line of
standard output is one JSON object with the end-to-end metrics, the same
four (``END_TO_END``) on every workload.  With
``--trace 1`` the workload runs twice from the same inputs, untraced and
traced, for half the time each, and the JSON line holds the per-layer metrics,
the tracing overhead and the share of op time the layer spans attribute.
Every set-up and measured phase runs in a forked child of this process, so
each starts from the same cold state (no compiled query, no build cache).
``--smoke`` runs every workload at tiny sizes, in both modes, with every
correctness check.  The exit code is non-zero when a check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
    sys.exit("perfbench: src/repro not found: run from the root of a repository checkout")
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibrate  # noqa: E402
from layers import LAYER_METRICS, SpanRecorder, aggregate, install, layer_values, self_time_by_name  # noqa: E402
from workloads import WORKLOADS, Clock, percentile, proc_status_kb  # noqa: E402

SETUP_REPEATS = 5
#: The end-to-end metrics of BENCHMARK.json, reported on every workload.
END_TO_END = ("setup_s", "peak_rss_mb", "ops_per_s", "main_op_p50_ms")


def in_child(fn):
    """Run ``fn()`` in a forked child and return its JSON-able result."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        try:
            payload = {"ok": fn()}
        except BaseException:  # noqa: BLE001 — reported to the parent
            payload = {"error": traceback.format_exc()}
        with os.fdopen(write_end, "w") as handle:
            json.dump(payload, handle)
        sys.stderr.flush()
        os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end) as handle:
        data = handle.read()
    os.waitpid(pid, 0)
    payload = json.loads(data) if data else {"error": "the child exited without a result"}
    if "error" in payload:
        raise RuntimeError("phase failed in a child process:\n" + payload["error"])
    return payload["ok"]


def phase(workload, inputs, seconds: float, tmp: str, *, traced=False, check=False, setup_only=False):
    """Set up, measure and check one workload; runs inside a forked child."""
    recorder = None
    spans_dir = None
    if traced:
        recorder = SpanRecorder()
        spans_dir = os.path.join(tmp, f"spans-{os.getpid()}")
        os.makedirs(spans_dir)
        install(recorder)
    gc.collect()
    # A forked child's VmHWM starts at its RSS, which holds the inputs: the
    # peak above this baseline is the program's.
    baseline_kb = proc_status_kb("self", "VmRSS")
    kernel_before = calibrate.kernel_seconds()
    setup_start = perf_counter()
    state = workload.setup(inputs, tmp, spans_dir)
    setup_end = perf_counter()
    speed = calibrate.speed_factor(kernel_before, calibrate.kernel_seconds())
    result = {"setup_s": (setup_end - setup_start) * speed}
    try:
        if setup_only:
            return result
        clock = Clock(recorder)
        gc.collect()
        measure_start = perf_counter()
        facts = workload.measure(state, inputs, seconds, clock)
        measure_end = perf_counter()
        clock.finish()
        if workload.in_process:
            peak_kb = proc_status_kb("self", "VmHWM") - baseline_kb
        else:
            peak_kb = workload.stop(state)
        result.update(
            ops=clock.ops,
            failed_ops=clock.failed,
            rate=workload.rate(clock, facts),
            ops_per_s=clock.ops / clock.total(),
            main_op=percentile(clock(workload.main_op), 0.5),
            details=workload.end_to_end(clock, facts),
            peak_rss_mb=peak_kb / 1024.0,
            host_speed=[calibrate.REFERENCE_S / min(clock.kernel_s), calibrate.REFERENCE_S / max(clock.kernel_s)],
            wall_s=clock.elapsed,
        )
        if check:
            failures, checked = workload.check(state, inputs)
            result.update(failures=failures, checked=checked)
        if traced:
            dumps = [{"spans": recorder.spans, "gc": recorder.gc_events}]
            for name in sorted(os.listdir(spans_dir)):  # the server's and its worker's
                with open(os.path.join(spans_dir, name)) as handle:
                    dumps.append(json.load(handle))
            totals, pauses = aggregate(dumps, measure_start, measure_end)
            setup_totals, _ = aggregate(dumps, setup_start, setup_end)
            result["layers"] = layer_values(totals, pauses, setup_totals, dict(facts, ops=clock.ops))
            result["client_self"] = self_time_by_name(aggregate(dumps[:1], measure_start, measure_end)[0])
            result["server_self"] = self_time_by_name(aggregate(dumps[1:], measure_start, measure_end)[0])
            result["op_time_s"] = clock.elapsed
            result["gc_pause_s"] = sum(end - start for start, end, _gen in pauses)
        return result
    finally:
        workload.close(state)


def _print_metric(workload: str, name: str, value: float, unit: str, how: str) -> None:
    print(f"{workload:<14} {name:<40} {value:>14.6g} {unit:<10} {how}")


def _print_self_times(rows, op_time: float) -> None:
    for name, self_s, calls in rows:
        print(f"    {name:<44} {self_s * 1000.0:>11.1f} ms {100.0 * self_s / op_time:>6.1f}%  {calls} calls")


def run_untraced(workload, inputs, seconds: float, tmp: str) -> dict:
    setups = [
        in_child(lambda: phase(workload, inputs, seconds, tmp, setup_only=True))["setup_s"]
        for _ in range(SETUP_REPEATS - 1)
    ]
    result = in_child(lambda: phase(workload, inputs, seconds, tmp, check=True))
    setups.append(result["setup_s"])
    main_value, main_unit, main_how = result["main_op"]
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", "processes under test"),
        "ops_per_s": (result["ops_per_s"], "ops/s", f"over {result['ops']} ops"),
        "main_op_p50_ms": (main_value, main_unit, f"{workload.main_op}, {main_how}"),
    }
    assert tuple(metrics) == END_TO_END
    attempted = result["ops"] + result["checked"]
    failed = result["failed_ops"] + len(result["failures"])
    for name, (value, unit, how) in metrics.items():
        _print_metric(workload.name, name, value, unit, how)
    for name, (value, unit, how) in sorted(result["details"].items()):
        _print_metric(workload.name, name, value, unit, how + " (printed only)")
    _print_metric(workload.name, "error_rate", failed / attempted, "failed/attempted", f"{failed} of {attempted}")
    fast, slow = result["host_speed"]
    print(f"{workload.name}: {result['wall_s']:.3f} s of op wall time; timings are scaled to the "
          f"reference host speed (this host ran at {slow:.3f}x to {fast:.3f}x of it)")
    for failure in result["failures"]:
        print(f"{workload.name}: CHECK FAILED: {failure}")
    return {
        "correct": not result["failures"] and not result["failed_ops"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m[0], "unit": m[1]} for name, m in metrics.items()},
    }


def run_traced(workload, inputs, seconds: float, tmp: str) -> dict:
    half = seconds / 2.0
    untraced = in_child(lambda: phase(workload, inputs, half, tmp))
    traced = in_child(lambda: phase(workload, inputs, half, tmp, traced=True, check=True))
    overhead = (untraced["rate"] / traced["rate"] - 1.0) * 100.0
    layers = dict(traced["layers"])
    layers["trace.overhead_pct"] = (overhead, layers["trace.overhead_pct"][1])
    print(f"{workload.name}: tracing overhead {overhead:.1f}% "
          f"(untraced {untraced['rate']:.6g}/s, traced {traced['rate']:.6g}/s)")
    op_time = traced["op_time_s"]
    print(f"{workload.name}: self time by span in the client process, over {op_time:.3f} s of op time "
          "('op' is the benchmark's own span around each operation):")
    _print_self_times(traced["client_self"], op_time)
    client_total = sum(row[1] for row in traced["client_self"])
    print(f"{workload.name}: reconciliation: self times sum to {client_total:.4f} s against "
          f"{op_time:.4f} s of end-to-end op time ({100.0 * (client_total / op_time - 1.0):+.2f}%); "
          f"layer spans cover {100.0 * layers['trace.attributed_share'][0]:.1f}% of it; GC paused "
          f"{traced['gc_pause_s']:.3f} s in all processes, inside the spans it interrupted")
    if traced["server_self"]:
        print(f"{workload.name}: self time by span in the server and its shard worker "
              "(beside the client's wait in recv_frame):")
        _print_self_times(traced["server_self"], op_time)
    for metric in LAYER_METRICS:
        value, samples = layers[metric.name]
        _print_metric(workload.name, metric.name, value, metric.unit, f"{samples} samples")
    attempted = untraced["ops"] + traced["ops"] + traced["checked"]
    failed = untraced["failed_ops"] + traced["failed_ops"] + len(traced["failures"])
    for failure in traced["failures"]:
        print(f"{workload.name}: CHECK FAILED: {failure}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m.name: {"value": layers[m.name][0], "unit": m.unit} for m in LAYER_METRICS},
    }


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    workload = WORKLOADS[name](smoke)
    inputs = workload.make_inputs(seed, seconds)
    # The inputs belong to the benchmark, not to the program: freeze them out
    # of the collector so the program's GC pauses are its own.
    gc.collect()
    gc.freeze()
    tmp = os.path.join(ROOT, ".perfbench_tmp", f"run-{os.getpid()}-{name}")
    os.makedirs(tmp)
    try:
        return (run_traced if trace else run_untraced)(workload, inputs, seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        gc.unfreeze()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at tiny sizes, untraced and traced")
    args = parser.parse_args(argv)
    if args.smoke:
        ok = True
        for name in WORKLOADS:
            for trace in (False, True):
                result = run(name, args.seed, 1.0, trace, smoke=True)
                ok = ok and result["correct"]
                print(json.dumps(result))
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required (or --smoke)")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
