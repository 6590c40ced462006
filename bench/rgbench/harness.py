"""One workload in this process: set-up, closed loop, checks, metrics."""

import json
import os
import platform
import resource
import shutil
import statistics
import tempfile
import threading
import time
import traceback
from collections import Counter
from pathlib import Path

from . import stats, trace, workloads
from .yardstick import rescale, yardstick

#: Set-up (input generation plus one warm-up op) is repeated this many
#: times and its median reported, so that work moved into set-up shows.
SETUP_REPS = 3
#: The traced run of a workload with a probe calls it on at most this
#: many inputs, and stops early once the probes took half of --seconds.
PROBE_MAX = 32
#: Failures printed in full in the report.
FAILURES_SHOWN = 20


def _environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    native_threads = None
    try:
        with open("/proc/self/status") as fh:
            native_threads = next((int(line.split()[1]) for line in fh
                                   if line.startswith("Threads:")), None)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "seed": seed,
            "python_threads": threading.active_count(),
            "native_threads": native_threads}


class _Op:
    """One timed call: its wall time, the time rescaled, and its outcome."""

    __slots__ = ("index", "traced", "seconds", "yardstick", "rescaled", "value", "error",
                 "oracles")

    def __init__(self, index, traced):
        self.index = index
        self.traced = traced
        self.value = self.error = None
        self.oracles = ()


def _run_op(workload, inp, out, op, tracer):
    if tracer is not None:
        tracer.install()
        tracer.begin("op", op=op.index)
    try:
        t0 = time.perf_counter()
        try:
            op.value = workload.op(inp, out)
        except Exception:  # a failing op is recorded; the loop goes on
            op.error = traceback.format_exc(limit=4)
        op.seconds = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.end()
            tracer.uninstall()
    return op


def _closed_loop(workload, inputs, seconds, tmp, tracer):
    """Run ops back to back until ``seconds`` have passed.

    The yardstick runs between ops; each op's wall time is rescaled by the
    yardstick times just before and after it.  With a tracer each input
    runs twice, untraced and traced, the order alternating, so the two
    medians give the tracing overhead.
    """
    ops = []
    deadline = time.perf_counter() + seconds
    before = yardstick()
    i = 0
    while time.perf_counter() < deadline:
        inp = inputs[1 + i % (len(inputs) - 1)]
        modes = (None,) if tracer is None else ((None, tracer), (tracer, None))[i % 2]
        for t in modes:
            out = tmp / f"op{len(ops)}.json"
            op = _run_op(workload, inp, out, _Op(i, t is not None), t)
            after = yardstick()
            op.yardstick = (before + after) / 2
            op.rescaled = rescale(op.seconds, before, after)
            before = after
            ops.append((inp, out, op))
        i += 1
    return ops


def _check_all(workload, ops):
    for inp, out, op in ops:
        if op.error is not None:
            continue
        try:
            op.oracles = workload.check(op.index, inp, op.value, out)
        except workloads.Mismatch as exc:
            op.error = f"mismatch: {exc}"
        except Exception:  # an oracle that cannot decide fails the op
            op.error = "check raised: " + traceback.format_exc(limit=4)


def _probe(workload, inputs, seconds, tracer):
    """Call the workload's probe outside the op spans; returns (calls, failures)."""
    calls = failures = 0
    spent = 0.0
    tracer.install()
    try:
        for k, inp in enumerate(inputs[1:PROBE_MAX + 1]):
            if spent > seconds / 2:
                break
            tracer.begin("probe", op=f"probe{k}")
            t0 = time.perf_counter()
            try:
                workload.probe(inp)
            except Exception:  # the probe measures how often the call fails
                failures += 1
            finally:
                spent += time.perf_counter() - t0
                tracer.end()
            calls += 1
    finally:
        tracer.uninstall()
    return calls, failures


def _layer_metrics(tracer, n_ops, probe_calls, probe_failures, overhead) -> dict:
    totals = tracer.totals()
    metrics = {}
    for name, _, _ in trace.LAYERS:
        t = totals.get(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        per = probe_calls if name == "bethe.solve_richardson" else n_ops
        per = per or 1
        metrics[f"{name}.s"] = t["s"] / per
        metrics[f"{name}.self_s"] = t["self_s"] / per
        metrics[f"{name}.calls"] = t["calls"] / per
    det_calls = totals.get("linalg.determinant", {"calls": 0})["calls"] or 1
    for stat in ("dim", "input_bits", "result_bits"):
        metrics[f"linalg.determinant.{stat}"] = tracer.counts[f"linalg.determinant.{stat}"] / det_calls
    metrics["linalg.permanent.ryser_terms"] = tracer.counts["linalg.permanent.ryser_terms"] / n_ops
    metrics["bethe.solve_richardson.fail_ratio"] = probe_failures / (probe_calls or 1)
    op = totals.get("op", {"s": 0.0, "self_s": 0.0})
    metrics["trace.op.s"] = op["s"] / n_ops
    metrics["trace.unattributed.s"] = op["self_s"] / n_ops
    metrics["trace.overhead_ratio"] = overhead
    return metrics


def _quartiles(values) -> list:
    return [v * 1e3 for v in statistics.quantiles(values, n=4)] if len(values) > 1 else []


def _select(spec_metrics, produced: dict) -> dict:
    missing = [m["name"] for m in spec_metrics if m["name"] not in produced]
    if missing:
        raise KeyError(f"BENCHMARK.json names metrics this run does not produce: {missing}")
    return {m["name"]: {"value": produced[m["name"]], "unit": m["unit"]}
            for m in spec_metrics}


def run_workload(args, spec, root, imported) -> int:
    """Measure ``args.workload`` and print the report and result lines.

    ``imported`` holds the wall time of importing the program and the
    yardstick times before and after it.
    """
    workload = workloads.WORKLOADS[args.workload]
    tmp = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=root))
    try:
        reps = []
        before = imported[2]
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            inputs = workload.inputs(args.seed)
            workload.op(inputs[0], tmp / "warmup.json")
            wall = time.perf_counter() - t0
            after = yardstick()
            reps.append((wall, rescale(wall, before, after)))
            before = after
        setup_s = rescale(*imported) + statistics.median(r for _, r in reps)

        tracer = trace.Tracer() if args.trace else None
        ops = _closed_loop(workload, inputs, args.seconds, tmp, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        _check_all(workload, ops)
        probe_calls = probe_failures = 0
        if tracer is not None and workload.probe is not None:
            probe_calls, probe_failures = _probe(workload, inputs, args.seconds, tracer)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    records = [op for _, _, op in ops]
    plain = [op for op in records if not op.traced]
    passed = [op.error is None for op in plain]
    summary = stats.summarize([op.rescaled for op in plain], passed, workload.tail_cap)
    wall = stats.summarize([op.seconds for op in plain], passed, workload.tail_cap)
    if tracer is None:
        produced = dict(summary, setup_s=setup_s, peak_rss_mb=peak_rss_mb)
        metrics = _select(spec["end_to_end"], produced)
    else:
        traced = [op for op in records if op.traced]
        traced_summary = stats.summarize([op.rescaled for op in traced],
                                         [op.error is None for op in traced],
                                         workload.tail_cap)
        overhead = traced_summary["op_ms.p50"] / summary["op_ms.p50"] - 1
        produced = _layer_metrics(tracer, len(traced), probe_calls, probe_failures, overhead)
        metrics = _select(spec["per_layer"], produced)
        spans_path = root / ".bench_out" / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(spans_path)

    failures = [op for op in records if op.error is not None]
    oracles = Counter(name for op in records for name in op.oracles)
    report = {
        "workload": workload.name, "seconds": args.seconds, "trace": args.trace,
        "env": _environment(args.seed),
        "ops": summary["ops"], "passed": summary["passed"],
        "fail_ratio": summary["fail_ratio"],
        "tail_pct": summary["tail_pct"], "tail_beyond": summary["tail_beyond"],
        "wall": {"setup_s": imported[0] + statistics.median(w for w, _ in reps),
                 "import_s": imported[0], "setup_reps_s": [w for w, _ in reps],
                 "op_ms.p50": wall["op_ms.p50"], "op_ms.tail": wall["op_ms.tail"],
                 "ops_per_s": wall["ops_per_s"]},
        "yardstick_ms_quartiles": _quartiles([op.yardstick for op in plain]),
        "oracles": oracles,
        "verdicts": "".join("F" if op.error else "P" for op in records),
        "failures": [{"op": op.index, "traced": op.traced, "error": op.error[-600:]}
                     for op in failures[:FAILURES_SHOWN]],
    }
    if tracer is not None:
        report.update(absent=tracer.absent, probe_calls=probe_calls,
                      spans=str(spans_path.relative_to(root)))
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not failures, "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}))
    return 0


