"""Run one benchmark workload and print its metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload noisy-vqa --seed 1 --seconds 15 --trace 0

The program is imported from ``src/``.  Each invocation runs one workload
in this one process, as a closed loop with one client and ``jobs=1``.

``--trace 0`` runs ops back to back for ``--seconds``, with several set-ups
spread over the run (``setup_s`` is their median), and reports the
end-to-end metrics.  ``--trace 1`` runs a fixed op sequence instead, so its counts
repeat exactly at a fixed seed: one traced set-up, then ops that alternate
untraced and traced; it reports the per-layer metrics, the tracing overhead
and, on noisy-vqa, the paper's baselines on the same parameter points.

Every op's output is checked outside the timed region.  Human-readable
lines come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names and
units come from ``BENCHMARK.json``.  Runs write only to a scratch
directory, ``.perfbench-work/``, which they remove.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from typing import Dict, List, Optional, Tuple

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
#: A tail percentile needs at least this many ops beyond it.
TAIL_OPS = 10


def keep_freed_memory() -> bool:
    """Make glibc reuse freed heap memory instead of returning it to the kernel.

    With the defaults, each AC pass maps and unmaps its multi-megabyte
    temporaries: about 680k minor page faults and a third of a noisy-vqa
    op.  What a fault costs follows the host's memory pressure, and it made
    the run-to-run spread of op latency wider than any useful bound.  Heap
    allocations up to 32 MiB and no trimming remove the faults; the
    allocation work itself is still timed, and the report prints the
    faults per op, so a change in allocation churn still shows.  Returns
    ``False`` where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(mallopt(m_mmap_threshold, 32 << 20)) and bool(mallopt(m_trim_threshold, 1 << 30))


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def run_op(workload, index: int, scope=contextlib.nullcontext) -> Tuple[Optional[float], int, Optional[Dict]]:
    """Time one op inside ``scope``, then check it outside.

    Returns ``(seconds, faults, diagnostics)``: ``seconds`` is ``None`` when
    the op raised, ``faults`` counts the op's minor page faults, and
    ``diagnostics`` is ``None`` when the op failed either way.
    """
    from workloads import CheckFailed

    try:
        with scope():
            faults = _minor_faults()
            start = time.perf_counter()
            result = workload.op(index)
            elapsed = time.perf_counter() - start
            faults = _minor_faults() - faults
    except Exception:  # a raising op is a failed op; the run goes on
        print(f"op {index} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return None, 0, None
    try:
        return elapsed, faults, workload.check(index, result)
    except CheckFailed as error:
        print(f"op {index} failed its check: {error}", file=sys.stderr)
        return elapsed, faults, None


def timed_run(workload, seconds: float):
    """Run ops for ``seconds`` with ``workload.setup_repeats`` set-ups spread over them.

    The first set-up comes before the first op; set-up k runs once ops have
    taken k / ``setup_repeats`` of ``seconds``.  The host has slow stretches
    of tens of seconds, so set-ups run back to back would all fall in one;
    spread out, their median samples the whole run as the ops do.
    """
    setups: List[float] = []

    def set_up() -> None:
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)

    set_up()
    durations: List[float] = []
    attempted = failed = faults = 0
    begin = time.perf_counter()
    while attempted < workload.max_ops:
        ran = time.perf_counter() - begin
        if ran >= seconds:
            break
        if ran >= seconds * len(setups) / workload.setup_repeats:
            set_up()
            begin += setups[-1]
        elapsed, op_faults, diagnostics = run_op(workload, attempted)
        attempted += 1
        failed += diagnostics is None
        faults += op_faults
        if elapsed is not None:
            durations.append(elapsed)
    while len(setups) < workload.setup_repeats:
        set_up()
    if not durations:
        raise RuntimeError("no op completed")
    durations.sort()
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(durations),
        "ops_per_s": len(durations) / sum(durations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    lines = [
        f"setup_s      median of {len(setups)} set-ups spread over the run: "
        + ", ".join(f"{s:.3f}" for s in setups),
        f"op_p50_s     {metrics['op_p50_s']:.4f} s: median of {len(durations)} ops",
    ]
    if len(durations) > TAIL_OPS:
        rank = len(durations) - TAIL_OPS
        lines.append(
            f"op_tail_s    {durations[rank - 1]:.4f} s: p{100.0 * rank / len(durations):.1f} "
            f"of {len(durations)} ops, {TAIL_OPS} beyond it"
        )
    else:
        lines.append(f"op_tail_s    omitted: {len(durations)} ops, a tail needs more than {TAIL_OPS}")
    lines.append(f"ops_per_s    ops over the seconds spent in them; op = {workload.op_size}")
    lines.append(f"faults/op    {faults / len(durations):.0f} minor page faults per op")
    lines.append(f"failed_frac  {failed / attempted:.4f} ({failed} of {attempted} ops)")
    return metrics, attempted, failed, lines


def traced_run(workload):
    """One traced set-up, then ``trace_ops`` ops alternating untraced/traced."""
    from layers import Recorder, layer_metrics

    recorder = Recorder()
    with recorder.tracing():
        workload.setup()
    recorder.phase = "ops"
    times: Dict[bool, List[float]] = {False: [], True: []}
    indices: Dict[bool, List[int]] = {False: [], True: []}
    diagnostics: Dict[str, List[float]] = {}
    failed = 0
    for index in range(workload.trace_ops):
        traced = index % 2 == 1
        elapsed, _, found = run_op(workload, index, recorder.tracing if traced else contextlib.nullcontext)
        failed += found is None
        if elapsed is not None:
            times[traced].append(elapsed)
            indices[traced].append(index)
        for key, value in (found or {}).items():
            diagnostics.setdefault(key, []).append(value)
    if not times[False] or not times[True]:
        raise RuntimeError("no traced or no untraced op completed")
    untraced_p50 = statistics.median(times[False])
    traced_p50 = statistics.median(times[True])
    metrics = layer_metrics(recorder, len(times[True]))
    metrics.update({key: statistics.fmean(values) for key, values in diagnostics.items()})
    metrics["trace_overhead_frac"] = traced_p50 / untraced_p50 - 1.0
    metrics.update(workload.trace_extras(indices[True], indices[False], untraced_p50))
    lines = [
        f"traced work: one set-up and {len(times[True])} of {workload.trace_ops} ops; "
        f"op = {workload.op_size}",
        f"trace_overhead_frac base: untraced op p50 {untraced_p50:.4f} s, traced {traced_p50:.4f} s",
    ]
    if "kc_over_dm" in metrics:
        lines.append(
            f"kc_over_dm base: untraced KC op p50 {untraced_p50:.4f} s over density-matrix "
            f"op p50 {metrics['densitymatrix.op_s']:.5f} s, both 1000 shots at the same points"
        )
    if "api.plain_p50_s" in metrics:
        lines.append(
            f"api.guarded_overhead_frac base: plain submission p50 {metrics['api.plain_p50_s']:.4f} s "
            f"(untraced ops)"
        )
    if recorder.missing:
        lines.append("probes skipped, not in the program: " + ", ".join(recorder.missing))
    return metrics, workload.trace_ops, failed, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    memory = "freed memory kept" if keep_freed_memory() else "default malloc"
    # A disk cache named by the environment would turn cold compiles warm.
    os.environ.pop("REPRO_COMPILE_CACHE_DIR", None)
    # One client on a small shared machine: BLAS worker threads would only
    # contend with it.
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    source = os.path.join(ROOT, "src", "repro")
    try:
        import repro
        from workloads import WORKLOADS
    except ImportError as error:
        print(f"perfbench: cannot import the program from {source}: {error}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.abspath(repro.__file__)) != source:
        print(f"perfbench: imported repro from {repro.__file__}, not from {source}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    scratch = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        if args.trace:
            metrics, attempted, failed, lines = traced_run(workload)
        else:
            metrics, attempted, failed, lines = timed_run(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} ({memory})")
    for line in lines:
        print("  " + line)
    result = {}
    for entry in wanted:
        # A layer the workload does not reach reads 0; one whose probe is
        # missing from the program is None and is left out.
        value = metrics.get(entry["name"], 0.0)
        if value is None:
            print(f"  {entry['name']:<30} left out: a probe of its layer is missing")
            continue
        result[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
        print(f"  {entry['name']:<30} {value:.6g} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
