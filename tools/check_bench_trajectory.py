#!/usr/bin/env python3
"""Benchmark trajectory gate: BENCH_all.json must stay above real floors.

Validates the committed ``BENCH_all.json`` (schema + absolute floors), and
— when CI hands it a freshly regenerated artifact — gates the fresh run
against the same floors and prints the committed-vs-fresh drift per
headline metric.  Absolute floors rather than committed-vs-fresh ratios:
shared runners are 2-5x slower and noisier than the machines that commit
artifacts, so a ratio gate would either flap or need so much headroom it
gates nothing.

Every floor is real (non-zero) and env-overridable for *slower* runners,
never disableable to 0.  Local measurements vs floors:

===========================  ============  =======================
metric                        local         floor (CI headroom)
===========================  ============  =======================
api_speedup                   ~19x          >= 3.0   (~6x slack)
sweep_speedup                 ~74x          >= 3.0   (~25x slack)
stabilizer_seconds            ~0.12s        <= 2.0   (~17x slack)
optimizer_speedup             ~2.2x         >= 1.25  (~1.8x slack)
robustness_overhead           ~0.07         <= 0.60  (~9x slack)
===========================  ============  =======================

Usage::

    python tools/check_bench_trajectory.py                # committed only
    python tools/check_bench_trajectory.py --fresh BENCH_all.fresh.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SECTIONS = ("api", "sweep", "stabilizer", "optimizer", "robustness")

# metric -> (env override, default bound, "min" floor or "max" ceiling)
GATES = {
    "api_speedup": ("BENCH_API_MIN_SPEEDUP", 3.0, "min"),
    "sweep_speedup": ("BENCH_SWEEP_MIN_SPEEDUP", 3.0, "min"),
    "stabilizer_seconds": ("BENCH_STABILIZER_MAX_SECONDS", 2.0, "max"),
    "optimizer_speedup": ("BENCH_OPTIMIZER_MIN_SPEEDUP", 1.25, "min"),
    "robustness_overhead": ("BENCH_ROBUSTNESS_MAX_OVERHEAD", 0.60, "max"),
}


def load_artifact(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        artifact = json.load(handle)
    if not isinstance(artifact, dict):
        raise SystemExit(f"{path}: not a JSON object")
    return artifact


def check_artifact(label: str, path: Path, artifact: dict) -> list:
    errors = []
    if artifact.get("benchmark") != "bench_all":
        errors.append(f"{label}: {path} is not a bench_all artifact")
        return errors
    for section in SECTIONS:
        if section not in artifact:
            errors.append(f"{label}: missing section {section!r} (partial run?)")
    metrics = artifact.get("metrics", {})
    for metric, (env, default, kind) in GATES.items():
        bound = float(os.environ.get(env, default))
        if bound <= 0:
            errors.append(f"{label}: {env} must be positive, got {bound} (gate disabled)")
            continue
        value = metrics.get(metric)
        if not isinstance(value, (int, float)):
            errors.append(f"{label}: metrics[{metric!r}] missing or non-numeric")
            continue
        if kind == "min" and value < bound:
            errors.append(f"{label}: {metric} = {value} below floor {bound} ({env})")
        if kind == "max" and value > bound:
            errors.append(f"{label}: {metric} = {value} above ceiling {bound} ({env})")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--committed",
        type=Path,
        default=ROOT / "BENCH_all.json",
        help="the committed artifact (default: repository root BENCH_all.json)",
    )
    parser.add_argument(
        "--fresh",
        type=Path,
        default=None,
        help="a freshly regenerated artifact to gate and diff against committed",
    )
    options = parser.parse_args()

    committed = load_artifact(options.committed)
    errors = check_artifact("committed", options.committed, committed)

    if options.fresh is not None:
        fresh = load_artifact(options.fresh)
        errors.extend(check_artifact("fresh", options.fresh, fresh))
        print(f"{'metric':28s} {'committed':>12s} {'fresh':>12s}")
        for metric in GATES:
            old = committed.get("metrics", {}).get(metric)
            new = fresh.get("metrics", {}).get(metric)
            print(f"{metric:28s} {old!s:>12s} {new!s:>12s}")

    for error in errors:
        print(error, file=sys.stderr)
    checked = 1 if options.fresh is None else 2
    print(f"checked {checked} artifact(s), {len(errors)} gate violation(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
