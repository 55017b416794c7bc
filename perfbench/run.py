"""z3forms benchmark: one seeded workload per call, end to end or traced.

    python3 perfbench/run.py --workload {verify-sweep,gauge-build,cli-requests}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; z3forms is imported from its ``src``.
Each workload runs in a fresh interpreter (``worker.py``) with one closed
loop: one caller, the next operation only after the previous one returns.

With ``--trace 0`` it prints every end-to-end metric of BENCHMARK.json.
Set-up runs three times (two set-up-only processes and the measuring
one) and ``setup_s`` is their median.  With ``--trace 1`` one process
alternates untraced and traced passes and prints every per-layer metric.
Human-readable lines go first; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``failed`` counts operations whose exit code or output is wrong.  Calls
that hit a documented defect of the CLI (``cligen.KNOWN_DEFECTS``) are
counted apart as known defects; ``failed_ratio`` includes both.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-sweep", "gauge-build", "cli-requests")
SETUP_SAMPLES = 3
#: Every process gets this long; the whole run must end within 180 s.
CHILD_TIMEOUT_S = 170

#: Per workload: what one operation and one pass are, and the name and unit
#: of the median the run prints in the workload's own terms.
OPERATION = {
    "verify-sweep": ("suite call", "verify all call", "verdict_s", "s"),
    "gauge-build": ("construction", "full construction pass", "build_s", "s"),
    "cli-requests": ("CLI call", "cycle of 400 requests", "request_ms", "ms"),
}


def _worker(args, mode: str, deadline: float) -> dict:
    env = dict(os.environ)
    env.pop("Z3FORMS_DIM", None)  # every request passes --dim itself
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker ({mode}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "z3forms" / "__init__.py").is_file():
        raise SystemExit(f"no z3forms sources under {ROOT / 'src'}")
    deadline = time.monotonic() + CHILD_TIMEOUT_S

    if args.trace:
        runs = [_worker(args, "traced", deadline)]
        values = runs[0]["layer_metrics"]
        wanted = spec["per_layer"]
    else:
        runs = [_worker(args, "setup", deadline) for _ in range(SETUP_SAMPLES - 1)]
        runs.append(_worker(args, "timed", deadline))
        wanted = spec["end_to_end"]

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    known = sum(r["known_defects"] for r in runs)
    failed_ratio = (failed + known) / attempted

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, "
          f"closed loop, 1 caller")
    if args.trace:
        values["failed_ratio"] = failed_ratio
        print(f"  traced passes: {runs[0]['passes']} (call counts from one pass, "
              f"times are medians); trace written to {runs[0]['trace_file']}")
    else:
        timed = runs[-1]
        durations = sorted(timed["durations_s"])
        n = len(durations)
        setups = sorted(r["setup_s"] for r in runs)
        values = {
            "op_ms.mean": statistics.fmean(durations) * 1000,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": timed["peak_rss_mb"],
        }
        op, one_pass, name, unit = OPERATION[args.workload]
        scale = 1000 if unit == "ms" else 1
        print(f"  operation: one {op}; {n} timed; a pass is one {one_pass}")
        if args.workload == "cli-requests":
            print(f"  {name}.p50 {statistics.median(durations) * scale:.4f} {unit} (n={n})")
            if n >= 1000:  # the highest percentile with at least ten samples beyond it
                print(f"  {name}.p99 {_percentile(durations, 0.99) * scale:.4f} {unit} "
                      f"(n={n})")
        elif timed["passes_s"]:
            passes = timed["passes_s"]
            print(f"  {name}.p50 {statistics.median(passes) * scale:.4f} {unit} "
                  f"(n={len(passes)} complete passes)")
        print(f"  setup_s samples: {', '.join(f'{s:.3f}' for s in setups)}")
    print(f"  failed_ratio {failed_ratio:.4f} ({failed} failed + {known} known defects "
          f"of {attempted} attempted)")
    for problem in (p for r in runs for p in r["problems"]):
        print(f"  problem: {problem}")

    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<34} {values[m['name']]:>14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
