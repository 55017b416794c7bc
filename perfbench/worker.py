"""One workload in a fresh interpreter: set up, then measure or trace.

Started by ``run.py``; prints one JSON object on its last stdout line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --mode {setup,timed,traced} --t0 T

``--t0`` is the CLOCK_MONOTONIC reading taken by the parent just before it
started this process, so ``setup_s`` covers interpreter start, importing
z3forms, generating the inputs and one untimed warm-up operation.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_z3forms() -> None:
    """Import z3forms from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import z3forms

    if Path(z3forms.__file__).resolve().parent != src / "z3forms":
        raise SystemExit(f"z3forms imported from {z3forms.__file__}, not from {src}")


def run_timed(workload, seconds: float) -> dict:
    """Time ops 0, 1, ... for ``seconds``; also sum each complete pass."""
    from workloads import Outcome

    outcome = Outcome()
    durations = []
    clock = time.perf_counter
    start = clock()
    i = 0
    while i == 0 or clock() - start < seconds:
        t = clock()
        result = workload.op(i)
        durations.append(clock() - t)
        outcome.add(workload.check(i, result))
        i += 1
    outcome.add(workload.final_check())
    cycle = workload.cycle
    passes = [sum(durations[k:k + cycle])
              for k in range(0, len(durations) - cycle + 1, cycle)]
    return {"durations_s": durations, "passes_s": passes, "outcome": outcome}


def run_traced(workload, seconds: float, seed: int) -> dict:
    """Alternate untraced and traced passes over ops ``0 .. cycle - 1``.

    Call counts come from one pass and must repeat exactly in every pass;
    times are medians over passes.
    """
    from layertrace import LAYERS, Tracer, layer_calls, layer_metrics
    from workloads import Outcome
    from z3forms.verify import SUITES

    predictions = json.loads((HERE / "layers.json").read_text())["predictions"]
    tracer = Tracer()
    outcome = Outcome()
    passes = []
    ops = range(workload.cycle)
    clock = time.perf_counter
    start = clock()
    while not passes or clock() - start < seconds:
        t = clock()
        results = [workload.op(i) for i in ops]
        untraced = clock() - t
        for i in ops:
            outcome.add(workload.check(i, results[i]))

        tracer.reset()
        tracer.install()
        try:
            t = clock()
            results = [tracer.operation(workload.label(i), lambda i=i: workload.op(i))
                       for i in ops]
            traced = clock() - t
        finally:
            tracer.uninstall()
        for i in ops:
            outcome.add(workload.check(i, results[i]))

        metrics = layer_metrics(tracer.stats)
        metrics["trace.overhead_s"] = traced - untraced
        for suite in SUITES:
            metrics[f"verify.suite_s.{suite}"] = 0.0
        for _, parent, name, begin, end in tracer.spans:
            if parent is None and name.startswith("verify.suite_s."):
                metrics[name] += end - begin
        passes.append({
            "untraced_s": untraced,
            "traced_s": traced,
            "metrics": metrics,
            "layer_calls": {layer: layer_calls(tracer.stats, layer) for layer in LAYERS},
        })

    first = passes[0]
    for p in passes[1:]:
        for name, value in first["metrics"].items():
            if name.endswith(".calls") or name.endswith(".errors"):
                if p["metrics"][name] != value:
                    outcome.record([f"{name} differs between passes: {value} != "
                                    f"{p['metrics'][name]}"])
    calls = first["layer_calls"]
    for layer in predictions["nonzero"][workload.name]:
        if not calls[layer]:
            outcome.record([f"prediction failed: no {layer} calls on {workload.name}"])
    for layer in predictions["zero"].get(workload.name, []):
        if calls[layer]:
            outcome.record([f"prediction failed: {calls[layer]} {layer} calls on "
                            f"{workload.name}"])

    metrics = {}
    for name, value in first["metrics"].items():
        if name.endswith(".calls") or name.endswith(".errors"):
            metrics[name] = value
        else:
            metrics[name] = statistics.median(p["metrics"][name] for p in passes)

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{workload.name}-seed{seed}.json"
    trace_file.write_text(json.dumps({
        "workload": workload.name,
        "seed": seed,
        "passes": passes,
        "functions": {f"{layer}.{name}": vars(stat)
                      for (layer, name), stat in sorted(tracer.stats.items())},
        "spans": [{"id": i, "parent": parent, "name": name, "start": s, "end": e}
                  for i, parent, name, s, e in tracer.spans],
    }, indent=1))
    return {"layer_metrics": metrics, "passes": len(passes), "outcome": outcome,
            "trace_file": str(trace_file.relative_to(ROOT))}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args()

    _import_z3forms()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    outcome = workload.check(0, workload.op(0))  # the warm-up operation
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0

    result: dict = {"setup_s": setup_s}
    if args.mode == "timed":
        result.update(run_timed(workload, args.seconds))
    elif args.mode == "traced":
        result.update(run_traced(workload, args.seconds, args.seed))
    if "outcome" in result:
        outcome.add(result.pop("outcome"))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["attempted"] = outcome.attempted
    result["failed"] = outcome.failed
    result["known_defects"] = outcome.known_defects
    result["problems"] = outcome.problems[:20]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
