"""One benchmark for the weekly loop, end to end and layer by layer.

Workloads (each loads one group of layers and leaves the rest idle):

* ``weekly_cycle`` -- the Saturday campaign: append, refresh, score,
  dispatch and triage over a store at steady-state history depth;
* ``retrain``      -- the weekly model refresh: datasets, predictor and
  locator fits, publish, shadow scoring, decision log;
* ``serve_read``   -- technician and ops reads over keep-alive HTTP;
* ``serve_churn``  -- the same reads with a model swap every 60 reads.

Run from the repository root::

    python benchmarks/suite/run.py --workload weekly_cycle --seed 1
    python benchmarks/suite/run.py --workload retrain --seed 1 --trace
    python benchmarks/suite/run.py --workload serve_read --repeat 10
    python benchmarks/suite/run.py --workload all --smoke

A single run prints its notes and metrics, and as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics untraced, or with ``--trace`` every per-layer metric (0 where the
workload leaves a layer idle) after the layer self-time tables and the
tracing overhead.  ``--repeat N`` and ``--workload all`` run each
workload in its own child process, ``--seed`` upward, and print every
end-to-end metric's median, quartiles and spread against its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
WORKLOADS = ("weekly_cycle", "retrain", "serve_read", "serve_churn")

#: End-to-end metrics: unit, direction, regression bound (a share of the
#: parent's median).  Every workload reports every one of them.
E2E = {
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.10),
    "latency_ms": ("ms", "lower", 0.25),
    "throughput_per_s": ("1/s", "higher", 0.25),
}

_SECONDS = {
    "netsim.generate_s", "store.append_s", "store.refresh_s",
    "scoring.score_week_s", "store.read_s", "features.encode_s",
    "ml.ensemble_s", "dispatch.cut_s", "fleet.triage_s",
    "cycle.unattributed_s", "data.ticket_dataset_s", "predictor.fit_s",
    "predictor.select_base_s", "predictor.select_derived_s",
    "predictor.final_train_s", "data.locator_dataset_s", "locator.fit_s",
    "registry.publish_s", "scoring.shadow_s", "lifecycle.decision_append_s",
    "retrain.unattributed_s", "scoring.cold_s",
}
_ROUTES = ("score", "explain", "locate", "locate_batch", "dispatch", "triage")
_MILLISECONDS = {
    *(f"route.{r}.p50_ms" for r in _ROUTES),
    *(f"service.handle_ms.{r}" for r in _ROUTES),
    "http.overhead_ms", "request.tail_ms", "explain.build_ms", "swap.p50_ms",
    "registry.activate_ms", "service.reload_ms",
}

#: Per-layer metrics: unit and direction.  Reported by every workload.
PER_LAYER = {
    **{name: ("s", "lower") for name in sorted(_SECONDS)},
    **{name: ("ms", "lower") for name in sorted(_MILLISECONDS)},
    "scoring.workers": ("count", "higher"),
    "fleet.clusters": ("count", "higher"),
    "fleet.suppressed": ("count", "higher"),
    "registry.bundle_bytes": ("bytes", "lower"),
    "predictor.n_columns": ("count", "lower"),
    "predictor.precision_at_capacity": ("ratio", "higher"),
    "locator.top3": ("ratio", "higher"),
    "cache.hit_ratio": ("ratio", "higher"),
    "cache.misses": ("count", "lower"),
    "scoring.cold_runs": ("count", "lower"),
}


def _run_workload(name, seed, seconds, trace, smoke, work, checks) -> dict:
    import cycle
    import retrain
    import serve

    if name == "weekly_cycle":
        return cycle.run(seed, seconds, trace, smoke, work, checks)
    if name == "retrain":
        return retrain.run(seed, seconds, trace, smoke, work, checks)
    return serve.run(seed, seconds, trace, smoke, work, checks,
                     churn=name == "serve_churn")


def single(args) -> int:
    """One run of one workload; the last stdout line is the result JSON."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}: run this from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from measure import Checks

    work = ROOT / ".bench_suite" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    try:
        out = _run_workload(args.workload, args.seed, args.seconds,
                            bool(args.trace), args.smoke, work, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    import numpy as np
    from repro.parallel import worker_count

    print(f"== {args.workload} seed {args.seed} ({'smoke' if args.smoke else 'full'}"
          f" sizes, {args.seconds:g}s per phase, cpu_count {os.cpu_count()}, "
          f"scoring workers {worker_count(None)}, numpy {np.__version__})")
    for note in out["notes"]:
        print(f"  {note}")
    for name, (unit, _, _) in E2E.items():
        print(f"  {name:<18} {out['e2e'][name]:>12.4f} {unit}")
    for failure in checks.failures:
        print(f"  FAILED CHECK: {failure}")

    if args.trace:
        for table in out["tables"]:
            print(table)
        print("tracing overhead (traced - untraced):")
        for name, (unit, _, _) in E2E.items():
            plain, traced = out["e2e"][name], out["traced_e2e"][name]
            share = (traced - plain) / plain if plain else 0.0
            print(f"  {name:<18} {traced - plain:>+12.4f} {unit} "
                  f"({100 * share:+.1f}%)")
        traces = ROOT / ".bench_suite" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        path = traces / f"{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "spans": out["spans"],
        }))
        print(f"spans written to {path.relative_to(ROOT)}")
        metrics = {
            name: {"value": float(out["layers"].get(name, 0.0)), "unit": unit}
            for name, (unit, _) in PER_LAYER.items()
        }
        for name, metric in metrics.items():
            if metric["value"]:  # zero: the workload leaves the layer idle
                print(f"  {name:<36} {metric['value']:>14.4f} {metric['unit']}")
    else:
        metrics = {
            name: {"value": float(out["e2e"][name]), "unit": unit}
            for name, (unit, _, _) in E2E.items()
        }
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


def repeated(args) -> int:
    """Each workload ``--repeat`` times in child processes; summarise."""
    from measure import summary

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    status = 0
    for workload in workloads:
        for i in range(args.repeat):
            seed = args.seed + i
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ] + (["--smoke"] if args.smoke else [])
            child = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True,
                                     cwd=ROOT)
            try:
                stdout, stderr = child.communicate(timeout=900)
            finally:
                # SIGTERM, not SIGKILL: the run then stops its own children.
                if child.poll() is None:
                    child.terminate()
                    child.communicate()
            lines = stdout.strip().splitlines()
            if child.returncode != 0 or not lines:
                sys.stderr.write(stdout + stderr)
                print(f"{workload} seed {seed}: FAILED "
                      f"(exit code {child.returncode})")
                status = 1
                continue
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            results[workload].append(result)
            if not result["correct"]:
                status = 1

    print("\n== summary: median [q1, q3], spread = (q3 - q1) / median")
    final: dict[str, dict] = {}
    for workload, runs in results.items():
        if not runs:
            continue
        print(f"{workload} ({len(runs)} runs, "
              f"{sum(r['failed'] for r in runs)} failed ops)")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            stats = summary(values)
            bound = E2E[name][2] if name in E2E else None
            verdict = ""
            if bound is not None:
                verdict = (f"  bound {bound:.2f} "
                           f"{'ok' if stats['spread'] <= bound else 'WIDE'}")
            print(f"  {name:<36} {stats['median']:>12.4f} {unit:<6} "
                  f"[{stats['q1']:.4f}, {stats['q3']:.4f}] "
                  f"spread {stats['spread']:.3f}{verdict}")
            key = name if len(workloads) == 1 else f"{workload}:{name}"
            final[key] = {"value": stats["median"], "unit": unit}
    every = [r for runs in results.values() for r in runs]
    print(json.dumps({
        "correct": status == 0 and all(r["correct"] for r in every),
        "attempted": sum(r["attempted"] for r in every),
        "failed": sum(r["failed"] for r in every),
        "metrics": final,
    }))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (>= 0); --repeat uses seed, seed+1, ...")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of each measured phase (default 6, "
                             "smoke 2)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="also run a traced phase and report per-layer "
                             "metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, each in a child process")
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes: all four workloads in about a "
                             "minute")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    if args.seconds is None:
        args.seconds = 2.0 if args.smoke else 6.0
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # A terminated run still stops its server and harness children and
    # removes its work directory: the handlers in ``finally`` blocks run.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if args.workload == "all" or args.repeat > 1:
        return repeated(args)
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
