"""Run one benchmark workload and print its result as the last line.

    python3 e2e_bench/run.py --workload paper-grid --seed 1 --seconds 30 \\
        --trace 0

Workloads: ``paper-grid``, ``delta-series``, ``fabric-stream`` (see
RATIONALE.md).  The command must start at the root of a source checkout
of this repository; it builds nothing and reads the package from
``src/``.

Every workload runs in a fresh child process with ``PYTHONHASHSEED``
pinned, so two runs of one seed do the same work.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` runs the workload twice, untraced
and then with per-layer spans, and prints the per-layer metrics with the
tracing overhead (traced ``wall_s`` / untraced ``wall_s``).  Every run
writes its full record — host, source lines per module, counts, the
per-layer predictions, and a Chrome trace when traced — under
``.bench_out/``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Exit code 0 only
when the workload ran to completion (``correct`` says whether every
verdict matched the answer key); no result is printed otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import signal
import statistics
import subprocess
import sys
import time

import record

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
HASH_SEED = "0"
#: A run (both children when traced) must end well inside 180 s.
BUDGET_S = 170.0
IMPORT_PROBES = 3
IMPORTS = "import repro.campaign.runner, repro.verify.delta, " \
          "repro.fabric.coordinator"
#: Workload-specific set-up repetitions (the baseline of delta-series
#: is ~8 s of SAT work, so it is set up once; see RATIONALE.md).
SETUP_REPS = {"paper-grid": 0, "delta-series": 1, "fabric-stream": 3}

#: Per-layer metrics that count work: identical across runs of a seed.
COUNT_METRICS = ("soc.builds", "sat.calls", "sat.conflicts",
                 "sat.decisions", "sat.propagations", "sat.vars_eliminated",
                 "upec.iterations", "verify.obligations", "campaign.jobs",
                 "aig.sim_pruned", "fabric.hits_served")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, as
    BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def _rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


# -- child: one workload in this process -------------------------------------


def child(args) -> int:
    if args.traced:
        import tracer

        tracer.install()
    start = time.perf_counter()
    import workloads

    imports_s = time.perf_counter() - start
    span_dir = OUT_DIR if args.traced else None
    if args.workload == "fabric-stream":
        outcome = workloads.fabric_stream(
            args.seed, args.seconds, args.probe, span_dir=span_dir,
            setup_reps=SETUP_REPS["fabric-stream"])
    elif args.workload == "delta-series":
        outcome = workloads.delta_series(
            args.seed, args.seconds, args.probe,
            setup_reps=SETUP_REPS["delta-series"])
    else:
        outcome = workloads.paper_grid(args.seed, args.seconds, args.probe)
    result = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "probe": args.probe,
        "traced": args.traced, "imports_s": imports_s,
        "setup_reps": outcome.setup_reps, "wall_s": outcome.wall_s,
        "ops_per_s": outcome.ops_per_s,
        "latency_p50_s": outcome.latency_p50_s,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "failures": outcome.failures[:20], "counts": outcome.counts,
        "workers": outcome.workers, "extra": outcome.extra,
        "peak_rss_mb": max(_rss_mb(resource.RUSAGE_SELF),
                           _rss_mb(resource.RUSAGE_CHILDREN)),
        "rss_mb": {"self": _rss_mb(resource.RUSAGE_SELF),
                   "largest_child": _rss_mb(resource.RUSAGE_CHILDREN)},
    }
    if args.traced:
        result["layer"], trace = _fold_spans(outcome)
        with open(args.out.with_suffix(".trace.json"), "w") as handle:
            json.dump(trace, handle)
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=1)
    return 0


def _fold_spans(outcome):
    import threading

    import tracer

    spans = tracer.spans()
    frame_bytes = tracer.COUNTERS["frame_bytes"]
    for path in outcome.span_files:
        with open(path) as handle:
            dumped = json.load(handle)
        os.unlink(path)
        spans += dumped["spans"]
        frame_bytes += dumped["counters"]["frame_bytes"]
    begin, end = outcome.phase
    spans = [s for s in spans if s["t0"] >= begin and s["t1"] <= end]
    layer = tracer.layer_metrics(spans, frame_bytes)
    layer.update(outcome.layer)
    cover = tracer.top_level_cover(spans, os.getpid(),
                                   threading.main_thread().ident)
    layer["trace.coverage"] = cover / (end - begin)
    return layer, tracer.chrome_trace(spans)


# -- parent: the benchmark command -------------------------------------------


def _run_child(args, traced: bool, deadline: float) -> dict:
    name = f"{args.workload}-seed{args.seed}-{'traced' if traced else 'run'}"
    out = OUT_DIR / f"{name}.json"
    argv = [sys.executable, str(HERE / "run.py"), "--child",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--out", str(out)]
    if traced:
        argv.append("--traced")
    if args.probe:
        argv.append("--probe")
    # Its own process group, so a timeout also stops its fabric workers.
    proc = subprocess.Popen(argv, env=_env(), cwd=ROOT,
                            stdout=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        code = proc.wait(max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"{name} did not finish within the budget")
    if code != 0:
        raise RuntimeError(f"{name} exited with code {code}")
    with open(out) as handle:
        return json.load(handle)


def _import_seconds() -> list[float]:
    times = []
    for _ in range(IMPORT_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORTS], env=_env(), cwd=ROOT,
                       check=True)
        times.append(time.perf_counter() - start)
    return times


def parent(args) -> int:
    deadline = time.monotonic() + BUDGET_S
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a "
              f"source checkout", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    environment = record.environment(ROOT, HASH_SEED)
    imports = _import_seconds()
    plain = _run_child(args, False, deadline)
    runs = [plain]
    if args.trace:
        traced = _run_child(args, True, deadline)
        runs.append(traced)
        values = dict(traced["layer"])
        values["trace.overhead"] = traced["wall_s"] / plain["wall_s"]
    else:
        setup_s = statistics.median(imports) + (
            statistics.median(plain["setup_reps"]) if plain["setup_reps"]
            else 0.0)
        values = {"wall_s": plain["wall_s"], "setup_s": setup_s,
                  "peak_rss_mb": plain["peak_rss_mb"],
                  "ops_per_s": plain["ops_per_s"],
                  "latency_p50_s": plain["latency_p50_s"]}
    units = metric_units("per_layer" if args.trace else "end_to_end")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    counts = [r["counts"] for r in runs]
    summary = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": {**environment, "workers": plain["workers"]},
        "import_probes_s": imports, "runs": runs,
        "predictions": record.PREDICTIONS,
        "metrics": metrics,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{name}.record.json", "w") as handle:
        json.dump(summary, handle, indent=1)
    for problem in sum((r["failures"] for r in runs), []):
        print(f"answer key: {problem}")
    print(f"record: {OUT_DIR / (name + '.record.json')}")
    print(json.dumps({
        "correct": failed == 0 and all(c == counts[0] for c in counts),
        "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=record.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="probe-sized work (the benchmark's own tests)")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--out", type=pathlib.Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args)
    try:
        return parent(args)
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
