"""The three closed-loop workloads.

Each workload runs in the calling (fresh) process, checks every verdict
against :mod:`answer_key`, and returns an :class:`Outcome`: its set-up
repetitions, the measured phase's wall clock and rates, the operations
it attempted and failed, and the exact work counts the repeat guard
compares.  Library calls always go through module attributes
(``runner.run_campaign``, ``delta.plan_delta_campaign``), so the spans
:mod:`tracer` installs see them.

The work is a pure function of ``(seed, seconds, probe)``: ``seconds``
sizes the repeated phases by count, never by elapsed time, so two runs
of one seed do identical work however fast the host is.
"""

from __future__ import annotations

import gc
import os
import pathlib
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import answer_key as key
from repro.campaign import runner
from repro.campaign.executors import FabricExecutor, SerialExecutor
from repro.campaign.grids import edit_variants
from repro.campaign.spec import CampaignSpec
from repro.verify import delta

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
#: Rates are timed over consecutive operations grouped into batches of
#: at least this many seconds (no sample shorter than about a second).
BATCH_S = 1.0
#: The reference measured-phase length the counts below are sized for.
NOMINAL_S = 30
#: Out-of-cone edits in each chunk between two in-cone edits.
BATCH_EDITS = 24


@dataclass
class Outcome:
    setup_reps: list = field(default_factory=list)
    wall_s: float = 0.0
    ops_per_s: float = 0.0
    latency_p50_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    #: Work counts that must repeat exactly for one seed.
    counts: dict = field(default_factory=dict)
    #: Per-layer values measured by the workload itself.
    layer: dict = field(default_factory=dict)
    #: Measured-phase bounds (perf_counter) for span filtering.
    phase: tuple = (0.0, 0.0)
    span_files: list = field(default_factory=list)
    workers: int = 0
    extra: dict = field(default_factory=dict)

    def record(self, problems: list[str]) -> None:
        """Count one operation, failed when it has any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(problems)


def _scaled(count: int, seconds: int, floor: int) -> int:
    return max(floor, round(count * seconds / NOMINAL_S))


def batch_rates(start: float, stamps: list[float], weights=None) -> list:
    """Operations per second over consecutive batches of >= BATCH_S.

    ``stamps`` are completion times of back-to-back operations that
    began at ``start``; a trailing batch shorter than BATCH_S is folded
    into the one before it.
    """
    weights = weights or [1] * len(stamps)
    batches: list[list[float]] = []  # [t_begin, t_end, ops]
    begin, ops = start, 0
    for stamp, weight in zip(stamps, weights):
        ops += weight
        if stamp - begin >= BATCH_S:
            batches.append([begin, stamp, ops])
            begin, ops = stamp, 0
    if ops:
        if batches:
            batches[-1][1] = stamps[-1]
            batches[-1][2] += ops
        else:
            batches.append([begin, stamps[-1], ops])
    return [n / (t1 - t0) for t0, t1, n in batches]


def _sim_pruned(results) -> int:
    return sum(r.stats.candidates_pruned_by_sim for r in results
               if not r.cached)


# -- paper-grid --------------------------------------------------------------


def paper_grid(seed: int, seconds: int, probe: bool) -> Outcome:
    """The paper's variant table, cold, serial, no cache.

    The grid is the paper's fixed experiment: ``seed`` and ``seconds``
    do not change it.
    """
    out = Outcome()
    spec = CampaignSpec.from_file(ROOT / "examples" / "specs" / "paper.json")
    if probe:
        spec.variants = {"no_hwpe": spec.variants["no_hwpe"]}
        spec.algorithms = ["alg1"]
    stamps: list[float] = []
    gc.collect()
    start = time.perf_counter()
    campaign = runner.run_campaign(
        spec, executor=SerialExecutor(),
        on_result=lambda _r: stamps.append(time.perf_counter()))
    end = time.perf_counter()
    out.phase = (start, end)
    out.wall_s = end - start
    # Closed loop: each obligation is issued when the previous verdict
    # returns, so its latency is the gap between completions.
    latencies = [b - a for a, b in zip([start] + stamps, stamps)]
    out.latency_p50_s = statistics.median(latencies)
    out.ops_per_s = len(campaign.results) / out.wall_s
    for result in campaign.results:
        job = result.job
        want = key.PAPER[(job.variant, job.algorithm, job.depth)]
        out.record([f"{job.label()}: {result.verdict}, key says {want}"]
                   if result.verdict != want else [])
    out.counts = {"obligations": len(campaign.results)}
    out.extra = {"samples": {"latency": len(latencies), "rate_batches": 1}}
    out.layer = {"campaign.jobs": len(campaign.results),
                 "aig.sim_pruned": _sim_pruned(campaign.results)}
    return out


# -- delta-series ------------------------------------------------------------


def delta_spec(probe: bool) -> CampaignSpec:
    algorithms = [{"algorithm": "bmc", "depths": [3]},
                  {"algorithm": "k-induction", "depths": [2]}]
    if not probe:
        algorithms.insert(0, "alg1")
    return CampaignSpec(
        name="delta-series",
        base="FORMAL_TINY",
        variants={key.UNTOUCHED: {}, key.EDITED: {"include_hwpe": False}},
        algorithms=algorithms,
        hints="first",
    )


def edit_series(seed: int, n_in: int, n_chunks: int,
                batch_edits: int = BATCH_EDITS) -> list[tuple]:
    """The seeded schedule: in-cone edits, with a chunk of out-of-cone
    edits after every ``n_in // n_chunks`` of them.

    Each class of edit appears equally often and cycles through its
    values, so the seed orders a fixed multiset of edits: an edit's
    cost depends on its class and value, and the mix stays the same.
    Entries are ``("in-cone", (field, value))`` and
    ``("served", [(field, value), ...])``.
    """
    rng = random.Random(seed)

    def draw(classes: dict, count: int) -> list[tuple[str, object]]:
        names = sorted(classes)
        edits = []
        for i in range(count):
            name = names[i % len(names)]
            values = classes[name]
            edits.append((name, values[i // len(names) % len(values)]))
        rng.shuffle(edits)
        return edits

    served = draw(key.OUT_OF_CONE, n_chunks * batch_edits)
    every = max(1, n_in // n_chunks)
    schedule = []
    for number, edit in enumerate(draw(key.IN_CONE, n_in), 1):
        schedule.append(("in-cone", edit))
        if number % every == 0 and served:
            schedule.append(("served", served[:batch_edits]))
            served = served[batch_edits:]
    return schedule


def _matrix_problems(results, where: str) -> list[str]:
    problems = []
    for result in results:
        job = result.job
        want = key.DELTA[(job.algorithm, job.depth)]
        if result.verdict != want:
            problems.append(f"{where} {job.label()}: {result.verdict}, "
                            f"key says {want}")
    return problems


def delta_series(seed: int, seconds: int, probe: bool,
                 setup_reps: int = 1) -> Outcome:
    """A cold baseline (set-up), then seeded edits to the DMA-only
    variant, each re-verified against the baseline report."""
    out = Outcome()
    spec = delta_spec(probe)
    baselines = []
    for _ in range(setup_reps):
        start = time.perf_counter()
        baselines.append(runner.run_campaign(spec, executor=SerialExecutor()))
        out.setup_reps.append(time.perf_counter() - start)
    for baseline in baselines:
        out.record(_matrix_problems(baseline.results, "baseline"))
    artifact = {"spec": spec.to_dict(), "campaign": baselines[-1].to_dict()}

    n_in = 2 if probe else _scaled(10, seconds, 10)
    n_chunks = 1 if probe else _scaled(5, seconds, 2)
    schedule = edit_series(seed, n_in, n_chunks,
                           4 if probe else BATCH_EDITS)
    served = rerun = jobs = pruned = n_edits = 0
    audited_plan = None

    def reverify(field_name: str, value) -> None:
        nonlocal served, rerun, jobs, pruned, n_edits, audited_plan
        number = n_edits
        n_edits += 1
        edited = edit_variants(spec, {field_name: value}, only=(key.EDITED,),
                               name=f"delta-series-edit-{number}")
        plan = delta.plan_delta_campaign(edited, artifact)
        campaign = runner.run_campaign(plan.jobs, preset=plan.serve,
                                       executor=SerialExecutor())
        where = f"edit {number} ({field_name}={value!r})"
        _, must_rerun = key.expected_partition(field_name)
        out.record([f"{where}: served in-cone {job.label()}"
                    for job in plan.jobs
                    if job.index in plan.serve and job.variant in must_rerun]
                   + _matrix_problems(campaign.results, where))
        served += len(plan.serve)
        rerun += len(plan.rerun)
        jobs += len(campaign.results)
        pruned += _sim_pruned(campaign.results)
        if audited_plan is None and field_name in key.OUT_OF_CONE:
            audited_plan = plan

    latencies, served_s, timeline = [], [], []
    gc.collect()
    start = time.perf_counter()
    for kind, edits in schedule:
        if kind == "in-cone":
            issued = time.perf_counter()
            reverify(*edits)
            latencies.append(time.perf_counter() - issued)
            timeline.append([f"{edits[0]}={edits[1]!r}", latencies[-1]])
            continue
        for edit in edits:
            issued = time.perf_counter()
            reverify(*edit)
            served_s.append(time.perf_counter() - issued)
        timeline.append(["served edits", sum(served_s[-len(edits):])])
    end = time.perf_counter()
    out.phase = (start, end)
    out.wall_s = end - start
    out.latency_p50_s = statistics.median(latencies)
    # Served edits are timed one by one and their rate is taken over
    # all of them together (several seconds of served work, spread in
    # chunks through the series): a slow stretch of the host then hits
    # only part of the sample, and no edit's time is thrown away.
    out.ops_per_s = len(served_s) / sum(served_s)

    # Soundness audit, outside the timed phase: re-verify a sample of
    # what the first out-of-cone plan served and compare payloads.
    try:
        audit = delta.audit_cone_hits(audited_plan, fraction=0.1)
        out.record([])
    except delta.DeltaAuditError as exc:
        out.record([f"cone-hit audit: {exc}"])
        audit = {"sampled": 0, "indices": []}
    out.extra = {"samples": {"latency": len(latencies),
                             "served_edits": len(served_s)},
                 "timeline": timeline, "audit": audit}
    out.counts = {"edits": n_edits, "served": served, "rerun": rerun,
                  "audited": audit["sampled"]}
    out.layer = {"campaign.jobs": jobs, "aig.sim_pruned": pruned}
    return out


# -- fabric-stream -----------------------------------------------------------


def fabric_spec(probe: bool) -> CampaignSpec:
    """The 18-variant fabric grid, in a fixed order: with one donor
    variant per method, the order decides which verdicts queue behind
    which, so a seeded order would move latency_p50_s by ~20%."""
    variants = {}
    grid = (("rr", "tdm"), (2,), (False,)) if probe else \
        (("rr", "fixed", "tdm"), (1, 2, 3), (True, False))
    for arbitration in grid[0]:
        for latency in grid[1]:
            for hwpe in grid[2]:
                name = f"{arbitration}-lat{latency}-" \
                       f"{'hwpe' if hwpe else 'dma'}"
                variants[name] = {"arbitration": arbitration,
                                  "priv_mem_latency": latency,
                                  "include_hwpe": hwpe}
    return CampaignSpec(
        name="fabric-stream",
        base="FORMAL_TINY",
        variants=variants,
        algorithms=[{"algorithm": "bmc", "depths": [2, 3]},
                    {"algorithm": "k-induction", "depths": [2]}],
        hints="first",
    )


class _Fabric:
    """A coordinator thread in this process plus worker subprocesses."""

    def __init__(self, workers: int, span_dir: pathlib.Path | None):
        from repro.fabric.coordinator import Coordinator

        self.coordinator = Coordinator(port=0, quiet=True)
        host, port = self.coordinator.bind()
        self.address = f"{host}:{port}"
        self.thread = threading.Thread(target=self.coordinator.serve,
                                       name="fabric-coordinator",
                                       daemon=True)
        self.thread.start()
        self.span_files = []
        self.procs = []
        for index in range(workers):
            env = dict(os.environ)
            if span_dir is not None:
                path = span_dir / f"worker-{os.getpid()}-{index}.json"
                env["E2E_BENCH_SPANS"] = str(path)
                self.span_files.append(path)
            self.procs.append(subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"),
                 "--connect", self.address, "--quiet",
                 "--name", f"bench-{index}"],
                stdout=subprocess.DEVNULL, env=env))
        self._wait_registered(workers)

    def _wait_registered(self, count: int, timeout: float = 60.0) -> None:
        from repro.fabric import fetch_status

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status = fetch_status(self.address)
            if status["coordinator"]["workers"] >= count:
                return
            if any(p.poll() is not None for p in self.procs):
                break
            time.sleep(0.02)
        self.stop()
        raise RuntimeError(f"{count} fabric worker(s) did not register")

    def stop(self) -> None:
        from repro.fabric import request_shutdown

        try:
            request_shutdown(self.address)
        except (OSError, ConnectionError):
            pass
        self.thread.join(10)
        for proc in self.procs:
            try:
                proc.wait(20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


class _StampedFabricExecutor(FabricExecutor):
    """Records when each job was handed to the coordinator."""

    def __init__(self, address, submitted: dict):
        super().__init__(address)
        self._submitted = submitted

    def submit(self, job, hints):
        self._submitted[job.index] = time.perf_counter()
        return super().submit(job, hints)


def fabric_stream(seed: int, seconds: int, probe: bool,
                  span_dir: pathlib.Path | None = None,
                  setup_reps: int = 3) -> Outcome:
    """A cold fabric campaign, then the identical campaign resubmitted
    and answered from the coordinator's store.

    The grid is fixed: ``seed`` does not change it (see fabric_spec).
    """
    from repro.fabric import fetch_status

    out = Outcome()
    workers = 1 if probe else max(1, (os.cpu_count() or 2) - 1)
    out.workers = workers
    spec = fabric_spec(probe)
    fabric = None
    for rep in range(setup_reps):
        if fabric is not None:
            fabric.stop()
        start = time.perf_counter()
        # Only the fabric that serves the run records worker spans.
        fabric = _Fabric(workers, span_dir if rep == setup_reps - 1
                         else None)
        out.setup_reps.append(time.perf_counter() - start)
    try:
        submitted: dict[int, float] = {}
        latencies = []

        def received(result) -> None:
            latencies.append(time.perf_counter() - submitted[result.job.index])

        gc.collect()
        start = time.perf_counter()
        cold = runner.run_campaign(
            spec, executor=_StampedFabricExecutor(fabric.address, submitted),
            on_result=received)
        cold_end = time.perf_counter()
        n_cached = 2 if probe else _scaled(48, seconds, 16)
        stamps, campaigns = [], []
        for _ in range(n_cached):
            campaigns.append(runner.run_campaign(
                spec, executor=FabricExecutor(fabric.address)))
            stamps.append(time.perf_counter())
        end = time.perf_counter()
        status = fetch_status(fabric.address)
    finally:
        fabric.stop()
    out.span_files = fabric.span_files
    out.phase = (start, end)
    out.wall_s = cold_end - start
    out.latency_p50_s = statistics.median(latencies)
    rates = batch_rates(cold_end, stamps, [len(c.results) for c in campaigns])
    out.ops_per_s = statistics.median(rates)

    def check(results, cached: bool) -> None:
        for result in results:
            job = result.job
            arbitration = spec.variants[job.variant]["arbitration"]
            want = key.FABRIC[(arbitration, job.algorithm, job.depth)]
            if result.verdict != want:
                out.record([f"{job.label()}: {result.verdict}, "
                            f"key says {want}"])
            elif cached and not result.cached:
                out.record([f"{job.label()}: not served from the store"])
            else:
                out.record([])

    check(cold.results, cached=False)
    for campaign in campaigns:
        check(campaign.results, cached=True)
    cache = status["coordinator"]["cache"]
    busy = sum(r.seconds for r in cold.results if not r.cached)
    out.counts = {"cold_jobs": len(cold.results),
                  "resubmissions": n_cached,
                  "hits_served": cache["hits_served"]}
    out.layer = {
        "campaign.jobs": len(cold.results) * (1 + n_cached),
        "aig.sim_pruned": _sim_pruned(cold.results),
        "fabric.worker_busy_share": busy / (workers * out.wall_s),
        "fabric.hits_served": cache["hits_served"],
        "fabric.duplicate_results": status["coordinator"]
        ["duplicate_results"],
    }
    out.extra = {"samples": {"latency": len(latencies),
                             "rate_batches": len(rates)}}
    return out
