"""Per-layer spans, recorded from outside around ``repro``'s public calls.

:func:`install` replaces the bindings callers actually use (a class
method, or the module attribute a caller looks up at call time) with a
thin wrapper that records one span per *outermost* call: nested calls of
the same layer on the same thread pass straight through, so a recursive
or self-calling function is timed once.  A span carries its name
(``layer.what``), thread, start/end (``time.perf_counter``, which is the
system-wide monotonic clock on Linux, so worker spans line up), its
parent span, the obligation or edit it served (``tag``) and counters.

Spans are kept per thread — the fabric coordinator runs on its own
thread — and written out once, when the run ends: :func:`dump` for a
worker process, :func:`chrome_trace` for the merged Chrome trace-event
file that Perfetto and ``chrome://tracing`` open offline.

:func:`layer_metrics` folds the spans of every process into the
per-layer metric table of the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time

_ids = itertools.count(1)
_spans: list[dict] = []
_state = threading.local()
#: Process-wide counters that are not spans (bytes off the wire).
COUNTERS: dict[str, int] = {"frame_bytes": 0}
_installed: list[tuple[object, str, object]] = []


def _thread():
    if not hasattr(_state, "stack"):
        _state.stack = []
        _state.open = {}
    return _state


def _wrap(fn, name, group, enter=None, leave=None, tag_of=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = _thread()
        if state.open.get(group):
            return fn(*args, **kwargs)
        parent = state.stack[-1] if state.stack else None
        tag = tag_of(args, kwargs) if tag_of else None
        if tag is None and parent is not None:
            tag = parent["tag"]
        span = {"id": next(_ids), "name": name, "pid": os.getpid(),
                "tid": threading.get_ident(), "parent":
                parent["id"] if parent else None, "tag": tag,
                "counters": {}}
        before = enter(args, kwargs) if enter else None
        state.open[group] = 1
        state.stack.append(span)
        span["t0"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["t1"] = time.perf_counter()
            state.stack.pop()
            state.open[group] = 0
            _spans.append(span)
        if leave:
            span["counters"] = leave(before, args, kwargs, result)
        return result

    wrapper.__wrapped_by_bench__ = True
    return wrapper


def _patch(owner, attr, name, group=None, **hooks) -> None:
    original = getattr(owner, attr)
    if getattr(original, "__wrapped_by_bench__", False):
        return
    setattr(owner, attr, _wrap(original, name, group or name, **hooks))
    _installed.append((owner, attr, original))


# -- hooks -------------------------------------------------------------------

_SAT_KEYS = ("conflicts", "decisions", "propagations")


def _sat_enter(args, kwargs):
    return {k: args[0].stats[k] for k in _SAT_KEYS}


def _sat_leave(before, args, kwargs, result):
    stats = args[0].stats
    return {k: stats[k] - before[k] for k in _SAT_KEYS}


def _bve_leave(before, args, kwargs, result):
    return {"vars_eliminated": result.vars_eliminated}


def _alg1_leave(before, args, kwargs, result):
    return {"iterations": len(result.iterations)}


def _hit_leave(before, args, kwargs, result):
    return {"hit": int(result is not None)}


def _plan_leave(before, args, kwargs, result):
    return {"jobs": len(result.jobs), "served": len(result.serve)}


def _execute_tag(args, kwargs):
    return args[0].label or None


def _campaign_tag(args, kwargs):
    spec = args[0]
    if isinstance(spec, list):
        return spec[0].campaign if spec else None
    return spec.name


def _recv_exact_counting(fn):
    @functools.wraps(fn)
    def counting(sock, n):
        data = fn(sock, n)
        if data:
            COUNTERS["frame_bytes"] += len(data)
        return data

    counting.__wrapped_by_bench__ = True
    return counting


def install() -> None:
    """Wrap every measured layer boundary (idempotent)."""
    mod = importlib.import_module
    protocol = mod("repro.verify.protocol")
    runner = mod("repro.campaign.runner")
    executors = mod("repro.campaign.executors")
    delta = mod("repro.verify.delta")
    cache = mod("repro.verify.cache")

    _patch(mod("repro.soc.pulpissimo"), "build_soc", "soc.build")
    blaster = mod("repro.aig.bitblast").BitBlaster
    for attr in ("vec", "bit"):
        _patch(blaster, attr, "aig.bitblast")
    coi = mod("repro.aig.coi")
    for owner in (coi, mod("repro.formal.session"), delta):
        _patch(owner, "reg_coi", "aig.coi")
    _patch(coi, "extract", "aig.coi")
    bitsim = mod("repro.aig.bitsim").BitSim
    for attr in ("alias", "word", "words", "valid_lanes", "satisfy"):
        _patch(bitsim, attr, "aig.bitsim")
    _patch(mod("repro.sat.solver").Solver, "solve", "sat.solve",
           enter=_sat_enter, leave=_sat_leave)
    _patch(mod("repro.sat.preprocess").CnfSimplifier, "simplify", "sat.bve",
           leave=_bve_leave)
    _patch(mod("repro.upec.miter").MiterSession, "ensure", "upec.encode")
    _patch(mod("repro.verify.engine"), "upec_ssc", "upec.alg1",
           leave=_alg1_leave)
    _patch(mod("repro.formal.bmc").BmcSession, "check_through", "formal.bmc")
    induction = mod("repro.formal.induction")
    for attr in ("prove_invariant", "find_induction_depth"):
        _patch(induction, attr, "formal.induction")
    for owner in (mod("repro.ift"), mod("repro.ift.engine")):
        _patch(owner, "bounded_ift_check", "ift.check")
    _patch(runner, "execute", "verify.execute", tag_of=_execute_tag)
    for attr in ("job_cache_key", "_job_cache_key"):
        _patch(runner, attr, "verify.key")
    store = cache.VerdictCache
    _patch(store, "get", "verify.cache_get", leave=_hit_leave)
    _patch(store, "get_cone", "verify.cache_get", leave=_hit_leave)
    _patch(store, "put", "verify.cache_put")
    _patch(delta, "diff_designs", "verify.diff")
    _patch(delta, "plan_delta_campaign", "verify.plan", leave=_plan_leave,
           tag_of=_campaign_tag)
    _patch(delta, "cone_fingerprint", "verify.fingerprint")
    _patch(runner, "run_campaign", "campaign.run", tag_of=_campaign_tag)
    for cls in (executors.SerialExecutor, executors.FabricExecutor):
        for attr in ("submit", "drain"):
            _patch(cls, attr, "campaign.executor")
    for name in ("repro.campaign.executors", "repro.fabric",
                 "repro.fabric.coordinator", "repro.fabric.worker",
                 "repro.verify.worker"):
        owner = mod(name)
        for attr in ("send_frame", "recv_frame"):
            if hasattr(owner, attr):
                _patch(owner, attr, "fabric.frame")
    for attr in ("send_frame", "recv_frame"):
        _patch(protocol, attr, "fabric.frame")
    if not getattr(protocol._recv_exact, "__wrapped_by_bench__", False):
        original = protocol._recv_exact
        protocol._recv_exact = _recv_exact_counting(original)
        _installed.append((protocol, "_recv_exact", original))


def uninstall() -> None:
    """Restore every wrapped binding and forget recorded spans."""
    while _installed:
        owner, attr, original = _installed.pop()
        setattr(owner, attr, original)
    reset()


def reset() -> None:
    _spans.clear()
    COUNTERS["frame_bytes"] = 0


def spans() -> list[dict]:
    return list(_spans)


def dump(path) -> None:
    """Write this process's spans and counters (a worker's exit hook)."""
    with open(path, "w") as handle:
        json.dump({"spans": _spans, "counters": COUNTERS}, handle)


# -- folding -----------------------------------------------------------------


def self_times(all_spans: list[dict]) -> dict[tuple, float]:
    """(pid, span id) -> duration minus the time its child spans cover."""
    own = {(s["pid"], s["id"]): s["t1"] - s["t0"] for s in all_spans}
    for span in all_spans:
        parent = (span["pid"], span["parent"])
        if parent in own:
            own[parent] -= span["t1"] - span["t0"]
    return own


def layer_metrics(all_spans: list[dict], frame_bytes: int) -> dict:
    """The per-layer metric values (names as in BENCHMARK.json)."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    counters: dict[str, int] = {}
    for span in all_spans:
        name = span["name"]
        total[name] = total.get(name, 0.0) + span["t1"] - span["t0"]
        calls[name] = calls.get(name, 0) + 1
        for key, value in span["counters"].items():
            ckey = f"{name}.{key}"
            counters[ckey] = counters.get(ckey, 0) + value
    own = self_times(all_spans)
    sched = sum(own[s["pid"], s["id"]] for s in all_spans
                if s["name"] == "campaign.run")
    gets = calls.get("verify.cache_get", 0)
    planned = counters.get("verify.plan.jobs", 0)
    solve_s = total.get("sat.solve", 0.0)
    props = counters.get("sat.solve.propagations", 0)
    return {
        "soc.build_s": total.get("soc.build", 0.0),
        "soc.builds": calls.get("soc.build", 0),
        "aig.bitblast_s": total.get("aig.bitblast", 0.0),
        "aig.coi_s": total.get("aig.coi", 0.0),
        "aig.bitsim_s": total.get("aig.bitsim", 0.0),
        "sat.solve_s": solve_s,
        "sat.calls": calls.get("sat.solve", 0),
        "sat.conflicts": counters.get("sat.solve.conflicts", 0),
        "sat.decisions": counters.get("sat.solve.decisions", 0),
        "sat.propagations": props,
        "sat.props_per_s": props / solve_s if solve_s else 0.0,
        "sat.bve_s": total.get("sat.bve", 0.0),
        "sat.vars_eliminated": counters.get("sat.bve.vars_eliminated", 0),
        "upec.encode_s": total.get("upec.encode", 0.0),
        "upec.alg1_s": total.get("upec.alg1", 0.0),
        "upec.iterations": counters.get("upec.alg1.iterations", 0),
        "formal.bmc_s": total.get("formal.bmc", 0.0),
        "formal.induction_s": total.get("formal.induction", 0.0),
        "ift.check_s": total.get("ift.check", 0.0),
        "verify.execute_s": total.get("verify.execute", 0.0),
        "verify.obligations": calls.get("verify.execute", 0),
        "verify.key_s": total.get("verify.key", 0.0),
        "verify.cache_get_s": total.get("verify.cache_get", 0.0),
        "verify.cache_gets": gets,
        "verify.cache_hit_ratio":
            counters.get("verify.cache_get.hit", 0) / gets if gets else 0.0,
        "verify.cache_put_s": total.get("verify.cache_put", 0.0),
        "verify.diff_s": total.get("verify.diff", 0.0),
        "verify.plan_s": total.get("verify.plan", 0.0),
        "verify.fingerprint_s": total.get("verify.fingerprint", 0.0),
        "verify.served_share":
            counters.get("verify.plan.served", 0) / planned
            if planned else 0.0,
        "campaign.sched_s": sched,
        # Filled in by the workload from its results and the
        # coordinator's status; zero where the layer is not used.
        "campaign.jobs": 0,
        "aig.sim_pruned": 0,
        "fabric.worker_busy_share": 0.0,
        "fabric.hits_served": 0,
        "fabric.duplicate_results": 0,
        "fabric.frame_s": total.get("fabric.frame", 0.0),
        "fabric.frames": calls.get("fabric.frame", 0),
        "fabric.frame_bytes": frame_bytes,
    }


def top_level_cover(all_spans: list[dict], pid: int, tid: int) -> float:
    """Summed self time of every span on one thread — equal to the
    summed duration of that thread's top-level spans."""
    own = self_times(all_spans)
    return sum(own[pid, s["id"]] for s in all_spans
               if s["pid"] == pid and s["tid"] == tid)


def chrome_trace(all_spans: list[dict]) -> dict:
    """Chrome trace-event JSON (complete events, microseconds)."""
    events = []
    for span in all_spans:
        args = {"tag": span["tag"], "parent": span["parent"],
                **span["counters"]}
        events.append({
            "name": span["name"], "cat": span["name"].split(".")[0],
            "ph": "X", "pid": span["pid"], "tid": span["tid"],
            "ts": span["t0"] * 1e6, "dur": (span["t1"] - span["t0"]) * 1e6,
            "args": args,
        })
    events.sort(key=lambda e: e["ts"])
    return {"traceEvents": events, "displayTimeUnit": "ms"}
