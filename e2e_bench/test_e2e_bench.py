"""The benchmark's own tests: probe-sized, so the test suite barely
notices them.

The repeat guard runs every workload twice at probe size with per-layer
spans and requires every work count to be identical, which separates
"the work changed" from "the host was slow".
"""

import json
import pathlib
import subprocess
import sys
import time

import pytest

import answer_key
import record
import run
import tracer
import workloads

HERE = pathlib.Path(__file__).resolve().parent


def test_batch_rates_fold_short_tail():
    # Batches [0, 1.0] and [1.0, 2.1] hold 2 ops each; the 0.2 s tail
    # (1 op) is folded into the second batch.
    stamps = [0.5, 1.0, 1.6, 2.1, 2.3]
    assert workloads.batch_rates(0.0, stamps) == pytest.approx([2.0, 3 / 1.3])
    assert workloads.batch_rates(0.0, [1.0, 1.2]) == pytest.approx([2 / 1.2])
    assert workloads.batch_rates(0.0, [1.0, 2.0], [54, 54]) == [54.0, 54.0]


def test_edit_series_is_a_seeded_order_of_a_fixed_mix():
    first = workloads.edit_series(7, 10, 5)
    assert first == workloads.edit_series(7, 10, 5)
    other = workloads.edit_series(8, 10, 5)
    assert first != other
    kinds = [kind for kind, _ in first]
    assert kinds == ["in-cone", "in-cone", "served"] * 5
    in_cone = [edit for kind, edit in first if kind == "in-cone"]
    served = [e for kind, batch in first if kind == "served" for e in batch]
    assert len(served) == 5 * workloads.BATCH_EDITS
    fields = [name for name, _ in in_cone]
    assert all(fields.count(f) == 2 for f in answer_key.IN_CONE)
    for name, value in in_cone:
        assert value in answer_key.IN_CONE[name]
    for name, value in served:
        assert value in answer_key.OUT_OF_CONE[name]
    # The seed orders the edits; the mix of edits is the same.
    other_in = [e for kind, e in other if kind == "in-cone"]
    assert sorted(map(repr, in_cone)) == sorted(map(repr, other_in))


def test_spans_time_outermost_call_and_self_time():
    holder = type("Holder", (), {})

    def countdown(n):
        time.sleep(0.01)
        return holder.countdown(n - 1) if n else 0

    holder.countdown = countdown
    tracer._patch(holder, "countdown", "toy.countdown")
    try:
        tracer.reset()
        outer = tracer._wrap(lambda: holder.countdown(2), "toy.outer",
                             "toy.outer")
        outer()
        spans = tracer.spans()
    finally:
        tracer.uninstall()
    names = [s["name"] for s in spans]
    assert names == ["toy.countdown", "toy.outer"]  # recursion timed once
    inner, top = spans
    assert inner["parent"] == top["id"]
    own = tracer.self_times(spans)
    total = top["t1"] - top["t0"]
    assert own[top["pid"], top["id"]] + own[inner["pid"], inner["id"]] \
        == pytest.approx(total)
    assert tracer.top_level_cover(spans, top["pid"], top["tid"]) \
        == pytest.approx(total)


def _probe(workload: str, seed: int = 3) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "30", "--trace", "1", "--probe"],
        capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", record.WORKLOADS)
def test_work_counts_repeat_exactly(workload):
    first, second = _probe(workload), _probe(workload)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(run.metric_units("per_layer"))
    counts = {name: (first["metrics"][name]["value"],
                     second["metrics"][name]["value"])
              for name in run.COUNT_METRICS}
    assert all(a == b for a, b in counts.values()), counts
    assert first["metrics"]["verify.obligations"]["value"] > 0
