"""Tests of the benchmark itself: its output check, its failure counting,
its structure counts and its tracer.

    python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import maxlinear as ml  # noqa: E402
from checks import check_request  # noqa: E402
from harness import Context, RunLog, attempt  # noqa: E402
from tracing import REQUEST_POINTS, Tracer, request_breakdown, structure_counts  # noqa: E402
from workloads import WORKLOADS, request_inputs, set_up  # noqa: E402


def _context(name: str) -> Context:
    design, model = set_up(ml, WORKLOADS[name])
    return Context(ml, WORKLOADS[name], design, model)


@pytest.fixture(scope="module")
def smith():
    return _context("smith_field")


class _Corrupting(Context):
    """Pushes one conditioned factor of the first draw above its bound."""

    def request(self, x, seed):
        result, summary = super().request(x, seed)
        j = int(result.law.structure.J[0][0])
        col = int(result.conditioned_columns[j])
        result.Z[0, col] = 1.01 * result.law.z_hat[j]
        return result, summary


def test_correct_request_passes(smith):
    x, s = request_inputs(0, smith.workload, 0, smith.design)
    out = attempt(smith, x, s)
    assert out.failure is None


def test_draw_above_bound_is_counted_as_failed(smith):
    bad = _Corrupting(smith.ml, smith.workload, smith.design, smith.model)
    log = RunLog()
    for i in range(3):
        x, s = request_inputs(0, smith.workload, i, smith.design)
        log.add(attempt(bad, x, s))
    assert (log.attempted, log.failed) == (3, 3)
    assert sum(log.failures.values()) == 3
    assert all("does not reproduce x" in reason for reason in log.failures)


def test_wrong_prediction_is_caught(smith):
    x, s = request_inputs(0, smith.workload, 0, smith.design)
    result, summary = smith.request(x, s)
    Y = result.Y.copy()
    Y[3, 0] *= 1.5
    assert check_request(smith.design, x, smith.rel_tol, result.Z, Y, summary) is not None


def test_exception_is_counted_as_failed(smith):
    x, _ = request_inputs(0, smith.workload, 0, smith.design)
    out = attempt(smith, -x, 0)  # non-positive observations are rejected
    assert out.failure == "ValueError"


def test_inputs_repeat_for_a_seed(smith):
    a = request_inputs(7, smith.workload, 3, smith.design)
    b = request_inputs(7, smith.workload, 3, smith.design)
    c = request_inputs(8, smith.workload, 3, smith.design)
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]
    assert not np.array_equal(a[0], c[0])


def test_live_entries_smith_at_five(smith):
    # 2,746 of 22,500 is the count the ROADMAP records for this instance
    x = np.full(7, 5.0)
    result, _ = smith.request(x, 9)
    counts = structure_counts(result, smith.design.B, 500)
    assert counts["model.apply_live_conditioned"] == 2746
    assert counts["model.apply_conditioned_entries"] == 22500


def test_live_entries_marma():
    # no conditioned entry of the MARMA B can decide its row (ROADMAP item 2)
    ctx = _context("marma_window")
    for i in range(3):
        x, s = request_inputs(0, ctx.workload, i, ctx.design)
        result, _ = ctx.request(x, s)
        counts = structure_counts(result, ctx.design.B, 500)
        assert counts["model.apply_live_conditioned"] == 0
        assert counts["model.apply_conditioned_entries"] == 19220
        assert counts["sampler.truncated_values"] == 500 * 600


def test_spans_follow_the_call_path(smith):
    tracer = Tracer()
    tracer.install(ml, REQUEST_POINTS + (("sampler", "no_such_function", "x.y"),))
    try:
        tracer.active = True
        x, s = request_inputs(0, smith.workload, 0, smith.design)
        out = attempt(smith, x, s, tracer)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert out.failure is None
    assert tracer.span_counts["x.y"] == 0
    assert tracer.span_counts["conditional.weights"] == 1
    by_name = {span.name: span for span in tracer.spans}
    names = [span.name for span in tracer.spans]
    weights = by_name["conditional.weights"]
    assert names[weights.parent] == "conditional.law"
    assert names[by_name["conditional.law"].parent] == "sampler.run_prediction"
    parts = request_breakdown(tracer.spans, 0)
    assert 0.0 <= parts["sampler.run_prediction.self"] < parts["request"]
    # wrappers are gone after uninstall
    assert not hasattr(ml.sampler.conditional_law, "__wrapped__")
