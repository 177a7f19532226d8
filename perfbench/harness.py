"""Closed-loop caller and metric reduction.

One caller in one process sends its next request only when the previous
one has returned. A request is ``run_prediction`` on one generated
observation vector followed by ``summarize`` of the predictions; its
inputs are generated, and its outputs checked, outside the timed region.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

from calibration import SpeedReference
from checks import check_request
from tracing import (
    LAYERS,
    REQUEST_POINTS,
    SETUP_POINTS,
    Tracer,
    error_counts,
    request_breakdown,
    structure_counts,
)
from workloads import Workload, request_inputs, set_up

WARMUP_REQUESTS = 5  # untimed: lazy imports and allocator growth
MIN_REQUESTS = 120  # so that at least 10 requests lie beyond the p90
COUNT_REQUESTS = 20  # structure counts average the stream's first requests
SETUP_REPEATS = 5  # design builds timed in a traced run


@dataclass
class Context:
    ml: object
    workload: Workload
    design: object
    model: object  # validated model of the conditioned columns
    rel_tol: float = 1e-9

    def request(self, x, seed):
        ml = self.ml
        task = ml.sampler.PredictionTask(
            A=self.design.A,
            B=self.design.B,
            margins=self.design.margins,
            x=x,
            num_samples=self.workload.num_samples,
            seed=seed,
            rel_tol=self.rel_tol,
        )
        result = ml.sampler.run_prediction(task)
        return result, ml.experiments.summarize(result.Y)


@dataclass
class Outcome:
    latency: float
    result: object = None
    failure: str | None = None


def attempt(ctx: Context, x, seed, tracer: Tracer | None = None) -> Outcome:
    """Time one request, then check its output. An exception or a failed
    check makes the request fail; the run goes on."""
    t0 = time.perf_counter()
    try:
        if tracer is not None and tracer.active:
            with tracer.span("request"):
                result, summary = ctx.request(x, seed)
        else:
            result, summary = ctx.request(x, seed)
    except Exception as exc:  # a failed request is counted, not fatal
        return Outcome(time.perf_counter() - t0, failure=type(exc).__name__)
    latency = time.perf_counter() - t0
    reason = check_request(ctx.design, x, ctx.rel_tol, result.Z, result.Y, summary)
    return Outcome(latency, result, reason)


@dataclass
class RunLog:
    latencies: list = field(default_factory=list)  # every attempt, s
    ok: list = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)

    def add(self, out: Outcome) -> None:
        self.latencies.append(out.latency)
        self.ok.append(out.failure is None)
        if out.failure is not None:
            self.failures[out.failure] += 1

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.ok.count(False)


def p90(values) -> float:
    """Type-1 90th percentile."""
    srt = sorted(values)
    return srt[min(max(math.ceil(0.9 * len(srt)) - 1, 0), len(srt) - 1)]


def _warm_up(ctx: Context, seed: int, speed: SpeedReference) -> None:
    for i in range(-WARMUP_REQUESTS, 0):
        x, s = request_inputs(seed, ctx.workload, i, ctx.design)
        attempt(ctx, x, s)
        speed.sample()
    speed.samples.clear()


def serve(ctx: Context, seed: int, seconds: float, speed: SpeedReference) -> RunLog:
    """Untraced closed loop for ``seconds`` (and at least MIN_REQUESTS),
    sampling the speed reference after each request."""
    _warm_up(ctx, seed, speed)
    log = RunLog()
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i < MIN_REQUESTS:
        x, s = request_inputs(seed, ctx.workload, i, ctx.design)
        log.add(attempt(ctx, x, s))
        speed.sample()
        i += 1
    return log


def end_to_end_metrics(
    log: RunLog, speed: SpeedReference, setup_times: list, peak_rss_mb: float
) -> dict:
    """Each request's time is scaled by the speed around it; ``setup_times``
    come scaled by the speed measured in their own processes."""
    scaled = [t * f for t, f in zip(log.latencies, speed.local_factors())]
    good = [t for t, ok in zip(scaled, log.ok) if ok] or [float("nan")]
    return {
        "requests_per_s": ((log.attempted - log.failed) / sum(scaled), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(good), "ms"),
        "latency_p90_ms": (1e3 * p90(good), "ms"),
        "success_fraction": ((log.attempted - log.failed) / log.attempted, "fraction"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def _hitting_stages(ctx: Context, x) -> dict[str, float]:
    """zhat, H and the decomposition are private inside hitting_structure;
    time the public equivalents on the same x, outside the request."""
    hit = ctx.ml.hitting
    names = ("compute_upper_bounds", "compute_hitting_matrix", "decompose")
    if not all(hasattr(hit, n) for n in names):
        return {}
    t_ub, z_hat = _timed(hit.compute_upper_bounds, ctx.model, x)
    t_h, H = _timed(hit.compute_hitting_matrix, ctx.model, x, z_hat, ctx.rel_tol)
    t_d, _ = _timed(hit.decompose, H, z_hat)
    return {
        "hitting.upper_bounds": t_ub,
        "hitting.hitting_matrix": t_h,
        "hitting.decompose": t_d,
    }


# per-layer time metrics and the span (or stage) each one reports
SPAN_METRICS = (
    ("model.validate_ms", "model.validate"),
    ("model.apply_ms", "model.apply"),
    ("hitting.structure_ms", "hitting.structure"),
    ("hitting.upper_bounds_ms", "hitting.upper_bounds"),
    ("hitting.hitting_matrix_ms", "hitting.hitting_matrix"),
    ("hitting.decompose_ms", "hitting.decompose"),
    ("conditional.law_ms", "conditional.law"),
    ("conditional.weights_ms", "conditional.weights"),
    ("sampler.draw_ms", "sampler.draw"),
    ("sampler.run_prediction_self_ms", "sampler.run_prediction.self"),
    ("experiments.summarize_ms", "experiments.summarize"),
)
COUNT_UNITS = {
    "hitting.rank": "count",
    "hitting.candidate_atoms": "count",
    "hitting.deterministic_classes": "count",
    "hitting.merge_columns": "count",
    "sampler.truncated_values": "count",
    "sampler.kept_value_ratio": "fraction",
    "model.apply_entries": "count",
    "model.apply_live_fraction": "fraction",
    "model.apply_live_conditioned": "count",
    "model.apply_conditioned_entries": "count",
}


def traced_run(
    ml, workload: Workload, seed: int, seconds: float, tracer: Tracer,
    speed: SpeedReference,
):
    """Per-layer run. Each request runs twice, untraced and traced, so the
    tracing overhead is measured on the same inputs and box state. Times
    are scaled to the reference speed, like the end-to-end ones.

    Returns (context, log, metrics, details).
    """
    tracer.install(ml, SETUP_POINTS + REQUEST_POINTS)
    setup_ms: dict[str, list] = {"marma.design": [], "smith.design": []}
    tracer.active = True
    for _ in range(SETUP_REPEATS):
        root = len(tracer.spans)
        with tracer.span("setup"):
            design, model = set_up(ml, workload)
        parts = request_breakdown(tracer.spans, root)
        for name in setup_ms:
            setup_ms[name].append(parts.get(name, 0.0))
    tracer.active = False
    ctx = Context(ml, workload, design, model)
    _warm_up(ctx, seed, speed)

    log = RunLog()
    traced_lat, untraced_lat = [], []
    per_request: list[dict] = []
    counts: list[dict] = []
    stage_errors: Counter = Counter()
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i < COUNT_REQUESTS:
        x, s = request_inputs(seed, workload, i, design)
        # the same request untraced and traced, in alternating order
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            tracer.active = traced
            tracer.request = i
            root = len(tracer.spans)
            out = attempt(ctx, x, s, tracer)
            tracer.active = False
            log.add(out)
            if out.failure is None:
                (traced_lat if traced else untraced_lat).append(out.latency)
            if not traced:
                continue
            parts = request_breakdown(tracer.spans, root)
            try:
                parts.update(_hitting_stages(ctx, x))
            except Exception as exc:  # reported with the layer errors
                stage_errors[type(exc).__name__] += 1
            per_request.append(parts)
            if out.failure is None and i < COUNT_REQUESTS:
                counts.append(structure_counts(out.result, design.B, workload.num_samples))
        speed.sample()
        i += 1

    ms = 1e3 * speed.factor
    metrics = {}
    for metric, name in SPAN_METRICS:
        metrics[metric] = (ms * statistics.median(p.get(name, 0.0) for p in per_request), "ms")
    for name, unit in COUNT_UNITS.items():
        metrics[name] = (statistics.fmean(c[name] for c in counts) if counts else 0.0, unit)
    for name, values in setup_ms.items():
        metrics[f"{name}_ms"] = (ms * statistics.median(values), "ms")
    errors = error_counts(tracer.spans)
    errors["hitting"].update(stage_errors)
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = (sum(errors[layer].values()), "count")
    traced_lat = traced_lat or [float("nan")]
    untraced_lat = untraced_lat or [float("nan")]
    overhead = statistics.median(traced_lat) - statistics.median(untraced_lat)
    metrics["trace.overhead_ms"] = (ms * overhead, "ms")
    metrics["trace.unaccounted_share"] = (
        statistics.median(
            (p["request.self"] + p["sampler.run_prediction.self"]) / p["request"]
            for p in per_request
        ),
        "fraction",
    )
    metrics["measured.latency_p50_ms"] = (1e3 * statistics.median(untraced_lat), "ms")
    metrics["calibration.kernel_ms"] = (speed.kernel_ms, "ms")
    details = {
        "errors_by_type": {k: dict(v) for k, v in errors.items() if v},
        "span_counts": dict(tracer.span_counts),
        "traced_requests": len(per_request),
    }
    return ctx, log, metrics, details

