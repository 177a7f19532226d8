"""Spans around the library's layer entry points, installed from outside.

Each entry point is rewrapped at the module attribute the library looks
it up from (``maxlinear.sampler.conditional_law`` is what
``run_prediction`` calls, ``maxlinear.conditional.class_weights`` is what
``conditional_law`` calls), so spans follow the library's own call
path. An attribute that does not exist is skipped; its span count is 0.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

# (module, attribute, span name). Both weight functions map to one span:
# conditional_law calls whichever applies to the margins.
REQUEST_POINTS = (
    ("sampler", "run_prediction", "sampler.run_prediction"),
    ("sampler", "validate_model", "model.validate"),
    ("sampler", "conditional_law", "conditional.law"),
    ("conditional", "hitting_structure", "hitting.structure"),
    ("conditional", "frechet_class_weights", "conditional.weights"),
    ("conditional", "class_weights", "conditional.weights"),
    ("sampler", "draw_conditional_batch", "sampler.draw"),
    ("sampler", "max_linear_apply_batch", "model.apply"),
    ("experiments", "summarize", "experiments.summarize"),
)
SETUP_POINTS = (
    ("marma", "marma_coefficients", "marma.design"),
    ("marma", "marma_design", "marma.design"),
    ("smith", "smith_design", "smith.design"),
)
LAYERS = ("model", "hitting", "conditional", "sampler", "experiments", "marma", "smith")


@dataclass
class Span:
    request: int
    name: str
    parent: int  # index of the enclosing span, -1 for a root
    start: float
    end: float = 0.0
    error: str | None = None  # exception type, set where it was raised


class Tracer:
    """Records spans while ``active``; wrappers pass straight through
    otherwise, so untraced requests in the same process pay one flag test
    per call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.request = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.span_counts: Counter = Counter()

    def install(self, ml, points) -> None:
        for module_name, attr, name in points:
            module = getattr(ml, module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._installed.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            with tracer.span(name):
                return fn(*args, **kwargs)

        return traced

    def span(self, name: str):
        return _SpanContext(self, name)


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else -1
        self.index = len(t.spans)
        t.spans.append(Span(t.request, self.name, parent, time.perf_counter()))
        t._stack.append(self.index)
        t.span_counts[self.name] += 1

    def __exit__(self, exc_type, exc, tb):
        t = self.tracer
        span = t.spans[self.index]
        span.end = time.perf_counter()
        t._stack.pop()
        # attribute an exception to the innermost span it passed through
        if exc is not None and not getattr(exc, "_perfbench_seen", False):
            span.error = exc_type.__name__
            try:
                exc._perfbench_seen = True
            except AttributeError:
                pass
        return False


def request_breakdown(spans: list[Span], root: int) -> dict[str, float]:
    """Inclusive seconds per span name within one request (the spans
    recorded after ``root`` and under it), plus the self time of the
    request root and of ``run_prediction``."""
    out: dict[str, float] = {}
    child_total: dict[int, float] = {}
    inside = {root}
    for i in range(root + 1, len(spans)):
        s = spans[i]
        if s.parent not in inside:
            break
        inside.add(i)
        duration = s.end - s.start
        child_total[s.parent] = child_total.get(s.parent, 0.0) + duration
        out[s.name] = out.get(s.name, 0.0) + duration
    total = spans[root].end - spans[root].start
    out["request"] = total
    out["request.self"] = total - child_total.get(root, 0.0)
    out["sampler.run_prediction.self"] = sum(
        spans[i].end - spans[i].start - child_total.get(i, 0.0)
        for i in inside
        if spans[i].name == "sampler.run_prediction"
    )
    return out


def error_counts(spans: list[Span]) -> dict[str, Counter]:
    """Exceptions by layer and type, counted where they were raised. An
    exception raised outside every layer span counts under the root span's
    name (``request`` or ``setup``)."""
    out = {layer: Counter() for layer in LAYERS}
    for s in spans:
        if s.error is not None:
            layer = s.name.split(".", 1)[0]
            out.setdefault(layer, Counter())[s.error] += 1
    return out


def structure_counts(result, B: np.ndarray, num: int) -> dict[str, float]:
    """Work counts and useful-work ratios of one request, from the
    returned law and ``B``. They depend only on the inputs.

    ``model.apply_live_fraction`` is the share of positive entries of
    ``B`` that can decide their row in some draw: a conditioned b_kj is
    live when b_kj * zhat_j > L_k = max_s min_{j in J_s} b_kj * zhat_j
    (every draw puts some j in J_s at zhat_j, and z_j <= zhat_j); free
    columns are unbounded and always live.
    """
    st = result.law.structure
    cond = np.asarray(result.conditioned_columns)
    free = np.asarray(result.free_columns)
    sizes = np.array([js.size for js in st.J])
    p_cond = cond.size
    Bc = B[:, cond]
    reach = Bc * st.z_hat
    L = np.max([reach[:, js].min(axis=1) for js in st.J], axis=0)
    live_cond = int(((Bc > 0) & (reach > L[:, None])).sum())
    positive = int((B > 0).sum())
    live = live_cond + int((B[:, free] > 0).sum())
    return {
        "hitting.rank": float(st.rank),
        "hitting.candidate_atoms": float(sizes.sum()),
        "hitting.deterministic_classes": float((sizes == 1).sum()),
        "hitting.merge_columns": float((np.asarray(st.H).sum(axis=0) >= 2).sum()),
        "sampler.truncated_values": float(num * p_cond),
        "sampler.kept_value_ratio": (p_cond - st.rank) / p_cond,
        "model.apply_entries": float(num * positive),
        "model.apply_live_fraction": live / positive,
        "model.apply_live_conditioned": float(live_cond),
        "model.apply_conditioned_entries": float((Bc > 0).sum()),
    }
