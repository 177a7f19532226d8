"""The benchmark's four request workloads.

A request conditions on one observation vector ``x``, draws
``num_samples`` exact samples, maps them through the prediction matrix
``B`` and summarises them. Each workload fixes a design (built once, as
set-up) and generates its observation vectors from the run's seed; the
library only ever sees the generated inputs.

Every library call goes through a module attribute of the ``maxlinear``
package passed in as ``ml`` (``ml.smith.smith_design``, ...), so a
traced run that rewraps those attributes sees the calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# the seven observation sites of the spatial acceptance criterion
SITES7 = (
    (0.3, 0.4),
    (-1.2, 0.9),
    (1.5, -0.7),
    (-0.4, -1.3),
    (0.9, 1.6),
    (-1.7, -0.2),
    (0.1, -0.6),
)
# the 50-site, p = 10000 cell of the decomposition-scaling benchmark draws
# its sites from this seed sequence; structure_scan reuses those sites
SCAN_SITE_ENTROPY = (0, 50, 10000)
SCAN_PREDICTION_SITES = ((0.0, 0.0), (1.5, 1.5), (-1.5, 1.5), (1.5, -1.5))


@dataclass(frozen=True)
class Design:
    """Fixed inputs of a workload, built once per process as set-up.

    ``site_rows`` lists, in observation order, the rows of ``B`` that sit
    at the observation sites (their values must reproduce ``x``).
    ``draw_x`` makes one observation vector from a generator.
    """

    A: np.ndarray
    B: np.ndarray
    margins: tuple
    site_rows: np.ndarray | None
    draw_x: Callable[[np.random.Generator], np.ndarray]


@dataclass(frozen=True)
class Workload:
    name: str
    num_samples: int
    build: Callable  # build(ml) -> (A, B, margins, site_rows, draw_x)


def _model_generated(A: np.ndarray, margins) -> Callable:
    """x = A (max-times) Z with Z drawn from the margins."""
    groups = {}
    for j, m in enumerate(margins):
        groups.setdefault(m, []).append(j)
    groups = [(m, np.array(cols)) for m, cols in groups.items()]

    def draw_x(gen: np.random.Generator) -> np.ndarray:
        U = gen.random(A.shape[1])
        Z = np.empty_like(U)
        for m, cols in groups:
            Z[cols] = m.quantile(U[cols])
        return (A * Z).max(axis=1)

    return draw_x


def _build_marma(ml):
    phi, p, n, N = (0.7, 0.5, 0.3), 500, 100, 40
    psi = ml.marma.marma_coefficients(phi, (), p)
    A, B = ml.marma.marma_design(psi, n, N)
    margins = (ml.margins.standard_frechet(1.0),) * A.shape[1]

    def draw_x(gen: np.random.Generator) -> np.ndarray:
        return ml.marma.simulate_marma_window(psi, n, N, gen)[1]

    return A, B, margins, None, draw_x


def _build_smith_field(ml):
    spec = ml.smith.SmithSpec(
        q=25, sites=SITES7, grid=((0.0, 0.0), (2.0, 2.0)) + SITES7
    )
    design = ml.smith.smith_design(spec)
    margins = (ml.margins.standard_frechet(1.0),) * design.A.shape[1]
    site_rows = np.arange(2, 2 + len(SITES7))
    return design.A, design.B, margins, site_rows, _model_generated(design.A, margins)


def _build_structure_scan(ml):
    gen = np.random.default_rng(np.random.SeedSequence(SCAN_SITE_ENTROPY))
    sites = tuple(map(tuple, gen.uniform(-3.0, 3.0, size=(50, 2))))
    spec = ml.smith.SmithSpec(q=50, sites=sites, grid=SCAN_PREDICTION_SITES)
    design = ml.smith.smith_design(spec, floor_ratio=0.0)
    margins = (ml.margins.standard_frechet(1.0),) * design.A.shape[1]
    return design.A, design.B, margins, None, _model_generated(design.A, margins)


def _tabulated_gamma2(ml):
    """Gamma(2) density tabulated on [0, 20], normalised under the
    trapezoid rule so it passes the library's normalisation check."""
    grid = np.linspace(0.0, 20.0, 401)
    density = grid * np.exp(-grid)
    density /= np.sum(np.diff(grid) * (density[:-1] + density[1:]) / 2.0)
    return ml.margins.TabulatedContinuous(grid, density)


def _build_mixed_margins(ml):
    spec = ml.smith.SmithSpec(
        q=12, sites=SITES7, grid=((0.0, 0.0), (2.0, 2.0)) + SITES7
    )
    design = ml.smith.smith_design(spec)
    cycle = (
        ml.margins.Frechet(alpha=1.0),
        ml.margins.Frechet(alpha=2.0, scale=0.5),
        _tabulated_gamma2(ml),
    )
    margins = tuple(cycle[j % 3] for j in range(design.A.shape[1]))
    site_rows = np.arange(2, 2 + len(SITES7))
    return design.A, design.B, margins, site_rows, _model_generated(design.A, margins)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("marma_window", 500, _build_marma),
        Workload("smith_field", 500, _build_smith_field),
        Workload("structure_scan", 16, _build_structure_scan),
        Workload("mixed_margins", 500, _build_mixed_margins),
    )
}


def set_up(ml, workload: Workload):
    """Build the design and validate its conditioned columns.

    Returns the ``Design`` and the validated model of the conditioned
    columns. A MARMA design has free columns (factors after the observed
    window), which ``validate_model`` would reject as all-zero, so only
    the conditioned columns are validated, as ``run_prediction`` does.
    """
    A, B, margins, site_rows, draw_x = workload.build(ml)
    conditioned = np.flatnonzero((A > 0).any(axis=0))
    model = ml.model.validate_model(
        A[:, conditioned], [margins[j] for j in conditioned]
    )
    return Design(A, B, margins, site_rows, draw_x), model


def request_inputs(seed: int, workload: Workload, index: int, design: Design):
    """(x, sample seed) of request ``index``; a pure function of the seed."""
    wid = list(WORKLOADS).index(workload.name)
    ss = np.random.SeedSequence(entropy=(int(seed), wid, int(index) + 2**20))
    x_seq, sample_seq = ss.spawn(2)
    x = design.draw_x(np.random.default_rng(x_seq))
    return x, int(sample_seq.generate_state(1)[0])
