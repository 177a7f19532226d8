import numpy as np
import pytest

from maxlinear import (
    AssumptionAViolationError,
    DimensionOverflowError,
    PredictionTask,
    SmithSpec,
    load_smith_spec,
    run_prediction,
    save_smith_spec,
    smith_design,
    standard_frechet,
)
from maxlinear.smith import cell_centers, smith_kernel

SITES7 = (
    (0.3, 0.4),
    (-1.2, 0.9),
    (1.5, -0.7),
    (-0.4, -1.3),
    (0.9, 1.6),
    (-1.7, -0.2),
    (0.1, -0.6),
)


def test_kernel_values():
    assert smith_kernel(0.0, 0.0, 0.0, 1.0, 1.0) == pytest.approx(1.0 / (2.0 * np.pi))
    assert smith_kernel(1.0, 0.0, 0.0, 1.0, 1.0) == pytest.approx(
        np.exp(-0.5) / (2.0 * np.pi)
    )


def test_kernel_symmetry_and_correlation():
    for rho in (0.0, 0.4, -0.6):
        a = smith_kernel(0.7, -0.3, rho, 1.2, 0.8)
        b = smith_kernel(-0.7, 0.3, rho, 1.2, 0.8)
        assert a == pytest.approx(b)
    # positive correlation raises density along the diagonal
    assert smith_kernel(1.0, 1.0, 0.5, 1.0, 1.0) > smith_kernel(1.0, 1.0, 0.0, 1.0, 1.0)


def test_kernel_parameter_validation():
    with pytest.raises(ValueError):
        smith_kernel(0.0, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        smith_kernel(0.0, 0.0, 0.0, -1.0, 1.0)


def test_spec_geometry():
    spec = SmithSpec(q=25, sites=SITES7)
    assert spec.h == pytest.approx(4.0 / 25.0)
    assert spec.num_cells == 2500
    centers = cell_centers(spec)
    assert centers.shape == (2500, 2)
    assert centers.min() == pytest.approx(-4.0 + spec.h / 2.0)
    assert centers.max() == pytest.approx(4.0 - spec.h / 2.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        SmithSpec(rho=1.5)
    with pytest.raises(ValueError):
        SmithSpec(M=-1.0)
    with pytest.raises(ValueError):
        SmithSpec(q=0)
    # an integral float is its integer; a fraction or inf is not truncated
    assert SmithSpec(q=25.0).q == 25 and isinstance(SmithSpec(q=25.0).q, int)
    for q in (2.5, float("inf")):
        with pytest.raises(ValueError, match="invalid 'q'"):
            SmithSpec(q=q)
    # a NaN passed the sign checks and smith_design blamed the flooring
    for bad in (np.nan, np.inf, -np.inf):
        for key in ("rho", "beta1", "beta2", "M", "alpha"):
            with pytest.raises(ValueError, match=f"invalid '{key}': must be finite"):
                SmithSpec(sites=SITES7, **{key: bad})
        for key in ("sites", "grid"):
            with pytest.raises(ValueError, match=f"invalid '{key}': must be finite"):
                SmithSpec(**{"sites": SITES7, key: ((0.0, 0.0), (bad, 1.0))})


def test_design_shape_and_positivity():
    spec = SmithSpec(q=25, sites=SITES7, grid=((0.0, 0.0),))
    design = smith_design(spec)
    assert design.A.shape[0] == 7
    assert design.B.shape == (1, design.A.shape[1])
    assert design.A.shape[1] <= 2500
    assert np.all(design.A >= 0) and np.all(design.A.max(axis=1) > 0)


def test_site_at_cell_center_peaks_there():
    spec = SmithSpec(q=10, M=4.0, sites=((0.2, 0.2),))  # exactly a cell center
    design = smith_design(spec, floor_ratio=0.0)
    centers = cell_centers(spec)
    peak = design.kept[np.argmax(design.A[0])]
    assert np.allclose(centers[peak], [0.2, 0.2])


def test_riemann_sum_approximates_kernel_mass():
    # alpha = 1: sum_j h^2 phi(t - u_j) ~ integral of phi = 1
    spec = SmithSpec(q=25, sites=((0.3, -0.4),))
    design = smith_design(spec, floor_ratio=0.0)
    assert design.A[0].sum() == pytest.approx(1.0, rel=0.01)


def test_flooring_drops_far_columns():
    spec = SmithSpec(q=25, sites=SITES7)
    full = smith_design(spec, floor_ratio=0.0)
    floored = smith_design(spec, floor_ratio=1e-3)
    assert floored.A.shape[1] < full.A.shape[1]
    assert np.all(np.isin(floored.kept, full.kept))


def test_flooring_too_aggressive_raises():
    spec = SmithSpec(q=5, sites=((0.0, 0.0),))
    with pytest.raises(AssumptionAViolationError):
        smith_design(spec, floor_ratio=2.0)
    # NaN ended in "flooring left an observed site uncovered", which blamed
    # the sites; a negative ratio kept every column
    for bad in (float("nan"), -1.0, "0.1", None):
        with pytest.raises(ValueError, match="floor_ratio"):
            smith_design(spec, floor_ratio=bad)


def test_a_cell_only_the_grid_reaches_is_a_free_column():
    # the narrow kernel keeps the cells around (3, 3) for the grid, and the
    # site at the origin gives them exact zeros in A; smith_design refused
    # such a design ("flooring left an all-zero kept column")
    spec = SmithSpec(
        beta1=20.0, beta2=20.0, q=10, sites=((0.0, 0.0),), grid=((3.0, 3.0), (0.0, 0.0))
    )
    design = smith_design(spec)
    free = np.flatnonzero(~(design.A > 0).any(axis=0))
    assert free.size and (design.B[0, free] > 0).all()
    margins = (standard_frechet(1.0),) * design.A.shape[1]
    result = run_prediction(PredictionTask(
        A=design.A, B=design.B, margins=margins, x=np.array([2.0]), num_samples=200, seed=3,
    ))
    assert np.array_equal(result.free_columns, free)
    assert (result.Y[:, 1] == 2.0).all()  # the grid's second site is the observed one
    assert (result.Z[:, free] > 0).all() and np.isfinite(result.Z[:, free]).all()
    assert len(np.unique(result.Y[:, 0])) > 100  # the free cells decide the first


def test_design_requires_sites():
    with pytest.raises(ValueError):
        smith_design(SmithSpec(q=5))


def test_design_overflow_guard():
    # 2 * (2q)^2 = 8e12 entries: refused before any array is allocated
    spec = SmithSpec(q=1_000_000, sites=((0.0, 0.0),), grid=((1.0, 1.0),))
    with pytest.raises(DimensionOverflowError):
        smith_design(spec)


def test_spec_file_roundtrip(tmp_path):
    spec = SmithSpec(rho=0.3, beta1=1.1, beta2=0.9, M=3.0, q=12, alpha=2.0,
                     sites=SITES7[:2], grid=((0.0, 0.0),))
    path = tmp_path / "smith.json"
    save_smith_spec(spec, path)
    assert load_smith_spec(path) == spec
