import numpy as np
import pytest

from maxlinear import (
    MarmaSpec,
    NonStationaryError,
    NotPureMarError,
    NumericalOverflowError,
    RngStream,
    load_marma_spec,
    marma_coefficients,
    marma_design,
    projection_predictor,
    save_marma_spec,
)
from maxlinear.errors import DimensionOverflowError
from maxlinear.marma import marma_truncation_quality, require_pure_mar, simulate_marma_window

MAR3 = (0.7, 0.5, 0.3)


def test_spec_validation():
    spec = MarmaSpec(phi=MAR3, p=500)
    assert spec.phi_star == 0.7
    with pytest.raises(NonStationaryError):
        MarmaSpec(phi=(1.0,))
    with pytest.raises(ValueError):
        MarmaSpec(phi=(-0.2,))
    with pytest.raises(ValueError):
        MarmaSpec(phi=(0.5,), theta=(0.3, 0.2), p=2)
    assert MarmaSpec(phi=(0.5,), p=10.0).p == 10
    for key in ("p", "n_observed", "N_horizon"):
        with pytest.raises(ValueError, match=f"invalid '{key}'"):
            MarmaSpec(phi=(0.5,), **{key: 10.9})
    # NaN passed both checks and gave a NaN psi_sum; inf named B, not phi
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="invalid 'phi': must be finite"):
            MarmaSpec(phi=(0.5, bad))
        with pytest.raises(ValueError, match="invalid 'theta': must be finite"):
            MarmaSpec(phi=(0.5,), theta=(bad,))


def test_mar3_coefficient_prefix():
    psi = marma_coefficients(MAR3, (), 10)
    assert np.allclose(psi[:6], [1.0, 0.7, 0.5, 0.35, 0.25, 0.175])


def test_mar1_geometric():
    psi = marma_coefficients((0.5,), (), 15)
    assert np.allclose(psi, 0.5 ** np.arange(16))


def test_mar3_sigma():
    psi = marma_coefficients(MAR3, (), 500)
    assert psi.sum() == pytest.approx(3.4, abs=1e-10)


def test_moving_average_part():
    # theta enters as psi_j = max_k alpha_{j-k} theta_k with theta_0 = 1
    psi = marma_coefficients((0.5,), (0.9,), 5)
    # alpha = (1, .5, .25, ...); psi_0 = 1, psi_1 = max(.5, .9) = .9
    assert np.allclose(psi, [1.0, 0.9, 0.45, 0.225, 0.1125, 0.05625])


def test_alpha_majorant():
    phi = MAR3
    psi = marma_coefficients(phi, (), 60)
    m = len(phi)
    bound = 0.7 ** np.ceil(np.arange(61) / m)
    assert np.all(psi <= bound + 1e-15)


def test_truncation_quality():
    q20 = marma_truncation_quality((0.5,), (), 20)
    assert 1.0 - 1e-6 <= q20 < 1.0
    # quality grows with p
    assert marma_truncation_quality((0.5,), (), 40) > q20
    assert marma_truncation_quality(MAR3, (), 500) > 1.0 - 1e-12
    # pure moving average is exact once p >= q
    assert marma_truncation_quality((), (0.4,), 5) == 1.0


def test_design_band_layout():
    A, B = marma_design(np.array([1.0, 0.3]), 1, 1)  # psi = (psi_0, psi_1)
    assert np.allclose(A, [[0.3, 1.0, 0.0]])
    assert np.allclose(B, [[0.0, 0.3, 1.0]])


def test_design_band_width():
    psi = marma_coefficients((0.5,), (), 4)
    A, B = marma_design(psi, 3, 2)
    assert A.shape == (3, 9) and B.shape == (2, 9)
    assert np.all((A > 0).sum(axis=1) == 5)
    assert np.all((B > 0).sum(axis=1) == 5)


def test_design_overflow_guard():
    with pytest.raises(DimensionOverflowError):
        marma_design(np.ones(100_001), 2000, 1000)
    # p = 10**18 was a MemoryError from the psi buffer
    with pytest.raises(DimensionOverflowError):
        marma_coefficients((0.5,), (), 10**18)


def test_coefficients_past_the_float_range():
    # a psi sum of inf was printed as "psi_sum": Infinity; a tail majorant
    # past the range makes the bound 0, without a warning
    with pytest.raises(NumericalOverflowError):
        marma_coefficients((0.5,), (1e308,), 20)
    assert marma_truncation_quality((0.999,), (1e306,), 2) == 0.0


def test_simulated_path_satisfies_recursion():
    spec = MarmaSpec(phi=MAR3, p=200, n_observed=50, N_horizon=10)
    psi = marma_coefficients(spec.phi, (), spec.p)
    gen = RngStream(4).generator()
    Z, x_obs, y_fut = simulate_marma_window(psi, spec.n_observed, spec.N_horizon, gen)
    path = np.concatenate([x_obs, y_fut])
    innov = Z[spec.p:]  # innovation aligned with path index t
    for t in range(3, path.size):
        recursion = max(
            max(MAR3[i] * path[t - 1 - i] for i in range(3)), innov[t]
        )
        assert path[t] == pytest.approx(recursion, rel=1e-9)


def test_projection_predictor():
    preds = projection_predictor((0.5,), np.array([3.0, 2.0]), 3)
    assert np.allclose(preds, [1.0, 0.5, 0.25])
    assert np.array_equal(projection_predictor((), np.array([1.0]), 4), np.zeros(4))
    with pytest.raises(ValueError):
        projection_predictor(MAR3, np.array([1.0, 2.0]), 2)


def test_projection_predictor_mar3():
    obs = np.array([1.0, 4.0, 2.0])
    preds = projection_predictor(MAR3, obs, 2)
    assert preds[0] == pytest.approx(max(0.7 * 2.0, 0.5 * 4.0, 0.3 * 1.0))
    assert preds[1] == pytest.approx(max(0.7 * preds[0], 0.5 * 2.0, 0.3 * 4.0))


def test_require_pure_mar():
    require_pure_mar(MarmaSpec(phi=MAR3))
    with pytest.raises(NotPureMarError):
        require_pure_mar(MarmaSpec(phi=(0.5,), theta=(0.2,)))


def test_spec_file_roundtrip(tmp_path):
    spec = MarmaSpec(phi=MAR3, theta=(0.4,), p=300, n_observed=80, N_horizon=20)
    path = tmp_path / "marma.json"
    save_marma_spec(spec, path)
    assert load_marma_spec(path) == spec
