import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxlinear import (
    DensityNormalizationError,
    Frechet,
    MarginSpec,
    TabulatedContinuous,
    load_model,
    save_model,
    standard_frechet,
    validate_model,
)
from maxlinear.margins import _columnwise, margin_from_dict


def test_frechet_closed_forms():
    m = Frechet(alpha=1.0, scale=1.0)
    assert m.cdf(1.0) == pytest.approx(np.exp(-1.0))
    assert m.pdf(1.0) == pytest.approx(np.exp(-1.0))
    # f(z) = alpha sigma^alpha z^{-alpha-1} F(z)
    m2 = Frechet(alpha=2.0, scale=3.0)
    z = 1.7
    f_expected = 2.0 * 9.0 * z**-3 * np.exp(-9.0 / z**2)
    assert m2.pdf(z) == pytest.approx(f_expected, rel=1e-12)
    assert m2.cdf(m2.quantile(0.37)) == pytest.approx(0.37, rel=1e-12)


def test_frechet_edge_values():
    m = standard_frechet(1.0)
    assert m.cdf(0.0) == 0.0
    assert m.pdf(-1.0) == 0.0
    assert m.quantile(0.0) == 0.0
    assert m.log_cdf(2.0) == pytest.approx(-0.5)
    assert np.isneginf(m.log_cdf(0.0))
    # z**-alpha overflows: the limit, without a RuntimeWarning
    assert np.isneginf(m.log_cdf(1e-320)) and np.isneginf(m.log_pdf(1e-320))
    assert m.log_quantile(-np.inf) == 0.0
    assert isinstance(m.log_quantile(-1.0), float)


def test_frechet_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Frechet(alpha=0.0)
    with pytest.raises(ValueError):
        Frechet(alpha=1.0, scale=-2.0)
    with pytest.raises(ValueError):
        Frechet(alpha=np.inf)


@given(
    alpha=st.floats(0.2, 5.0),
    scale=st.floats(0.1, 10.0),
    u=st.floats(1e-6, 1.0 - 1e-6),
)
@settings(max_examples=200, deadline=None)
def test_frechet_quantile_inverts_cdf(alpha, scale, u):
    m = Frechet(alpha=alpha, scale=scale)
    assert m.cdf(m.quantile(u)) == pytest.approx(u, rel=1e-9)


@given(
    alpha=st.floats(0.5, 20.0),
    scale=st.floats(0.2, 5.0),
    log_u=st.floats(-1e6, -1e-12),
    mid=st.floats(-700.0, -0.01),
)
@settings(max_examples=200, deadline=None)
def test_frechet_log_quantile_inverts_log_cdf(alpha, scale, log_u, mid):
    m = Frechet(alpha=alpha, scale=scale)
    assert m.log_cdf(m.log_quantile(log_u)) == pytest.approx(log_u, rel=1e-9)
    assert m.log_quantile(mid) == pytest.approx(m.quantile(np.exp(mid)), rel=1e-9)


@given(
    alpha=st.floats(0.2, 5.0),
    z1=st.floats(0.01, 50.0),
    z2=st.floats(0.01, 50.0),
)
@settings(max_examples=200, deadline=None)
def test_frechet_cdf_monotone(alpha, z1, z2):
    m = Frechet(alpha=alpha)
    lo, hi = min(z1, z2), max(z1, z2)
    assert m.cdf(lo) <= m.cdf(hi)


def test_frechet_log_forms_consistent():
    m = Frechet(alpha=1.5, scale=0.7)
    z = np.array([0.3, 1.0, 4.0])
    assert np.allclose(np.exp(m.log_pdf(z)), m.pdf(z))
    assert np.allclose(np.exp(m.log_cdf(z)), m.cdf(z))


def _triangle_margin():
    # triangular density on [0, 2], peak at 1, integrates to 1 exactly
    grid = np.linspace(0.0, 2.0, 201)
    density = 1.0 - np.abs(grid - 1.0)
    return TabulatedContinuous(grid, density)


def test_tabulated_basic():
    m = _triangle_margin()
    assert m.cdf(0.0) == 0.0
    assert m.cdf(2.0) == 1.0
    assert m.cdf(1.0) == pytest.approx(0.5, abs=1e-6)
    assert m.pdf(1.0) == pytest.approx(1.0)
    assert m.pdf(3.0) == 0.0
    assert m.quantile(0.5) == pytest.approx(1.0, abs=1e-4)


def test_tabulated_log_quantile_is_the_default():
    m = _triangle_margin()
    assert type(m).log_quantile is MarginSpec.log_quantile
    log_u = np.log(np.linspace(0.01, 0.99, 25))
    assert np.array_equal(m.log_quantile(log_u), m.quantile(np.exp(log_u)))
    assert isinstance(m.log_quantile(-1.0), float)


def test_tabulated_rejects_unnormalized():
    grid = np.linspace(0.0, 1.0, 11)
    with pytest.raises(DensityNormalizationError):
        TabulatedContinuous(grid, np.full(11, 0.9))


def test_tabulated_rejects_bad_grid():
    with pytest.raises(ValueError):
        TabulatedContinuous([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        TabulatedContinuous([-1.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        TabulatedContinuous([0.0, 2.0], [1.0, -0.5])


def test_margin_serialization_roundtrip():
    for m in (Frechet(alpha=2.5, scale=0.4), _triangle_margin()):
        copy = margin_from_dict(m.to_dict())
        assert copy == m
    with pytest.raises(ValueError):
        margin_from_dict({"kind": "cauchy"})


def _count_quantile_calls(monkeypatch, cls):
    calls = []
    quantile = cls.quantile

    def counted(self, u):
        calls.append(self)
        return quantile(self, u)

    monkeypatch.setattr(cls, "quantile", counted)
    return calls


def test_columnwise_groups_equal_margins(monkeypatch):
    # three kinds cycled over seven columns; every second column holds a
    # distinct but equal copy, which must join its kind's group
    kinds = (standard_frechet(1.0), Frechet(alpha=2.0, scale=0.5), _triangle_margin())
    margins = [
        kinds[j % 3] if j % 2 else margin_from_dict(kinds[j % 3].to_dict())
        for j in range(7)
    ]
    values = np.linspace(0.05, 0.95, 21).reshape(3, 7)
    for method in ("cdf", "log_pdf", "quantile"):
        expected = np.column_stack(
            [getattr(m, method)(values[:, j]) for j, m in enumerate(margins)]
        )
        assert np.array_equal(_columnwise(margins, method, values), expected)
    frechet_calls = _count_quantile_calls(monkeypatch, Frechet)
    tabulated_calls = _count_quantile_calls(monkeypatch, TabulatedContinuous)
    _columnwise(margins, "quantile", values)
    assert (len(frechet_calls), len(tabulated_calls)) == (2, 1)


def test_loaded_model_margins_form_one_group(tmp_path, monkeypatch):
    model = validate_model(np.ones((1, 5)), [Frechet(alpha=2.0, scale=0.5)] * 5)
    save_model(model, tmp_path / "model.json")
    loaded = load_model(tmp_path / "model.json")
    assert loaded.margins[0] is not loaded.margins[1]
    values = np.linspace(0.1, 0.9, 10).reshape(2, 5)
    expected = model.margins[0].quantile(values)
    calls = _count_quantile_calls(monkeypatch, Frechet)
    assert np.array_equal(_columnwise(loaded.margins, "quantile", values), expected)
    assert len(calls) == 1
