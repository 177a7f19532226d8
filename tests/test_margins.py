import dataclasses
import json

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
from maxlinear.errors import _to_json
from maxlinear.margins import _columnwise, margin_from_dict, margin_groups
from maxlinear.sampler import PredictionTask, run_prediction


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
    assert np.array_equal(m._hazard_quantile(np.array([np.inf, 0.0])), [0.0, np.inf])


@pytest.mark.parametrize("alpha", [1.0, 1.0 / 3.0, 2.0])
def test_frechet_quantile_limits(alpha):
    # -log(1.0) is -0.0, and (-0.0) ** -1 would be -inf
    m = standard_frechet(alpha)
    assert m.quantile(1.0) == np.inf
    assert np.array_equal(m.quantile(np.array([0.0, 1.0])), [0.0, np.inf])
    assert m.quantile(-0.5) == 0.0


@pytest.mark.parametrize("alpha", [1.0 / 3.0, 0.5, 1.0, 2.0, 4.0, 20.0])
@pytest.mark.parametrize("scale", [0.2, 1.0, 1.5, 5.0])
def test_frechet_quantile_is_the_log_quantile_of_log_u(alpha, scale):
    # one inverse: Q(u) is the hazard kernel at h = 0 - log u, bitwise on
    # [0, 1] and at NaN, for arrays and scalars; outside, Q(0) or Q(1)
    m = Frechet(alpha=alpha, scale=scale)
    u = np.array([0.0, 5e-324, 1e-300, 0.3, 1.0 - 1e-16, 1.0, np.nan])
    with np.errstate(divide="ignore"):
        h = 0.0 - np.log(u)
    assert np.array_equal(m.quantile(u).view(np.int64), m._hazard_quantile(h.copy()).view(np.int64))
    for v, hv in zip(u.tolist(), h.tolist()):
        q = m.quantile(v)
        assert isinstance(q, float)
        assert np.float64(q).view(np.int64) == m._hazard_quantile(np.array(hv)).view(np.int64)
    assert np.array_equal(m.quantile(np.array([-0.5, -np.inf])), [0.0, 0.0])
    assert np.array_equal(m.quantile(np.array([1.5, np.inf])), [np.inf, np.inf])


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
    h=st.floats(1e-12, 1e6),
    mid=st.floats(0.01, 700.0),
)
@settings(max_examples=200, deadline=None)
def test_frechet_hazard_quantile_inverts_log_cdf(alpha, scale, h, mid):
    m = Frechet(alpha=alpha, scale=scale)
    assert m.log_cdf(m._hazard_quantile(np.array(h))) == pytest.approx(-h, rel=1e-9)
    assert m._hazard_quantile(np.array(mid)) == pytest.approx(m.quantile(np.exp(-mid)), rel=1e-9)


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
    assert np.allclose(m.log_reversed_hazard(z), m.log_pdf(z) - m.log_cdf(z), rtol=1e-14)


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
    # lower_end is the last knot with CDF 0, even where the density is 0
    # on a whole first segment
    late = TabulatedContinuous([0.5, 1.0, 2.0, 3.0], [0.0, 0.0, 1.0, 0.0])
    assert (m.lower_end, late.lower_end, standard_frechet(1.0).lower_end) == (0.0, 1.0, 0.0)
    assert late.cdf(1.0) == 0.0 < late.cdf(1.5)


def test_tabulated_hazard_quantile_is_the_default():
    m = _triangle_margin()
    assert type(m)._hazard_quantile is MarginSpec._hazard_quantile
    h = -np.log(np.linspace(0.01, 0.99, 25))
    assert np.array_equal(m._hazard_quantile(h.copy()), m.quantile(np.exp(-h)))


def test_tabulated_rejects_unnormalized():
    grid = np.linspace(0.0, 1.0, 11)
    with pytest.raises(DensityNormalizationError):
        TabulatedContinuous(grid, np.full(11, 0.9))


def test_tabulated_rejects_bad_grid():
    with pytest.raises(ValueError, match="equal length"):
        TabulatedContinuous([0.0, 1.0, 2.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        TabulatedContinuous([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        TabulatedContinuous([-1.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        TabulatedContinuous([0.0, 2.0], [1.0, -0.5])
    # an infinite segment with zero density integrates to NaN, which no
    # tolerance test can reject
    with pytest.raises(ValueError):
        TabulatedContinuous([0.0, 1.0, np.inf], [2.0, 0.0, 0.0])


def test_tabulated_keeps_read_only_copies():
    grid = np.linspace(0.0, 2.0, 201)
    density = 1.0 - np.abs(grid - 1.0)
    m = TabulatedContinuous(grid, density)
    before = (m.quantile(0.5), m.cdf(1.0), hash(m))
    grid *= 2.0
    density *= 2.0
    assert (m.quantile(0.5), m.cdf(1.0), hash(m)) == before
    assert m == _triangle_margin()
    # -0.0 and +0.0 are one grid value: equal margins, one hash, one set entry
    signed = [TabulatedContinuous([zero, 2.0], [0.5, 0.5]) for zero in (-0.0, 0.0)]
    assert signed[0] == signed[1] and len(set(signed)) == 1
    assert grid.flags.writeable
    for table in (m.grid, m.density):
        with pytest.raises(ValueError):
            table[0] = 1.0


def _rewritten(margin):
    """``margin`` written by the package's JSON writer and read back."""
    return margin_from_dict(json.loads(json.dumps(margin, default=_to_json)))


def test_margin_serialization_roundtrip():
    for m in (Frechet(alpha=2.5, scale=0.4), _triangle_margin()):
        copy = _rewritten(m)
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
        kinds[j % 3] if j % 2 else _rewritten(kinds[j % 3])
        for j in range(7)
    ]
    values = np.linspace(0.05, 0.95, 21).reshape(3, 7)
    for method in ("cdf", "log_pdf", "quantile"):
        expected = np.column_stack(
            [getattr(m, method)(values[:, j]) for j, m in enumerate(margins)]
        )
        assert np.array_equal(_columnwise(margin_groups(margins), method, values), expected)
    frechet_calls = _count_quantile_calls(monkeypatch, Frechet)
    tabulated_calls = _count_quantile_calls(monkeypatch, TabulatedContinuous)
    _columnwise(margin_groups(margins), "quantile", values)
    assert (len(frechet_calls), len(tabulated_calls)) == (2, 1)


def _random_tabulated(seed):
    """A tabulated margin on a random grid, uniform or not, whose support
    may start above 0 (or at -0.0) and whose density may vanish on whole
    segments (ties in its CDF); and the values that probe its quantile:
    every knot of the CDF and its neighbours, the ends of [0, 1] and
    beyond, NaN and random values."""
    gen = np.random.default_rng(seed)
    size = int(gen.integers(2, 60))
    if gen.random() < 0.5:
        steps = np.full(size - 1, gen.uniform(1e-3, 2.0))
    else:
        steps = gen.random(size - 1) ** 3 + 1e-9
    start = gen.choice([0.0, -0.0, gen.uniform(0.0, 5.0)])
    grid = np.concatenate(([start], start + np.cumsum(steps)))
    density = gen.random(size) * (gen.random(size) < 0.7)
    density[gen.integers(size)] += 1.0
    density /= np.sum(np.diff(grid) * (density[:-1] + density[1:]) / 2.0)
    m = TabulatedContinuous(grid, density)
    knots = m._cdf
    u = np.concatenate((
        knots,
        np.nextafter(knots, -np.inf),
        np.nextafter(knots, np.inf),
        [0.0, -0.0, 1.0, -0.5, 1.5, 1.0 + 1e-12, np.nan, np.inf, -np.inf],
        gen.random(size * 8),
    ))
    return m, gen.permutation(u)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_tabulated_quantile_is_np_interp_bitwise(seed):
    # bitwise, which also tells -0.0 from 0.0, in every shape and layout
    m, u = _random_tabulated(seed)
    expected = np.interp(u, m._cdf, m.grid)
    u = u[: u.size // 2 * 2]
    expected = expected[: u.size]
    assert np.array_equal(_bits(m.quantile(u)), _bits(expected))
    for layout in ("C", "F"):
        u2 = u.reshape((2, -1), order=layout)
        e2 = expected.reshape((2, -1), order=layout)
        assert np.array_equal(_bits(m.quantile(u2)), _bits(e2))
    for v, e in zip(u.tolist(), expected.tolist()):
        q = m.quantile(v)
        assert isinstance(q, float) and _bits(q) == _bits(e)


def test_tabulated_quantile_fallback_in_the_gamma_tail():
    # in the upper tail of Gamma(2) the CDF's knots crowd into few buckets,
    # so most values there lie past a knot in their bucket and take np.interp
    m = _gamma2_margin()
    u = 1.0 - 1e-3 * np.random.default_rng(3).random(1000)
    knot = m._bucket_knot[(u * m._buckets).astype(np.intp)]
    assert np.mean(u >= m._cdf[knot + 1]) > 0.5
    assert np.array_equal(_bits(m.quantile(u)), _bits(np.interp(u, m._cdf, m.grid)))


def _gamma2_margin():
    grid = np.linspace(0.0, 20.0, 401)
    density = grid * np.exp(-grid)
    density /= np.sum(np.diff(grid) * (density[:-1] + density[1:]) / 2.0)
    return TabulatedContinuous(grid, density)


@pytest.mark.parametrize("layout", ["1-d", "C", "F"])
def test_columnwise_matches_per_column_in_every_layout(layout):
    # the interleaved Frechet(1), Frechet(2, 0.5) and tabulated Gamma(2)
    # columns of the benchmark's mixed-margins workload, shared or as one
    # equal copy per column, and a single kind; each on all eight columns,
    # on a subset of candidate columns and on a block of adjacent columns
    kinds = (standard_frechet(1.0), Frechet(alpha=2.0, scale=0.5), _gamma2_margin())
    shared = [kinds[j % 3] for j in range(8)]
    copies = [_rewritten(m) for m in shared]
    single = [kinds[1]] * 8
    u = np.random.default_rng(5).random((6, 8))
    if layout == "1-d":
        u = u[0]
    elif layout == "F":
        u = np.asfortranarray(u)
    for margins in (shared, copies, single):
        groups, label = margin_groups(margins)
        for cols in (np.arange(8), np.array([1, 2, 4, 7]), slice(2, 6)):
            subset = np.array(margins, dtype=object)[cols]
            for method, values in (
                ("cdf", 4.0 * u),
                ("log_cdf", 4.0 * u),
                ("log_pdf", 4.0 * u),
                ("log_reversed_hazard", 4.0 * u),
                ("quantile", u),
                ("_hazard_quantile", -np.log(u)),
            ):
                # copies, as _hazard_quantile may overwrite its input
                values = values[..., cols]
                out = _columnwise((groups, label[cols]), method, np.copy(values))
                expected = np.stack(
                    [getattr(m, method)(np.copy(values[..., j])) for j, m in enumerate(subset)],
                    axis=-1,
                )
                assert np.array_equal(out, expected)
                # a column-major input keeps its columns contiguous
                assert out.T.flags.c_contiguous or layout == "C"


def test_loaded_model_margins_form_one_group(tmp_path, monkeypatch):
    # load_model builds one object per column; margin_groups still finds
    # one kind per distinct margin, for margins that share one object and
    # for margins built as one object per column
    def kinds():
        return standard_frechet(1.0), Frechet(alpha=2.0, scale=0.5), _gamma2_margin()

    shared = [Frechet(alpha=2.0, scale=0.5)] * 5
    per_column = [kinds()[j % 3] for j in range(6)]
    task = PredictionTask(
        A=np.ones((1, 6)), B=np.ones((2, 6)), margins=tuple(per_column),
        x=np.array([1.0]), num_samples=20, seed=1,
    )
    expected = run_prediction(dataclasses.replace(task, margins=kinds() * 2))
    result = run_prediction(task)
    assert np.array_equal(result.Z, expected.Z) and np.array_equal(result.Y, expected.Y)
    frechet_calls = _count_quantile_calls(monkeypatch, Frechet)
    tabulated_calls = _count_quantile_calls(monkeypatch, TabulatedContinuous)
    for margins, calls in ((shared, (1, 0)), (per_column, (2, 1))):
        model = validate_model(np.ones((1, len(margins))), margins)
        save_model(model, tmp_path / "model.json")
        groups, label = margin_groups(load_model(tmp_path / "model.json").margins)
        assert len(groups) == len(set(margins)) == sum(calls)
        assert [groups[k] for k in label] == margins
        values = np.linspace(0.1, 0.9, 2 * len(margins)).reshape(2, -1)
        want = np.stack([m.quantile(values[:, j]) for j, m in enumerate(margins)], axis=1)
        del frechet_calls[:], tabulated_calls[:]
        assert np.array_equal(_columnwise((groups, label), "quantile", values), want)
        assert (len(frechet_calls), len(tabulated_calls)) == calls


def test_margin_groups_of_no_margins():
    # the one-kind shortcut read margins[0]: "tuple index out of range"
    for margins in ((), []):
        kinds, label = margin_groups(margins)
        assert kinds == () and label.dtype == np.intp and label.shape == (0,)
