import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from maxlinear import (
    DimensionMismatchError,
    Frechet,
    MarginCountMismatchError,
    MarginSpec,
    NegativeEntryError,
    RngStream,
    SmithSpec,
    TabulatedContinuous,
    ZeroMassBelowBoundError,
    conditional_law,
    draw_conditional_batch,
    run_prediction,
    smith_design,
    standard_frechet,
    validate_model,
)
from maxlinear.errors import AcceptanceTooRareError, DimensionOverflowError, _to_json
from maxlinear.hitting import compute_upper_bounds
from maxlinear.margins import _columnwise, margin_from_dict, margin_groups
from maxlinear.model import live_entries, max_linear_apply_batch
from maxlinear.oracles import (
    ones_lower_triangular_model,
    random_consistent_instance,
    rejection_oracle,
)
from maxlinear.sampler import PredictionTask, _truncated_matrix, row_floors

SITES7 = (
    (0.3, 0.4),
    (-1.2, 0.9),
    (1.5, -0.7),
    (-0.4, -1.3),
    (0.9, 1.6),
    (-1.7, -0.2),
    (0.1, -0.6),
)


def test_rng_stream_reproducible_and_split():
    a = RngStream(17, 0).generator().random(5)
    b = RngStream(17, 0).generator().random(5)
    assert np.array_equal(a, b)
    c = RngStream(17, 1).generator().random(5)
    assert not np.array_equal(a, c)


def test_truncated_draw_respects_bound():
    m = standard_frechet(1.0)
    gen = RngStream(1).generator()
    draws = _truncated_matrix((m,), np.array([0.8]), gen, 500)[:, 0]
    assert np.all((draws > 0) & (draws < 0.8))


def test_truncated_draw_matches_truncated_cdf():
    m = standard_frechet(1.0)
    gen = RngStream(2).generator()
    draws = _truncated_matrix((m,), np.array([1.0]), gen, 100_000)[:, 0]
    trunc = lambda z: np.exp(-1.0 / np.clip(z, 1e-300, 1.0)) / np.exp(-1.0)
    assert stats.kstest(draws, trunc).statistic < 0.01


def test_truncated_draw_unbounded_limit():
    m = standard_frechet(1.0)
    gen = RngStream(3).generator()
    draws = _truncated_matrix((m,), np.array([1e12]), gen, 100_000)[:, 0]
    assert stats.kstest(draws, lambda z: np.exp(-1.0 / z)).statistic < 0.01


def test_truncated_draw_far_in_the_lower_tail():
    # F(1e-3) = exp(-1000) underflows, log F = -1000 does not
    m = standard_frechet(1.0)
    b = 1e-3
    draws = _truncated_matrix((m,), np.array([b]), RngStream(10).generator(), 100_000)[:, 0]
    assert np.all((draws > 0) & (draws < b))
    trunc = lambda z: np.exp(1.0 / b - 1.0 / np.clip(z, 1e-300, b))
    assert stats.kstest(draws, trunc).statistic < 0.01


def test_truncated_draw_zero_mass():
    # log F(1e-320) = -1e320 is -inf in floating point
    bounds = np.array([1.0, 1e-320])
    with pytest.raises(ZeroMassBelowBoundError, match="column 1"):
        _truncated_matrix((standard_frechet(1.0),) * 2, bounds, RngStream(0).generator(), 1)
    # the worked example at alpha 4 and x = (1, 1, 3) 1e-80: log F(1e-80)
    # = -1e320 is -inf too, yet the mass below zhat is positive, so the
    # law builds and only the draw raises
    model = validate_model(np.tril(np.ones((3, 3))), [standard_frechet(4.0)] * 3)
    law = conditional_law(model, np.array([1.0, 1.0, 3.0]) * 1e-80)
    with pytest.raises(ZeroMassBelowBoundError, match="column 0"):
        draw_conditional_batch(law, 1, RngStream(0))


def test_truncated_matrix_heterogeneous_path():
    margins = (standard_frechet(1.0), standard_frechet(2.0))
    gen = RngStream(9).generator()
    vals = _truncated_matrix(margins, np.array([0.7, 1.3]), gen, 400)
    assert vals.shape == (400, 2)
    assert np.all(vals[:, 0] < 0.7) and np.all(vals[:, 1] < 1.3)
    assert np.all(vals > 0)


def test_truncated_matrix_blocks_match_one_pass():
    # 700 samples put 46 columns in a block, so 120 columns take three
    margins = tuple(Frechet(2.0, 0.5) if j % 3 else standard_frechet(1.0) for j in range(120))
    bounds = RngStream(5).generator().uniform(0.5, 3.0, 120)
    vals = _truncated_matrix(margins, bounds, RngStream(6).generator(), 700)
    hazard = -_columnwise(margin_groups(margins), "log_cdf", bounds)[:, None]
    h = hazard - np.log(RngStream(6).generator().random((120, 700)))
    assert np.array_equal(vals, _columnwise(margin_groups(margins), "_hazard_quantile", h.T))


class _FixedQuantile(MarginSpec):
    """Unit Frechet whose quantile always returns ``value``."""

    def __init__(self, value):
        self.value = value

    def cdf(self, z):
        return standard_frechet(1.0).cdf(z)

    def quantile(self, u):
        return np.full(np.shape(u), self.value)


class _QuantileOnly(MarginSpec):
    """Unit Frechet through cdf, pdf and quantile alone; it keeps each
    array its quantile is called with."""

    def __init__(self):
        self.calls = []

    def cdf(self, z):
        return standard_frechet(1.0).cdf(z)

    def pdf(self, z):
        return standard_frechet(1.0).pdf(z)

    def quantile(self, u):
        self.calls.append(np.array(u))
        return standard_frechet(1.0).quantile(u)


def test_a_margin_with_only_a_quantile_draws_through_it():
    # the default hazard kernel: one quantile call at exp(-h) per block
    m, bounds = _QuantileOnly(), np.array([0.5, 2.0, 7.0])
    vals = _truncated_matrix((m,) * 3, bounds, RngStream(3).generator(), 200)
    h = -np.log(m.cdf(bounds))[:, None] - np.log(RngStream(3).generator().random((3, 200)))
    assert len(m.calls) == 1 and np.array_equal(m.calls[0], np.exp(-h))
    assert np.array_equal(vals.T, standard_frechet(1.0).quantile(np.exp(-h)))


def test_truncated_matrix_clamps_to_the_bound():
    # a value rounded onto its bound becomes the float just below it, in
    # every row; a NaN from a custom margin names its column
    bounds = np.array([1.0, 0.8])
    stuck = (standard_frechet(1.0), _FixedQuantile(0.8))
    vals = _truncated_matrix(stuck, bounds, RngStream(4).generator(), 50)
    assert np.all(vals[:, 1] == np.nextafter(0.8, 0.0))
    assert np.all((vals[:, 0] > 0) & (vals[:, 0] < 1.0))
    broken = (standard_frechet(1.0), _FixedQuantile(np.nan))
    with pytest.raises(ZeroMassBelowBoundError, match="column 1"):
        _truncated_matrix(broken, bounds, RngStream(4).generator(), 50)


class _CountingGenerator(np.random.Generator):
    """A generator that counts its ``random`` calls."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.calls = 0

    def random(self, *args, **kwargs):
        self.calls += 1
        return super().random(*args, **kwargs)


# 700 samples put 46 columns in a block, so 120 columns take three
PIPELINE_BOUNDS = np.full(120, 2.0)


def test_nan_in_the_first_of_three_blocks_stops_the_fills():
    # the draw raises at the first block, so it has used the stream only
    # up to that block's end, the same on every run
    margins = (standard_frechet(1.0), _FixedQuantile(np.nan)) + (standard_frechet(1.0),) * 118
    gen, ref = _CountingGenerator(4), np.random.Generator(np.random.PCG64(4))
    with pytest.raises(ZeroMassBelowBoundError, match="column 1"):
        _truncated_matrix(margins, PIPELINE_BOUNDS, gen, 700)
    assert gen.calls == 1
    ref.random((46, 700))
    assert gen.random() == ref.random()


def test_block_fills_leave_the_stream_where_one_call_does():
    gen, ref = _CountingGenerator(7), np.random.Generator(np.random.PCG64(7))
    _truncated_matrix((standard_frechet(1.0),) * 120, PIPELINE_BOUNDS, gen, 700)
    assert gen.calls == 3
    ref.random((120, 700))
    assert gen.random() == ref.random()


def test_library_margins_never_return_nan():
    # so only a custom margin can reach the NaN error of _truncated_matrix
    h = np.array([np.inf, 1e308, 1e5, 745.2, 1.0, 1e-300, 0.0])
    for m in (standard_frechet(1.0), Frechet(0.5, 3.0), Frechet(20.0, 0.2), _gamma2_margin()):
        with np.errstate(over="ignore"):  # (1e-300) ** -2 overflows to inf
            assert not np.any(np.isnan(m._hazard_quantile(h.copy())))


@given(
    seed=st.integers(0, 2**32 - 1),
    log10_bounds=st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=6),
    alpha=st.floats(0.5, 20.0),
    scale=st.floats(0.1, 10.0).filter(lambda c: c != 1.0),
    tabulated=st.lists(st.booleans(), min_size=6, max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_truncated_values_lie_strictly_inside(seed, log10_bounds, alpha, scale, tabulated):
    # bounds from 1e-300 to 1e300: the clamp only moves values that fell
    # on 0 or on the bound, and a bound without mass below it raises
    bounds = 10.0 ** np.array(log10_bounds)
    frechet, gamma2 = Frechet(alpha, scale), _gamma2_margin()
    margins = tuple(gamma2 if t else frechet for t in tabulated[: bounds.size])
    log_f = _columnwise(margin_groups(margins), "log_cdf", bounds)
    if np.any(log_f == -np.inf):
        with pytest.raises(ZeroMassBelowBoundError):
            _truncated_matrix(margins, bounds, RngStream(seed).generator(), 40)
        return
    vals = _truncated_matrix(margins, bounds, RngStream(seed).generator(), 40)
    assert np.all(np.isfinite(vals)) and np.all((vals > 0) & (vals < bounds))
    with np.errstate(divide="ignore"):
        log_u = np.log(RngStream(seed).generator().random((bounds.size, 40)))
    raw = _columnwise(margin_groups(margins), "_hazard_quantile", (-log_f[:, None] - log_u).T)
    inside = (raw > 0) & (raw < bounds)
    assert np.array_equal(vals[inside], raw[inside])


def triangular_law(x):
    model = ones_lower_triangular_model()
    return model, conditional_law(model, np.asarray(x, dtype=float))


def test_draw_case_i_degenerate():
    model, law = triangular_law([1.0, 2.0, 3.0])
    for k in range(20):
        Z, _ = draw_conditional_batch(law, 1, RngStream(k))
        assert np.array_equal(Z[0], [1.0, 2.0, 3.0])


def test_draw_case_ii_pattern():
    model, law = triangular_law([1.0, 1.0, 3.0])
    seen = set()
    for k in range(200):
        z = draw_conditional_batch(law, 1, RngStream(k))[0][0]
        assert z[0] == 1.0 and z[2] == 3.0
        assert 0.0 < z[1] < 1.0
        seen.add(round(z[1], 12))
    assert len(seen) > 150  # z_2 really is random


def test_draw_case_iii_pattern():
    model, law = triangular_law([1.0, 1.0, 1.0])
    z2 = []
    for k in range(200):
        z = draw_conditional_batch(law, 1, RngStream(k))[0][0]
        assert z[0] == 1.0
        assert 0.0 < z[1] < 1.0 and 0.0 < z[2] < 1.0
        z2.append(z[1])
    # independence smoke check: no constant coordinates
    assert np.std(z2) > 0


def test_chosen_column_always_candidate():
    gen = np.random.default_rng(13)
    for _ in range(20):
        model, x, _ = random_consistent_instance(gen, 4, 7)
        law = conditional_law(model, x)
        Z, chosen = draw_conditional_batch(law, 1, RngStream(int(gen.integers(1 << 30))))
        z, chosen = Z[0], chosen[0]
        for k in range(law.rank):
            assert chosen[k] in law.structure.J[k]
            assert z[chosen[k]] == law.z_hat[chosen[k]]


def test_exactness_every_draw():
    gen = np.random.default_rng(29)
    for _ in range(50):
        model, x, _ = random_consistent_instance(gen, 5, 9)
        law = conditional_law(model, x)
        Z, _ = draw_conditional_batch(law, 20, RngStream(int(gen.integers(1 << 30))))
        for z in Z:
            assert np.allclose((model.A * z).max(axis=1), x, rtol=1e-9)


def test_batch_determinism():
    _, law = triangular_law([1.0, 1.0, 3.0])
    Z1, c1 = draw_conditional_batch(law, 50, RngStream(77, 4))
    Z2, c2 = draw_conditional_batch(law, 50, RngStream(77, 4))
    assert np.array_equal(Z1, Z2) and np.array_equal(c1, c2)


def test_scenario_frequencies_match_weights():
    # symmetric two-candidate class: empirical pick frequency ~ 0.5
    model = validate_model([[1.0, 1.0]], [standard_frechet(1.0)] * 2)
    law = conditional_law(model, np.array([1.0]))
    N = 100_000
    _, chosen = draw_conditional_batch(law, N, RngStream(5))
    freq = (chosen[:, 0] == 0).mean()
    band = 3.0 * np.sqrt(0.25 / N)
    assert abs(freq - 0.5) <= band


def test_asymmetric_scenario_frequencies():
    # zhat = (1, 2) with unit Frechet: weights (2/3, 1/3)
    model = validate_model([[1.0, 0.5]], [standard_frechet(1.0)] * 2)
    law = conditional_law(model, np.array([1.0]))
    assert np.allclose(law.weights[0], [2.0 / 3.0, 1.0 / 3.0])
    N = 100_000
    _, chosen = draw_conditional_batch(law, N, RngStream(6))
    freq = (chosen[:, 0] == 0).mean()
    band = 3.0 * np.sqrt((2.0 / 3.0) * (1.0 / 3.0) / N)
    assert abs(freq - 2.0 / 3.0) <= band


def _four_class_law():
    # one class per row: symmetric (1/2, 1/2), asymmetric (2/3, 1/3), one
    # with a small third weight 0.05 / 2.05 and one deterministic atom
    A = np.zeros((4, 8))
    A[0, :2] = 1.0
    A[1, 2:4] = (1.0, 0.5)
    A[2, 4:7] = (1.0, 1.0, 0.05)
    A[3, 7] = 1.0
    model = validate_model(A, [standard_frechet(1.0)] * 8)
    return conditional_law(model, np.ones(4))


def test_multi_class_pick_frequencies():
    law = _four_class_law()
    assert law.rank == 4 and law.weights[2][2] == pytest.approx(0.05 / 2.05)
    N = 100_000
    _, chosen = draw_conditional_batch(law, N, RngStream(14))
    for s, (js, ws) in enumerate(zip(law.structure.J, law.weights)):
        for j, w in zip(js, ws):
            freq = (chosen[:, s] == j).mean()
            assert abs(freq - w) <= 3.0 * np.sqrt(w * (1.0 - w) / N)


def test_picks_stay_in_their_class():
    # cumulative weights that fall short of each class's end, as rounding
    # can make them, must still pick inside the class
    law = _four_class_law()
    short = dataclasses.replace(law, weights=tuple(w * (1.0 - 1e-2) for w in law.weights))
    _, chosen = draw_conditional_batch(short, 2_000, RngStream(15))
    for s, js in enumerate(law.structure.J):
        assert np.all(np.isin(chosen[:, s], js))


def _gamma2_margin():
    grid = np.linspace(0.0, 20.0, 401)
    density = grid * np.exp(-grid)
    density /= np.sum(np.diff(grid) * (density[:-1] + density[1:]) / 2.0)
    return TabulatedContinuous(grid, density)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5),
    p=st.integers(1, 9),
    frechets=st.lists(
        st.tuples(st.floats(0.5, 5.0), st.floats(0.2, 5.0)), min_size=1, max_size=3
    ),
)
@settings(max_examples=100, deadline=None)
def test_batch_draws_are_exact_with_mixed_margins(seed, n, p, frechets):
    # Frechet margins of any shape and scale plus a tabulated one; some
    # columns share a margin object, others hold a distinct but equal copy
    gen = np.random.default_rng(seed)
    kinds = [Frechet(alpha=a, scale=c) for a, c in frechets] + [_gamma2_margin()]
    margins = []
    for k in gen.integers(len(kinds), size=p):
        m = kinds[k]
        copy = json.loads(json.dumps(m, default=_to_json))  # the writer's document
        margins.append(m if gen.random() < 0.5 else margin_from_dict(copy))
    A = gen.random((n, p))
    A[gen.random((n, p)) < 0.35] = 0.0
    for i in np.flatnonzero(~(A > 0).any(axis=1)):
        A[i, gen.integers(p)] = gen.random() + 0.1
    for j in np.flatnonzero(~(A > 0).any(axis=0)):
        A[gen.integers(n), j] = gen.random() + 0.1
    model = validate_model(A, margins)
    z = np.array([m.quantile(u) for m, u in zip(margins, gen.random(p))])
    x = (A * z).max(axis=1)
    law = conditional_law(model, x)
    Z, chosen = draw_conditional_batch(law, 50, RngStream(seed))
    _assert_exact_batch(A, x, law, Z, chosen)


def _assert_exact_batch(A, x, law, Z, chosen):
    # every draw reproduces x within rel_tol, every pick lies in its
    # class, the picked atoms sit exactly on zhat and every other entry
    # strictly inside (0, zhat)
    z_hat = law.z_hat
    rel_tol = 1e-9  # the default of conditional_law
    assert np.all(np.abs((A * Z[:, None, :]).max(axis=2) - x) <= rel_tol * x)
    for s, js in enumerate(law.structure.J):
        assert np.all(np.isin(chosen[:, s], js))
    rows = np.arange(Z.shape[0])[:, None]
    assert np.array_equal(Z[rows, chosen], np.broadcast_to(z_hat[chosen], chosen.shape))
    rest = np.ones(Z.shape, dtype=bool)
    rest[rows, chosen] = False
    below = (Z > 0.0) & (Z < z_hat)
    assert np.all(below[rest])


@pytest.mark.parametrize(
    "alpha, x",
    [(10.0, np.array([0.5, 0.5, 1.5])), (1.0, np.array([1.0, 1.0, 3.0]) * 1e-3)],
)
def test_draws_exact_where_the_cdf_underflows(alpha, x):
    # the 3 x 3 worked example with F(zhat_j) below the smallest double:
    # log F(0.5) = -1024 at alpha 10, log F(1e-3) = -1000 at alpha 1
    model = validate_model(np.tril(np.ones((3, 3))), [standard_frechet(alpha)] * 3)
    law = conditional_law(model, x)
    Z, chosen = draw_conditional_batch(law, 1_000, RngStream(16))
    _assert_exact_batch(model.A, x, law, Z, chosen)


@pytest.mark.parametrize("alpha, s", [(1.0, 1e-20), (2.0, 1e-100), (0.5, 1e-300)])
def test_draws_exact_where_the_law_is_narrower_than_an_ulp(alpha, s):
    # the worked example x = (1, 1, 3) s: the truncated law of z_2 lies
    # within far less than one ulp of zhat_2 = s, so every value of z_2
    # is the float just below it
    model = validate_model(np.tril(np.ones((3, 3))), [standard_frechet(alpha)] * 3)
    x = np.array([1.0, 1.0, 3.0]) * s
    law = conditional_law(model, x)
    Z, chosen = draw_conditional_batch(law, 200, RngStream(1))
    _assert_exact_batch(model.A, x, law, Z, chosen)


def test_predict_consistency():
    model, law = triangular_law([1.0, 1.0, 3.0])
    Z = draw_conditional_batch(law, 1, RngStream(8))[0]
    upper = np.full(3, np.inf)
    Y = max_linear_apply_batch(model.A, Z, upper, np.zeros(3))
    assert np.allclose(Y, [[1.0, 1.0, 3.0]], rtol=1e-9)
    zero_rows = max_linear_apply_batch(np.zeros((2, 3)), Z, upper, np.zeros(2))
    assert np.array_equal(zero_rows, [[0.0, 0.0]])
    with pytest.raises(DimensionMismatchError):
        max_linear_apply_batch(np.ones((1, 4)), Z, np.full(4, np.inf), np.zeros(1))


def test_predicted_coordinate_mean_matches_quadrature():
    # case (ii), B = [[0,1,0]]: output is Z_2 | Z_2 < 1
    model, law = triangular_law([1.0, 1.0, 3.0])
    Z, _ = draw_conditional_batch(law, 100_000, RngStream(12))
    m = standard_frechet(1.0)
    num, _ = integrate.quad(lambda z: z * m.pdf(z), 0.0, 1.0)
    expected = num / m.cdf(1.0)
    assert np.mean(Z[:, 1]) == pytest.approx(expected, rel=0.01)


def test_rejection_oracle_basics():
    model = ones_lower_triangular_model()
    x = np.array([1.0, 1.0, 3.0])
    eps = 0.05
    acc = rejection_oracle(model, x, eps, 200, RngStream(21))
    assert acc.shape == (200, 3)
    # accepted coordinates never exceed the inflated upper bounds
    z_cap = compute_upper_bounds(model, x * (1 + eps))
    assert np.all(acc <= z_cap * (1 + 1e-12))


def test_rejection_oracle_budget_error():
    model = ones_lower_triangular_model()
    with pytest.raises(AcceptanceTooRareError) as err:
        rejection_oracle(
            model, np.array([1.0, 1.0, 3.0]), 0.001, 10_000,
            RngStream(1), max_proposals=50_000,
        )
    assert 0.0 <= err.value.acceptance_rate < 1.0


def test_rejection_oracle_epsilon_validation():
    model = ones_lower_triangular_model()
    with pytest.raises(ValueError):
        rejection_oracle(model, np.array([1.0, 1.0, 3.0]), 0.5, 10, RngStream(0))
    # a string or None ended in a TypeError from the range check
    for bad in ("0.01", None, True):
        with pytest.raises(ValueError, match="epsilon"):
            rejection_oracle(model, np.array([1.0, 1.0, 3.0]), bad, 10, RngStream(0))


def test_run_prediction_with_free_columns():
    # last column never observed: it must be drawn unconditionally
    A = np.array([[1.0, 1.0, 0.0]])
    B = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    margins = (standard_frechet(1.0),) * 3
    task = PredictionTask(A=A, B=B, margins=margins, x=np.array([2.0]),
                          num_samples=20_000, seed=3)
    result = run_prediction(task)
    assert result.free_columns.tolist() == [2]
    assert result.conditioned_columns.tolist() == [0, 1]
    # free coordinate unconditional: KS against the plain Frechet CDF
    ks = stats.kstest(result.Z[:, 2], lambda z: np.exp(-1.0 / z)).statistic
    assert ks < 0.015
    # observed constraint reproduced through the conditioned columns
    assert np.allclose(np.max(result.Z[:, :2], axis=1), 2.0, rtol=1e-9)


@pytest.mark.parametrize("p_free, calls", [(0, 2), (2, 3)])
def test_one_request_groups_the_margins_once_per_layer(monkeypatch, p_free, calls):
    # once for the class weights and once per truncated draw (the
    # conditioned columns, then the free ones), never per draw block:
    # 20,000 samples put one column in a block
    seen = []

    def counted(margins):
        seen.append(len(margins))
        return margin_groups(margins)

    monkeypatch.setattr("maxlinear.conditional.margin_groups", counted)
    monkeypatch.setattr("maxlinear.sampler.margin_groups", counted)
    kinds = (standard_frechet(1.0), _gamma2_margin(), Frechet(alpha=2.0, scale=0.5))
    A = np.hstack([np.tril(np.ones((3, 3))), np.zeros((3, p_free))])
    run_prediction(PredictionTask(
        A=A, B=np.ones((2, A.shape[1])), margins=(kinds * 2)[: A.shape[1]],
        x=np.array([1.0, 1.0, 3.0]), num_samples=20_000, seed=5,
    ))
    assert seen == [3, 3, 2][:calls]


def test_free_columns_follow_their_margins():
    # a free factor is its margin truncated below +inf: the margin itself
    frechet = Frechet(alpha=2.0, scale=0.5)
    gamma2 = _gamma2_margin()
    task = PredictionTask(
        A=np.array([[1.0, 0.0, 0.0]]), B=np.eye(3),
        margins=(standard_frechet(1.0), frechet, gamma2), x=np.array([2.0]),
        num_samples=100_000, seed=17,
    )
    Z = run_prediction(task).Z
    assert stats.kstest(Z[:, 1], frechet.cdf).statistic < 0.01
    assert stats.kstest(Z[:, 2], gamma2.cdf).statistic < 0.01


@pytest.mark.parametrize("p_free", [0, 2])
def test_sample_matrix_is_column_major(p_free):
    # every per-column pass reads and writes contiguous memory
    model, law = triangular_law([1.0, 1.0, 3.0])
    Z, _ = draw_conditional_batch(law, 7, RngStream(2))
    assert Z.T.flags.c_contiguous
    A = np.hstack([model.A, np.zeros((3, p_free))])
    result = run_prediction(PredictionTask(
        A=A, B=np.ones((2, A.shape[1])), margins=(standard_frechet(1.0),) * A.shape[1],
        x=np.array([1.0, 1.0, 3.0]), num_samples=7, seed=2,
    ))
    assert result.free_columns.size == p_free
    assert result.Z.shape == (7, A.shape[1]) and result.Z.T.flags.c_contiguous


def test_run_prediction_shape_errors():
    margins = (standard_frechet(1.0),) * 2
    with pytest.raises(DimensionMismatchError):
        run_prediction(PredictionTask(
            A=np.ones((1, 2)), B=np.ones((1, 3)), margins=margins,
            x=np.array([1.0]), num_samples=1, seed=0,
        ))
    with pytest.raises(DimensionMismatchError):
        run_prediction(PredictionTask(
            A=np.ones((1, 2)), B=np.ones((1, 2)), margins=margins[:1],
            x=np.array([1.0]), num_samples=1, seed=0,
        ))
    with pytest.raises(DimensionMismatchError):
        run_prediction(PredictionTask(
            A=np.ones((1, 2)), B=np.ones(2), margins=margins,
            x=np.array([1.0]), num_samples=1, seed=0,
        ))
    # no observations at all, or no factors
    with pytest.raises(DimensionMismatchError):
        run_prediction(PredictionTask(
            A=np.ones((0, 2)), B=np.ones((1, 2)), margins=margins,
            x=np.array([]), num_samples=1, seed=0,
        ))
    with pytest.raises(DimensionMismatchError):
        run_prediction(PredictionTask(
            A=np.ones((1, 0)), B=np.ones((1, 0)), margins=(),
            x=np.array([1.0]), num_samples=1, seed=0,
        ))


def test_run_prediction_rejects_bad_count():
    # 0 gave empty arrays, -3 a NumPy error and 2.7 silently two samples
    task = PredictionTask(
        A=np.ones((1, 2)), B=np.ones((1, 2)), margins=(standard_frechet(1.0),) * 2,
        x=np.array([1.0]), num_samples=1, seed=0,
    )
    for bad in (0, -3, 2.7):
        with pytest.raises(ValueError, match="num_samples"):
            run_prediction(dataclasses.replace(task, num_samples=bad))
    assert run_prediction(dataclasses.replace(task, num_samples=np.int64(3))).Z.shape == (3, 2)
    # and the draw itself: 0 gave "zero-size array to reduction operation"
    law = conditional_law(validate_model(task.A, task.margins), task.x)
    for bad in (0, -1, 2.5):
        with pytest.raises(ValueError, match="^num must be an integer >= 1"):
            draw_conditional_batch(law, bad, RngStream(0))


def test_run_prediction_checks_its_size_before_drawing(monkeypatch):
    # a Smith run with --num 200000 ended in a NumPy memory error; the size
    # of Z (num_samples x p) and of Y (num_samples x m) is now checked first
    model = ones_lower_triangular_model()
    task = PredictionTask(
        A=model.A, B=np.ones((4, 3)), margins=model.margins,
        x=np.array([1.0, 1.0, 3.0]), num_samples=10**9, seed=0,
    )
    tracemalloc.start()
    try:
        with pytest.raises(DimensionOverflowError, match="num_samples"):
            run_prediction(task)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    # at a cap of 40 entries, ten samples fill Y (10 x 4) exactly
    monkeypatch.setattr("maxlinear.errors.MAX_DESIGN_ENTRIES", 40)
    assert run_prediction(dataclasses.replace(task, num_samples=10)).Y.shape == (10, 4)
    with pytest.raises(DimensionOverflowError, match="num_samples=11"):
        run_prediction(dataclasses.replace(task, num_samples=11))


def test_run_prediction_rejects_bad_seed():
    # 2.7 drew the stream of seed 2 and None raised a bare TypeError
    task = PredictionTask(
        A=np.ones((1, 2)), B=np.ones((1, 2)), margins=(standard_frechet(1.0),) * 2,
        x=np.array([1.0]), num_samples=4, seed=0,
    )
    for bad in (2.7, -1, "3", None):
        with pytest.raises(ValueError, match="seed"):
            run_prediction(dataclasses.replace(task, seed=bad))
    Z = run_prediction(dataclasses.replace(task, seed=np.int64(3))).Z
    assert np.array_equal(Z, run_prediction(dataclasses.replace(task, seed=3)).Z)


def test_zero_column_padding_keeps_the_draws():
    # the padded task validates the observed sub-block, the plain one A, B
    # and the margins as given; the conditioned draws come from one stream
    gen = np.random.default_rng(8)
    A = gen.uniform(0.5, 1.0, (3, 5))
    B = gen.random((4, 5))
    kinds = (standard_frechet(1.0), Frechet(alpha=2.0, scale=0.5), _gamma2_margin())
    margins = tuple(kinds[j % 3] for j in range(5))
    x = (A * gen.uniform(0.5, 1.5, 5)).max(axis=1)
    plain = run_prediction(PredictionTask(
        A=A, B=B, margins=margins, x=x, num_samples=30, seed=6,
    ))
    padded = run_prediction(PredictionTask(
        A=np.pad(A, ((0, 0), (0, 1))), B=np.pad(B, ((0, 0), (0, 1))),
        margins=margins + kinds[:1], x=x, num_samples=30, seed=6,
    ))
    assert plain.free_columns.size == 0 and padded.free_columns.tolist() == [5]
    assert np.array_equal(padded.Z[:, :5], plain.Z)
    assert np.array_equal(padded.Y, plain.Y)


def test_run_prediction_without_prediction_rows():
    # a B with zero rows asks for Z only, drawn from stream (seed, 0) as
    # draw_conditional_batch draws it; case (i) is a point mass
    model = ones_lower_triangular_model()
    for x in ([1.0, 2.0, 3.0], [1.0, 1.0, 3.0]):
        x = np.array(x)
        result = run_prediction(PredictionTask(
            A=model.A, B=np.zeros((0, 3)), margins=model.margins, x=x,
            num_samples=50, seed=4,
        ))
        Z, _ = draw_conditional_batch(conditional_law(model, x), 50, RngStream(4, 0))
        assert result.Y.shape == (50, 0)
        assert np.array_equal(result.Z, Z)
        if x[1] == 2.0:
            assert np.all(result.Z == x)


def test_run_prediction_checks_free_columns_and_the_shape_of_A():
    # columns 1 and 2 have no positive entry, so they are free; their
    # negative and NaN entries were never checked. A 1-d A raised IndexError
    task = PredictionTask(
        A=np.array([[1.0, -1.0, np.nan], [0.5, -2.0, np.nan]]), B=np.ones((1, 3)),
        margins=(standard_frechet(1.0),) * 3, x=np.array([1.0, 0.5]),
        num_samples=5, seed=0,
    )
    with pytest.raises(NegativeEntryError, match=r"columns \[1, 2\]"):
        run_prediction(task)
    A = np.array([[1.0, 0.0, np.nan]])
    with pytest.raises(NegativeEntryError, match=r"columns \[2\]"):
        run_prediction(dataclasses.replace(task, A=A, x=np.array([1.0])))
    with pytest.raises(DimensionMismatchError, match="2-d"):
        run_prediction(dataclasses.replace(task, A=np.ones(3), x=np.array([1.0])))


def test_margin_count_mismatch_is_one_error_class():
    # validate_model and run_prediction raise the same class for this fault
    assert issubclass(MarginCountMismatchError, DimensionMismatchError)
    margins = (standard_frechet(1.0),)
    with pytest.raises(MarginCountMismatchError):
        validate_model(np.ones((1, 2)), margins)
    with pytest.raises(MarginCountMismatchError):
        run_prediction(PredictionTask(
            A=np.ones((1, 2)), B=np.ones((1, 2)), margins=margins,
            x=np.array([1.0]), num_samples=1, seed=0,
        ))


def test_bad_B_entries_are_named_by_column():
    B = np.ones((2, 5))
    B[0, 1], B[1, 3], B[0, 4] = -0.5, np.nan, np.inf
    with pytest.raises(NegativeEntryError, match=r"B has .* in columns \[1, 3, 4\]$"):
        run_prediction(PredictionTask(
            A=np.ones((1, 5)), B=B, margins=(standard_frechet(1.0),) * 5,
            x=np.array([1.0]), num_samples=1, seed=0,
        ))


def test_run_prediction_names_a_non_numeric_A():
    with pytest.raises(ValueError, match="invalid 'A'"):
        run_prediction(PredictionTask(
            A={"a": 1}, B=np.ones((2, 2)), margins=(standard_frechet(1.0),) * 2,
            x=np.array([1.0]), num_samples=1, seed=0,
        ))


@pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf])
def test_run_prediction_rejects_bad_B_entries(bad):
    B = np.ones((2, 2))
    B[1, 0] = bad
    with pytest.raises(NegativeEntryError):
        run_prediction(PredictionTask(
            A=np.ones((1, 2)), B=B, margins=(standard_frechet(1.0),) * 2,
            x=np.array([1.0]), num_samples=1, seed=0,
        ))


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    p_cond=st.integers(1, 6),
    p_free=st.integers(0, 3),
    m=st.integers(1, 5),
)
@settings(max_examples=150, deadline=None)
def test_pruned_prediction_map_is_exact(seed, n, p_cond, p_free, m):
    # Power-of-two coefficients keep the products exact: a B row that is
    # a multiple of an A row ties every candidate atom of a class at the
    # row floor. Free columns sit at random positions, some B entries are
    # arbitrary reals and some B rows are all zero.
    gen = np.random.default_rng(seed)
    levels = np.array([0.0, 0.25, 0.5, 1.0, 2.0])
    Ac = gen.choice(levels, size=(n, p_cond))
    for i in np.flatnonzero(~(Ac > 0).any(axis=1)):
        Ac[i, gen.integers(p_cond)] = 1.0
    for j in np.flatnonzero(~(Ac > 0).any(axis=0)):
        Ac[gen.integers(n), j] = 1.0
    x = (Ac / -np.log(gen.random(p_cond))).max(axis=1)
    p = p_cond + p_free
    A = np.zeros((n, p))
    A[:, gen.permutation(p)[:p_cond]] = Ac
    B = gen.choice(levels, size=(m, p))
    reals = gen.random((m, p)) < 0.2
    B[reals] = 3.0 * gen.random(int(reals.sum()))
    copies = gen.random(m) < 0.3
    B[copies] = A[gen.integers(n, size=int(copies.sum()))] * 2.0 ** gen.integers(-2, 3)
    B[gen.random(m) < 0.2] = 0.0
    result = run_prediction(PredictionTask(
        A=A, B=B, margins=(standard_frechet(1.0),) * p, x=x,
        num_samples=40, seed=seed,
    ))
    assert np.array_equal(result.Y, (B * result.Z[:, None, :]).max(axis=2))


def test_live_entries_smith_sites7_at_five():
    # the benchmark's structure counts pin the same 2,746 of 22,500
    spec = SmithSpec(q=25, sites=SITES7, grid=((0.0, 0.0), (2.0, 2.0)) + SITES7)
    design = smith_design(spec)
    model = validate_model(design.A, [standard_frechet(1.0)] * design.A.shape[1])
    law = conditional_law(model, np.full(7, 5.0))
    live = live_entries(design.B, law.z_hat, row_floors(law, design.B))
    assert int((design.B > 0).sum()) == 22_500
    assert int(live.sum()) == 2_746
