import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from maxlinear import (
    Frechet,
    MarginSpec,
    TabulatedContinuous,
    class_weights,
    conditional_law,
    hitting_structure,
    standard_frechet,
    validate_model,
)
from maxlinear.errors import (
    EmptyScenarioListError,
    InconsistentObservationError,
    NumericalOverflowError,
    TooLargeForBruteForceError,
)
from maxlinear.hitting import _decompose_checked
from maxlinear.margins import margin_groups
from maxlinear.oracles import (
    enumerate_relevant_scenarios,
    factorization_gap,
    ones_lower_triangular_model,
    product_form_scenarios,
    random_consistent_instance,
    scenario_probabilities,
)

TRIL3 = np.tril(np.ones((3, 3)))


def _gamma2_margin():
    grid = np.linspace(0.0, 20.0, 401)
    density = grid * np.exp(-grid)
    density /= np.sum(np.diff(grid) * (density[:-1] + density[1:]) / 2.0)
    return TabulatedContinuous(grid, density)


def test_singleton_classes_have_unit_weight():
    law = conditional_law(ones_lower_triangular_model(), np.array([1.0, 1.0, 3.0]))
    assert law.rank == 2
    assert [w.tolist() for w in law.weights] == [[1.0], [1.0]]


def test_symmetric_two_candidate_weights():
    # one row, both columns hit at zhat = (1, 1): perfectly symmetric
    model = validate_model([[1.0, 1.0]], [standard_frechet(1.0)] * 2)
    law = conditional_law(model, np.array([1.0]))
    assert law.rank == 1
    assert np.allclose(law.weights[0], [0.5, 0.5])
    # general-density path agrees
    general = class_weights(law.structure, margin_groups(model.margins))
    assert np.allclose(general[0], [0.5, 0.5], atol=1e-14)


def _two_candidate_structure(z_hat):
    return _decompose_checked(np.array([[1, 1]], dtype=bool), np.asarray(z_hat, dtype=float))


def frechet_weights(structure, alphas, scales):
    """Closed-form class weights for Frechet margins, the oracle for the
    general log-space path: within a class the exponential factors
    cancel, leaving w_j proportional to alpha_j scale_j^alpha_j zhat_j^-alpha_j."""
    alphas = np.broadcast_to(np.asarray(alphas, dtype=float), structure.z_hat.shape)
    scales = np.broadcast_to(np.asarray(scales, dtype=float), structure.z_hat.shape)
    w = alphas * scales**alphas * structure.z_hat**-alphas
    return [w[js] / w[js].sum() for js in structure.J]


def test_frechet_weight_ratios():
    s = _two_candidate_structure([1.0, 2.0])
    for alpha, expected in ((1.0, [2.0 / 3.0, 1.0 / 3.0]), (2.0, [0.8, 0.2])):
        assert np.allclose(frechet_weights(s, alpha, 1.0)[0], expected)
        general = class_weights(s, margin_groups((standard_frechet(alpha),) * 2))
        assert np.allclose(general[0], expected)


def test_frechet_shortcut_matches_general_path():
    gen = np.random.default_rng(7)
    for _ in range(25):
        model, x, _ = random_consistent_instance(gen, 4, 7)
        law = conditional_law(model, x)
        closed = frechet_weights(law.structure, 1.0, 1.0)
        for a, b in zip(closed, law.weights):
            assert np.allclose(a, b, atol=1e-12)


@pytest.mark.parametrize("alpha, x", [(4.0, 1e-100), (20.0, 1e-16)])
def test_frechet_weights_where_the_cdf_underflows(alpha, x):
    # at zhat = (x, x/2) both f and F underflow; their ratio, and so the
    # weights 1 : 2^alpha, stay finite
    model = validate_model([[1.0, 2.0]], [Frechet(alpha=alpha)] * 2)
    law = conditional_law(model, np.array([x]))
    big = 2.0**alpha
    np.testing.assert_allclose(law.weights[0], [1 / (1 + big), big / (1 + big)], rtol=1e-12)


def test_frechet_shortcut_with_scales():
    # nonunit scale and alpha shift the weights; the general path must agree
    margins = (Frechet(alpha=2.0, scale=1.5), Frechet(alpha=2.0, scale=1.5))
    s = _two_candidate_structure([1.0, 2.0])
    closed = frechet_weights(s, 2.0, 1.5)
    general = class_weights(s, margin_groups(margins))
    assert np.allclose(closed[0], general[0], atol=1e-12)


def test_class_weights_normalized():
    gen = np.random.default_rng(11)
    for _ in range(20):
        model, x, _ = random_consistent_instance(gen, 5, 8)
        law = conditional_law(model, x)
        for w in law.weights:
            assert abs(w.sum() - 1.0) <= 1e-12
            assert np.all(w >= 0) and np.all(w <= 1)


def test_weights_vanish_where_zhat_lies_beyond_the_support():
    # density 0.5 on [0, 2] observed at x = 5: f(zhat) = 0, so every
    # weight is exp(-inf) on both the class path and the oracle's. Nothing
    # underflows: no Z <= 2 gives X = 5, so the observation is inconsistent
    margin = TabulatedContinuous([0.0, 2.0], [0.5, 0.5])
    model = validate_model([[1.0]], [margin])
    with pytest.raises(
        InconsistentObservationError, match="every candidate of class 0 has zero density"
    ):
        conditional_law(model, np.array([5.0]))
    with pytest.raises(
        InconsistentObservationError, match="every scenario has zero density"
    ):
        scenario_probabilities([(0,)], [margin], np.array([5.0]))
    # density 0.5 on [2, 4] for column 1 of A = [[1, 1], [1, 0.1]] at
    # x = (1, 1): column 1 is no candidate, but no Z_1 <= zhat_1 = 1
    # exists, so the factor F_1(zhat_1) common to the class is 0
    margins = [standard_frechet(1.0), TabulatedContinuous([2.0, 4.0], [0.5, 0.5])]
    model = validate_model([[1.0, 1.0], [1.0, 0.1]], margins)
    with pytest.raises(InconsistentObservationError, match="column 1 has no mass below"):
        conditional_law(model, np.array([1.0, 1.0]))


def test_weights_evaluate_the_candidate_columns_only(monkeypatch):
    # x = (1, 1, 3) on the worked example has candidates J = ({0}, {2}),
    # so the margin term is evaluated at two bounds, not at all three
    sizes = []
    for cls in (Frechet, MarginSpec):
        def counted(self, z, method=cls.log_reversed_hazard):
            sizes.append(np.size(z))
            return method(self, z)

        monkeypatch.setattr(cls, "log_reversed_hazard", counted)
    margins = [standard_frechet(1.0), _gamma2_margin(), Frechet(alpha=2.0, scale=0.5)]
    law = conditional_law(validate_model(TRIL3, margins), np.array([1.0, 1.0, 3.0]))
    assert sum(sizes) == sum(map(len, law.structure.J)) == 2


def test_enumerate_scenarios_triangular():
    m = ones_lower_triangular_model()
    cases = {
        (1.0, 2.0, 3.0): [(0, 1, 2)],
        (1.0, 1.0, 3.0): [(0, 2)],
        (1.0, 1.0, 1.0): [(0,)],
    }
    for x, expected in cases.items():
        s = hitting_structure(m, np.array(x))
        assert enumerate_relevant_scenarios(s.H) == expected


def test_enumerate_scenarios_cap():
    H = np.ones((1, 21), dtype=bool)
    with pytest.raises(TooLargeForBruteForceError):
        enumerate_relevant_scenarios(H)


def test_scenario_probabilities_degenerate_and_symmetric():
    margins = (standard_frechet(1.0),) * 2
    z_hat = np.array([1.0, 1.0])
    single = scenario_probabilities([(0, 1)], margins, z_hat)
    assert single.probabilities.tolist() == [1.0]
    # A = [[1,1]], x = (1): two singleton scenarios, symmetric weights
    sym = scenario_probabilities([(0,), (1,)], margins, z_hat)
    assert np.allclose(sym.probabilities, [0.5, 0.5])


def test_scenario_probabilities_input_errors():
    margins = (standard_frechet(1.0),) * 2
    with pytest.raises(EmptyScenarioListError):
        scenario_probabilities([], margins, np.ones(2))
    with pytest.raises(ValueError):
        scenario_probabilities([(0,), (0, 1)], margins, np.ones(2))


def test_scenario_set_equals_product_form():
    gen = np.random.default_rng(23)
    for _ in range(50):
        model, x, _ = random_consistent_instance(gen, 5, 8)
        s = hitting_structure(model, x)
        brute = set(enumerate_relevant_scenarios(s.H))
        assert brute == product_form_scenarios(s)


def test_factorization_identity_random():
    gen = np.random.default_rng(31)
    for _ in range(50):
        model, x, _ = random_consistent_instance(gen, 4, 7)
        assert factorization_gap(hitting_structure(model, x), model.margins) <= 1e-10


MARGIN_POOLS = st.lists(
    st.one_of(
        st.builds(Frechet, alpha=st.floats(0.5, 20.0), scale=st.floats(0.2, 5.0)),
        st.just(_gamma2_margin()),
    ),
    min_size=1,
    max_size=3,
)


@given(seed=st.integers(0, 2**32 - 1), pool=MARGIN_POOLS)
@settings(max_examples=60, deadline=None)
def test_scenario_law_matches_class_factorization(seed, pool):
    # scenario probabilities equal the product of per-class weights, for
    # Frechet margins (closed-form reversed hazard) and a tabulated one
    # (the default, log_pdf - log_cdf)
    gen = np.random.default_rng(seed)
    A = random_consistent_instance(gen, int(gen.integers(1, 6)), int(gen.integers(1, 9)))[0].A
    margins = [pool[k] for k in gen.integers(len(pool), size=A.shape[1])]
    model = validate_model(A, margins)
    z = np.array([m.quantile(u) for m, u in zip(margins, gen.random(A.shape[1]))])
    x = (model.A * z).max(axis=1)
    s = hitting_structure(model, x)
    law = scenario_probabilities(
        enumerate_relevant_scenarios(s.H), model.margins, s.z_hat
    )
    cw = class_weights(s, margin_groups(model.margins))
    pos = [{int(j): w for j, w in zip(js, ws)} for js, ws in zip(s.J, cw)]
    for scen, prob in zip(law.scenarios, law.probabilities):
        expected = 1.0
        for factors in pos:
            expected *= max(factors.get(j, 0.0) for j in scen)
        assert prob == pytest.approx(expected, rel=1e-9)


@given(
    seed=st.integers(0, 2**32 - 1),
    log10_scale=st.floats(-300.0, 300.0),
)
@settings(max_examples=100, deadline=None)
def test_frechet_weights_at_every_scale(seed, log10_scale):
    # class weights are proportional to alpha_j (scale_j / zhat_j)^alpha_j
    # however far the observations sit from the margins' scales
    gen = np.random.default_rng(seed)
    model, x, _ = random_consistent_instance(
        gen, int(gen.integers(1, 6)), int(gen.integers(1, 9))
    )
    alphas = gen.uniform(0.5, 20.0, model.p)
    scales = gen.uniform(0.2, 5.0, model.p)
    model = validate_model(model.A, [Frechet(a, s) for a, s in zip(alphas, scales)])
    try:
        law = conditional_law(model, x * 10.0**log10_scale)
    except NumericalOverflowError:
        return  # some zhat_j = x_i / a_ij exceeds the largest float
    log_w = np.log(alphas) + alphas * (np.log(scales) - np.log(law.z_hat))
    for js, w in zip(law.structure.J, law.weights):
        assert np.all(np.isfinite(w)) and abs(w.sum() - 1.0) <= 1e-12
        closed = np.exp(log_w[js] - logsumexp(log_w[js]))
        np.testing.assert_allclose(w, closed, rtol=1e-9, atol=1e-12)


def test_log_weights_no_underflow_at_scale():
    # p large enough that the product of CDFs underflows in linear space
    p = 20000
    gen = np.random.default_rng(3)
    A = np.vstack([gen.random(p) + 0.5])
    model = validate_model(A, [standard_frechet(1.0)] * p)
    z = 1.0 / -np.log(gen.random(p))
    x = (model.A * z).max(axis=1)
    law = conditional_law(model, x)
    assert all(abs(w.sum() - 1.0) <= 1e-12 for w in law.weights)


@given(seed=st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_minimum_covers_are_minimal(seed):
    gen = np.random.default_rng(seed)
    model, x, _ = random_consistent_instance(gen, int(gen.integers(1, 6)), int(gen.integers(2, 9)))
    s = hitting_structure(model, x)
    scenarios = enumerate_relevant_scenarios(s.H)
    r = len(scenarios[0])
    assert r == s.rank
    # no smaller subset covers all rows
    n = s.H.shape[0]
    for combo in itertools.combinations(range(s.H.shape[1]), r - 1):
        if combo:
            assert not s.H[:, list(combo)].any(axis=1).all()
