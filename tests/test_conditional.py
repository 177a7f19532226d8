import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from maxlinear import (
    EmptyScenarioListError,
    Frechet,
    TooLargeForBruteForceError,
    class_weights,
    conditional_law,
    decompose,
    enumerate_relevant_scenarios,
    hitting_structure,
    max_linear_apply,
    scenario_log_weights,
    scenario_probabilities,
    standard_frechet,
    validate_model,
)
from maxlinear.conditional import class_log_weights
from maxlinear.experiments import (
    factorization_gap,
    ones_lower_triangular_model,
    product_form_scenarios,
    random_consistent_instance,
)

TRIL3 = np.tril(np.ones((3, 3)))


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
    general = class_weights(law.structure, model.margins)
    assert np.allclose(general[0], [0.5, 0.5], atol=1e-14)


def _two_candidate_structure(z_hat):
    return decompose(np.array([[1, 1]], dtype=bool), np.asarray(z_hat, dtype=float))


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
        general = class_weights(s, (standard_frechet(alpha),) * 2)
        assert np.allclose(general[0], expected)


def test_frechet_shortcut_matches_general_path():
    gen = np.random.default_rng(7)
    for _ in range(25):
        model, x, _ = random_consistent_instance(gen, 4, 7)
        law = conditional_law(model, x)
        closed = frechet_weights(law.structure, 1.0, 1.0)
        for a, b in zip(closed, law.weights):
            assert np.allclose(a, b, atol=1e-12)


def test_frechet_shortcut_with_scales():
    # nonunit scale and alpha shift the weights; the general path must agree
    margins = (Frechet(alpha=2.0, scale=1.5), Frechet(alpha=2.0, scale=1.5))
    s = _two_candidate_structure([1.0, 2.0])
    closed = frechet_weights(s, 2.0, 1.5)
    general = class_weights(s, margins)
    assert np.allclose(closed[0], general[0], atol=1e-12)


def test_class_weights_normalized():
    gen = np.random.default_rng(11)
    for _ in range(20):
        model, x, _ = random_consistent_instance(gen, 5, 8)
        law = conditional_law(model, x)
        for w in law.weights:
            assert abs(w.sum() - 1.0) <= 1e-12
            assert np.all(w >= 0) and np.all(w <= 1)


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
        assert factorization_gap(model, x) <= 1e-10


def test_scenario_law_matches_class_factorization():
    # scenario probabilities equal the product of per-class weights
    gen = np.random.default_rng(47)
    model, x, _ = random_consistent_instance(gen, 4, 5)
    s = hitting_structure(model, x)
    law = scenario_probabilities(
        enumerate_relevant_scenarios(s.H), model.margins, s.z_hat
    )
    cw = class_weights(s, model.margins)
    pos = [{int(j): w for j, w in zip(js, ws)} for js, ws in zip(s.J, cw)]
    for scen, prob in zip(law.scenarios, law.probabilities):
        expected = 1.0
        for factors in pos:
            expected *= max(factors.get(j, 0.0) for j in scen)
        assert prob == pytest.approx(expected, rel=1e-9)


def test_log_weights_no_underflow_at_scale():
    # p large enough that the product of CDFs underflows in linear space
    p = 20000
    gen = np.random.default_rng(3)
    A = np.vstack([gen.random(p) + 0.5])
    model = validate_model(A, [standard_frechet(1.0)] * p)
    z = 1.0 / -np.log(gen.random(p))
    x = max_linear_apply(model.A, z)
    s = hitting_structure(model, x)
    log_w = class_log_weights(s, model.margins)
    assert all(np.isfinite(logsumexp(lw)) for lw in log_w)
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
