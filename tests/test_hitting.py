import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxlinear import (
    EmptyScenarioClassError,
    InconsistentObservationError,
    NumericalOverflowError,
    conditional_law,
    hitting_structure,
    standard_frechet,
    validate_model,
)
from maxlinear.hitting import compute_hitting_matrix, compute_upper_bounds, decompose
from maxlinear.sampler import PredictionTask, run_prediction

TRIL3 = np.tril(np.ones((3, 3)))


def model3():
    return validate_model(TRIL3, [standard_frechet(1.0)] * 3)


def small_model(A):
    A = np.asarray(A, dtype=float)
    return validate_model(A, [standard_frechet(1.0)] * A.shape[1])


def test_upper_bounds_triangular():
    assert np.array_equal(
        compute_upper_bounds(model3(), [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]
    )


def test_upper_bounds_single_entry():
    assert compute_upper_bounds(small_model([[4.0]]), [2.0]) == pytest.approx([0.5])


def test_upper_bounds_hand_example():
    m = small_model([[2.0, 1.0], [1.0, 3.0]])
    z_hat = compute_upper_bounds(m, [4.0, 6.0])
    assert np.allclose(z_hat, [2.0, 2.0])
    assert np.allclose((m.A * z_hat).max(axis=1), [4.0, 6.0])


def test_upper_bound_overflow_is_an_explicit_error():
    # zhat_0 = 1e10 / 1e-300 is beyond the float64 range: a numerical
    # edge, not an x outside the model range
    m = small_model([[1e-300, 0.0], [0.0, 1.0]])
    x = [1e10, 1.0]
    for stage in (compute_upper_bounds, hitting_structure, conditional_law):
        with pytest.raises(NumericalOverflowError, match="column 0 overflows float64"):
            stage(m, x)


HITTING_CASES = [
    ([1.0, 2.0, 3.0], np.eye(3, dtype=bool)),
    ([1.0, 1.0, 3.0], np.array([[1, 0, 0], [1, 1, 0], [0, 0, 1]], dtype=bool)),
    ([1.0, 1.0, 1.0], np.array([[1, 0, 0], [1, 1, 0], [1, 1, 1]], dtype=bool)),
]


@pytest.mark.parametrize("x,expected", HITTING_CASES)
def test_hitting_matrix_triangular_cases(x, expected):
    m = model3()
    x = np.asarray(x)
    H = compute_hitting_matrix(m, x, compute_upper_bounds(m, x))
    assert np.array_equal(H, expected)


def test_hitting_matrix_rejects_out_of_range():
    m = model3()
    x = np.array([1.0, 0.5, 3.0])  # row 2 demands max(z1, z2) = 0.5 < z1 bound
    with pytest.raises(InconsistentObservationError):
        compute_hitting_matrix(m, x, compute_upper_bounds(m, x))


@pytest.mark.parametrize("rel_tol", [np.nan, -1e-3, 1.0, np.inf, None, "0.1", False])
def test_rel_tol_outside_the_unit_interval_is_rejected(rel_tol):
    # at rel_tol >= 1 every positive entry hit and draws missed x by up to
    # 85%; NaN and negative values raised InconsistentObservationError, and
    # None or a string a TypeError; a bool is not a real number here
    m = small_model([[1.0, 0.5, 0.2], [0.3, 1.0, 0.4]])
    x = np.array([1.0, 2.0])
    with pytest.raises(ValueError, match="rel_tol"):
        compute_hitting_matrix(m, x, compute_upper_bounds(m, x), rel_tol)
    with pytest.raises(ValueError, match="rel_tol"):
        conditional_law(m, x, rel_tol)
    with pytest.raises(ValueError, match="rel_tol"):
        run_prediction(PredictionTask(
            A=m.A, B=np.zeros((0, 3)), margins=m.margins, x=x,
            num_samples=5, seed=0, rel_tol=rel_tol,
        ))


def test_decompose_diagonal():
    s = decompose(np.eye(3, dtype=bool), np.array([1.0, 2.0, 3.0]))
    assert s.rank == 3
    for k in range(3):
        assert s.classes[k].tolist() == [k]
        assert s.J[k].tolist() == [k]
        assert s.J_bar[k].tolist() == [k]


def test_decompose_two_classes():
    s = decompose(HITTING_CASES[1][1], np.array([1.0, 1.0, 3.0]))
    assert s.rank == 2
    assert [c.tolist() for c in s.classes] == [[0, 1], [2]]
    assert [j.tolist() for j in s.J] == [[0], [2]]
    assert [j.tolist() for j in s.J_bar] == [[0, 1], [2]]


def test_decompose_single_class():
    s = decompose(HITTING_CASES[2][1], np.array([1.0, 1.0, 1.0]))
    assert s.rank == 1
    assert s.classes[0].tolist() == [0, 1, 2]
    assert s.J[0].tolist() == [0]
    assert s.J_bar[0].tolist() == [0, 1, 2]


def test_decompose_rejects_invalid_matrix():
    with pytest.raises(ValueError):
        decompose(np.zeros((2, 2), dtype=bool), np.ones(2))
    with pytest.raises(ValueError):
        # empty column
        decompose(np.array([[1, 0], [1, 0]], dtype=bool), np.ones(2))


def test_decompose_empty_class_detection():
    # rows all linked through columns, but no column hits all three rows
    H = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]], dtype=bool)
    with pytest.raises(EmptyScenarioClassError):
        decompose(H, np.ones(3))


def _random_instance(seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(1, 7))
    p = int(gen.integers(n, 11))
    A = gen.random((n, p))
    A[gen.random((n, p)) < 0.3] = 0.0
    for i in np.flatnonzero(~(A > 0).any(axis=1)):
        A[i, gen.integers(p)] = gen.random() + 0.1
    for j in np.flatnonzero(~(A > 0).any(axis=0)):
        A[gen.integers(n), j] = gen.random() + 0.1
    z = 1.0 / -np.log(gen.random(p))
    return small_model(A), z


@given(seed=st.integers(0, 10**9))
@settings(max_examples=150, deadline=None)
def test_residuation_property(seed):
    model, z = _random_instance(seed)
    x = (model.A * z).max(axis=1)
    z_hat = compute_upper_bounds(model, x)
    assert np.all(z <= z_hat * (1 + 1e-12))
    assert np.allclose((model.A * z_hat).max(axis=1), x, rtol=1e-12)


@given(seed=st.integers(0, 10**9), c=st.floats(1e-3, 1e3))
@settings(max_examples=100, deadline=None)
def test_scale_invariance(seed, c):
    model, z = _random_instance(seed)
    x = (model.A * z).max(axis=1)
    z_hat = compute_upper_bounds(model, x)
    z_hat_scaled = compute_upper_bounds(model, c * x)
    assert np.allclose(z_hat_scaled, c * z_hat, rtol=1e-12)
    H = compute_hitting_matrix(model, x, z_hat)
    H_scaled = compute_hitting_matrix(model, c * x, z_hat_scaled)
    assert np.array_equal(H, H_scaled)


@given(seed=st.integers(0, 10**9))
@settings(max_examples=150, deadline=None)
def test_structure_invariants(seed):
    model, z = _random_instance(seed)
    x = (model.A * z).max(axis=1)
    s = hitting_structure(model, x)
    n, p = s.H.shape
    # classes partition rows, J_bar partitions columns
    assert sorted(np.concatenate(s.classes).tolist()) == list(range(n))
    assert sorted(np.concatenate(s.J_bar).tolist()) == list(range(p))
    for k in range(s.rank):
        assert set(s.J[k]) <= set(s.J_bar[k])
        assert s.J[k].size > 0
    # hits only where A is positive
    assert not np.any(s.H & ~(model.A > 0))
    # every column's hit rows stay inside one class
    row_class = np.empty(n, dtype=int)
    for k, rows in enumerate(s.classes):
        row_class[rows] = k
    for j in range(p):
        hit_rows = np.flatnonzero(s.H[:, j])
        assert len(set(row_class[hit_rows])) == 1
