import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from maxlinear import (
    DensityNormalizationError,
    DimensionMismatchError,
    MarginCountMismatchError,
    NegativeEntryError,
    ZeroColumnError,
    ZeroRowError,
    conditional_law,
    load_model,
    save_model,
    standard_frechet,
    validate_model,
)
from maxlinear.model import max_linear_apply_batch, validate_observations
from maxlinear.sampler import PredictionTask, run_prediction

TRIL3 = np.tril(np.ones((3, 3)))


def full_map(A, Z):
    """A (max-times) Z for every row of Z: no factor bound, floor 0."""
    return max_linear_apply_batch(A, Z, np.full(A.shape[1], np.inf), np.zeros(A.shape[0]))


def margins(p, alpha=1.0):
    return [standard_frechet(alpha)] * p


def test_validate_accepts_triangular_example():
    model = validate_model(TRIL3, margins(3))
    assert model.n == 3 and model.p == 3
    assert not model.A.flags.writeable


def test_validate_rejects_negative_and_nonfinite():
    with pytest.raises(NegativeEntryError):
        validate_model([[1.0, -0.1], [0.5, 1.0]], margins(2))
    with pytest.raises(NegativeEntryError):
        validate_model([[1.0, np.nan], [0.5, 1.0]], margins(2))


def test_validate_rejects_zero_rows_and_columns():
    with pytest.raises(ZeroRowError):
        validate_model([[0.0, 0.0], [1.0, 1.0]], margins(2))
    with pytest.raises(ZeroColumnError):
        validate_model([[1.0, 0.0], [1.0, 0.0]], margins(2))


def test_validate_rejects_margin_mismatch():
    with pytest.raises(MarginCountMismatchError):
        validate_model(TRIL3, margins(2))


def test_apply_triangular_identityish():
    # increasing z reproduces itself through the lower-triangular ones
    assert np.array_equal(full_map(TRIL3, np.array([[1.0, 2.0, 3.0]])), [[1.0, 2.0, 3.0]])


def test_apply_shape_errors():
    with pytest.raises(DimensionMismatchError):
        full_map(TRIL3, np.ones((5, 4)))
    with pytest.raises(DimensionMismatchError):
        max_linear_apply_batch(TRIL3, np.ones((5, 3)), upper=np.ones(2), floor=np.zeros(3))


@given(
    A=arrays(np.float64, (3, 4), elements=st.floats(0.1, 10.0)),
    z=arrays(np.float64, 4, elements=st.floats(0.01, 100.0)),
    c=st.floats(0.01, 100.0),
)
@settings(max_examples=100, deadline=None)
def test_apply_homogeneous(A, z, c):
    # max-linearity: A (c z) = c (A z)
    assert np.allclose(full_map(A, c * z[None]), c * full_map(A, z[None]), rtol=1e-12)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 5),
    p=st.integers(1, 8),
    num=st.integers(0, 40),
    fortran=st.booleans(),
)
# 2000 samples put 16 columns in a block of the pruned map, so the 30-44
# live columns of these rows span two or three blocks
@example(seed=0, n=4, p=60, num=2000, fortran=False)
@example(seed=1, n=4, p=60, num=2000, fortran=True)
@settings(max_examples=200, deadline=None)
def test_batch_matches_single(seed, n, p, num, fortran):
    # sparse A with some all-zero rows, Z spanning e^-120 to e^120 in
    # either memory order; the reference shares no code with the library
    gen = np.random.default_rng(seed)
    A = gen.random((n, p)) * (gen.random((n, p)) < 0.6)
    A[gen.random(n) < 0.2] = 0.0
    Z = np.exp(gen.uniform(-120.0, 120.0, size=(num, p)))
    if fortran:
        Z = np.asfortranarray(Z)
    batch = full_map(A, Z)
    assert batch.shape == (num, n)
    for k in range(num):
        assert np.array_equal(batch[k], (A * Z[k]).max(axis=1))
    if num:
        # bounds that hold for every sample leave the result unchanged
        pruned = max_linear_apply_batch(A, Z, upper=Z.max(axis=0), floor=batch.min(axis=0))
        assert np.array_equal(pruned, batch)


def test_validate_observations():
    x = validate_observations([1.0, 2.0], 2)
    assert not x.flags.writeable
    with pytest.raises(DimensionMismatchError):
        validate_observations([1.0, 2.0], 3)
    with pytest.raises(ValueError):
        validate_observations([1.0, 0.0], 2)
    with pytest.raises(ValueError):
        validate_observations([1.0, np.inf], 2)


def test_validation_leaves_caller_arrays_writeable():
    A, x = TRIL3.copy(), np.array([1.0, 1.0, 3.0])
    model = validate_model(A, margins(3))
    conditional_law(model, x)
    run_prediction(PredictionTask(
        A=A, B=np.ones((1, 3)), margins=model.margins, x=x, num_samples=2, seed=0,
    ))
    assert A.flags.writeable and x.flags.writeable
    assert not model.A.flags.writeable
    assert not validate_observations(x, 3).flags.writeable
    # a model built from a view owns its copy: writes to the base miss it
    base = np.tril(np.ones((4, 3)))
    model = validate_model(base[:3], margins(3))
    base[2, 2] = 0.0
    assert model.A[2, 2] == 1.0


def test_model_file_roundtrip(tmp_path):
    model = validate_model(TRIL3, margins(3, alpha=2.0))
    path = tmp_path / "model.json"
    save_model(model, path)
    copy = load_model(path)
    assert np.array_equal(copy.A, model.A)
    assert copy.margins == model.margins


@pytest.mark.parametrize("bad, error, message", [
    ({"kind": "frechet", "alpha": [1]}, ValueError, "^margin 1: invalid 'alpha'"),
    ({"kind": "tabulated", "grid": [0, 1], "density": [1, 2]}, DensityNormalizationError,
     "^margin 1: tabulated density integrates to"),
])
def test_load_model_names_the_bad_margin(tmp_path, bad, error, message):
    good = {"kind": "frechet", "alpha": 1.0}
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"A": TRIL3.tolist(), "margins": [good, bad, good]}))
    with pytest.raises(error, match=message):
        load_model(path)
