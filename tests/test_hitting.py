import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxlinear import (
    DimensionMismatchError,
    EmptyScenarioClassError,
    HittingStructure,
    InconsistentObservationError,
    MaxLinearError,
    MaxLinearModel,
    NegativeEntryError,
    NumericalOverflowError,
    ZeroColumnError,
    ZeroRowError,
    conditional_law,
    hitting_structure,
    standard_frechet,
    validate_model,
)
from maxlinear.experiments import _bench_design
from maxlinear.hitting import _decompose_checked, compute_upper_bounds
from maxlinear.model import BLOCK_ELEMENTS, _check_model_matrix, validate_observations
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
    s = hitting_structure(model3(), x)
    assert np.array_equal(s.z_hat, x)
    assert np.array_equal(s.H, expected)


def test_hitting_matrix_rejects_out_of_range():
    # row 1 bounds z_0 by 0.5, so row 0 (x_0 = 1) has no hit
    x = np.array([1.0, 0.5, 3.0])
    with pytest.raises(InconsistentObservationError, match=r"rows \[0\];"):
        hitting_structure(model3(), x)


def test_an_underflowing_bound_is_named_not_called_inconsistent():
    # zhat = 1e-20 / 1e300 = 1e-320 is subnormal, and 1e300 * zhat missed x
    # by 1.1e-5 relative, which was reported as an x outside the model range;
    # run_prediction's case is in test_free_path_errors_name_the_column_of_A
    m = small_model([[1e300]])
    for stage in (hitting_structure, conditional_law):
        with pytest.raises(NumericalOverflowError, match="column 0 underflows float64"):
            stage(m, [1e-20])
    # zhat = 1e-310 is subnormal too, but 1e300 * zhat hits x within 3.1e-15
    assert hitting_structure(m, [1e-10]).H.tolist() == [[True]]
    assert conditional_law(m, [1e-10]).z_hat.tolist() == [1e-310]
    # row 0 has no hit, and its x_0 / a_00 = 1e310 overflows: no underflow,
    # so x is outside the model range, with no overflow warning
    m = small_model([[1e-300, 1.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(InconsistentObservationError, match=r"rows \[0\];"):
        hitting_structure(m, [1e10, 5.0, 1.0])


def test_a_column_that_hits_no_row_joins_the_first_J_bar():
    # at rel_tol = 0, 49 * (1 / 49) != 1, so column 0 hits no row: it goes
    # to J_bar[0] and to no J, is drawn below its bound, and every draw
    # still reproduces x
    A = np.array([[49.0, 1.0]])
    s = hitting_structure(small_model(A), [1.0], 0.0)
    assert s.H.tolist() == [[False, True]]
    assert [j.tolist() for j in s.J] == [[1]]
    assert [j.tolist() for j in s.J_bar] == [[0, 1]]
    result = run_prediction(PredictionTask(
        A=A, B=A, margins=(standard_frechet(1.0),) * 2, x=np.array([1.0]),
        num_samples=200, seed=0, rel_tol=0.0,
    ))
    assert np.all(result.Z[:, 1] == 1.0) and np.all(result.Z[:, 0] < s.z_hat[0])
    assert np.all(result.Y == 1.0)


@pytest.mark.parametrize("rel_tol", [np.nan, -1e-3, 1.0, np.inf, None, "0.1", False])
def test_rel_tol_outside_the_unit_interval_is_rejected(rel_tol):
    # at rel_tol >= 1 every positive entry hit and draws missed x by up to
    # 85%; NaN and negative values raised InconsistentObservationError, and
    # None or a string a TypeError; a bool is not a real number here
    m = small_model([[1.0, 0.5, 0.2], [0.3, 1.0, 0.4]])
    x = np.array([1.0, 2.0])
    with pytest.raises(ValueError, match="rel_tol"):
        hitting_structure(m, x, rel_tol)
    with pytest.raises(ValueError, match="rel_tol"):
        conditional_law(m, x, rel_tol)
    with pytest.raises(ValueError, match="rel_tol"):
        run_prediction(PredictionTask(
            A=m.A, B=np.zeros((0, 3)), margins=m.margins, x=x,
            num_samples=5, seed=0, rel_tol=rel_tol,
        ))


def test_decompose_diagonal():
    s = hitting_structure(model3(), HITTING_CASES[0][0])
    assert s.rank == 3
    for k in range(3):
        assert s.classes[k].tolist() == [k]
        assert s.J[k].tolist() == [k]
        assert s.J_bar[k].tolist() == [k]


def test_decompose_two_classes():
    s = hitting_structure(model3(), HITTING_CASES[1][0])
    assert s.rank == 2
    assert [c.tolist() for c in s.classes] == [[0, 1], [2]]
    assert [j.tolist() for j in s.J] == [[0], [2]]
    assert [j.tolist() for j in s.J_bar] == [[0, 1], [2]]


def test_decompose_single_class():
    s = hitting_structure(model3(), HITTING_CASES[2][0])
    assert s.rank == 1
    assert s.classes[0].tolist() == [0, 1, 2]
    assert s.J[0].tolist() == [0]
    assert s.J_bar[0].tolist() == [0, 1, 2]


def test_decompose_empty_class_detection():
    # rows all linked through columns, but no column hits all three rows
    A = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]], dtype=float)
    with pytest.raises(EmptyScenarioClassError):
        hitting_structure(small_model(A), [1.0, 1.0, 1.0])


def _union_find_oracle(H: np.ndarray, z_hat: np.ndarray) -> HittingStructure:
    """The decomposition as the library computed it before its one-pass
    grouping, kept verbatim as the reference; assumes H is boolean with no
    empty row/column."""
    n, p = H.shape
    col_count = H.sum(axis=0)

    parent = np.arange(n)

    def find(a: int) -> int:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:  # path compression
            parent[a], a = root, parent[a]
        return root

    merged = False
    if n > 1:
        # only columns with two or more hits can merge row classes
        for c in np.flatnonzero(col_count >= 2):
            hit_rows = np.flatnonzero(H[:, c])
            ra = find(int(hit_rows[0]))
            for b in hit_rows[1:]:
                rb = find(int(b))
                if ra != rb:
                    lo, hi = min(ra, rb), max(ra, rb)
                    parent[hi] = lo
                    ra = lo
                    merged = True

    if merged:
        # label classes by first appearance; roots are minimal in class,
        # so labels are ordered by smallest row index
        label_of_root: dict[int, int] = {}
        labels = [0] * n
        groups: list[list[int]] = []
        for i in range(n):
            r = find(i)
            s = label_of_root.get(r)
            if s is None:
                s = len(label_of_root)
                label_of_root[r] = s
                groups.append([])
            labels[i] = s
            groups[s].append(i)
        rank = len(groups)
        row_class = np.array(labels, dtype=np.intp)
        classes = tuple(np.array(g, dtype=np.intp) for g in groups)
    else:
        row_class = parent  # every row is its own class
        rank = n
        classes = tuple(parent[i : i + 1] for i in range(n))

    col_class = row_class[H.argmax(axis=0)]
    class_size = np.bincount(row_class, minlength=rank)
    full = col_count == class_size[col_class]
    J_bar = []
    J = []
    for s in range(rank):
        members = np.flatnonzero(col_class == s)
        J_bar.append(members)
        J.append(members[full[members]])
    J_bar = tuple(J_bar)
    J = tuple(J)
    empty = [s for s in range(rank) if J[s].size == 0]
    if empty:
        raise EmptyScenarioClassError(
            f"classes {empty} have no column hitting all their rows; "
            "retry with adjusted rel_tol or check the observation"
        )
    return HittingStructure(
        z_hat=z_hat, H=H, classes=classes, J=J, J_bar=J_bar, rank=rank
    )


def _covered(H, gen):
    """``H`` with one hit added to each empty row and each empty column."""
    n, p = H.shape
    for i in np.flatnonzero(~H.any(axis=1)):
        H[i, gen.integers(p)] = True
    for j in np.flatnonzero(~H.any(axis=0)):
        H[gen.integers(n), j] = True
    return H


def _decomposition_input(kind, seed, n, p, density):
    """A hitting matrix with no empty row or column: ``random`` hits;
    a ``band`` of hits chained along the rows, as in a MARMA window, which
    makes most columns merge columns; or random hits beside a ``cycle`` of
    three or more rows joined pairwise, a class that no column fully hits,
    with the rows and columns shuffled."""
    gen = np.random.default_rng(seed)
    if kind == "band":
        width = 1 + p % 6
        H = np.zeros((n, n + width - 1), dtype=bool)
        for i in range(n):
            H[i, i : i + width] = gen.random(width) < 0.3 + density
        return _covered(H, gen)
    H = _covered(gen.random((n, p)) < density, gen)
    if kind == "cycle":
        k = 3 + n % 4
        chain = np.eye(k, dtype=bool) | np.eye(k, k=-1, dtype=bool)
        H = np.block([[H, np.zeros((n, k), dtype=bool)], [np.zeros((k, p), dtype=bool), chain]])
        H[n, -1] = True  # closes the cycle: column k - 1 hits rows k - 1 and 0
        H = H[gen.permutation(n + k)][:, gen.permutation(p + k)]
    return H


@given(
    kind=st.sampled_from(["random", "band", "cycle"]),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 15),
    p=st.integers(1, 20),
    density=st.floats(0.02, 0.6),
)
@settings(max_examples=400, deadline=None)
def test_decomposition_matches_the_union_find_oracle(kind, seed, n, p, density):
    H = _decomposition_input(kind, seed, n, p, density)
    z_hat = np.ones(H.shape[1])
    got = _outcome(lambda: _decompose_checked(H, z_hat))
    want = _outcome(lambda: _union_find_oracle(H, z_hat))
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.rank == want.rank
    for name in ("classes", "J", "J_bar"):
        sets = getattr(got, name)
        assert len(sets) == got.rank
        for g, w in zip(sets, getattr(want, name)):
            assert g.dtype == np.intp and np.array_equal(g, w)


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
    s = hitting_structure(model, x)
    scaled = hitting_structure(model, c * x)
    assert np.allclose(scaled.z_hat, c * s.z_hat, rtol=1e-12)
    assert np.array_equal(s.H, scaled.H)


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


# --- the blocked pass against the whole-matrix formulas ----------------------

def _reference_checks(A):
    """validate_model's checks of A, on the whole matrix; A if it passes."""
    if not (A.min() >= 0.0 and A.max() < np.inf):
        bad = np.flatnonzero(~((A >= 0.0) & (A < np.inf)).all(axis=0))
        raise NegativeEntryError(f"A has negative or non-finite entries in columns {bad.tolist()}")
    pos = A > 0
    rows = np.flatnonzero(~pos.any(axis=1))
    if rows.size:
        raise ZeroRowError(f"rows with no positive entry: {rows.tolist()}")
    cols = np.flatnonzero(~pos.any(axis=0))
    if cols.size:
        raise ZeroColumnError(f"columns with no positive entry: {cols.tolist()}")
    return A


def _reference_bounds(A, x):
    """zhat as one n x p expression, after the checks of A and of x."""
    _reference_checks(A)
    x = validate_observations(x, A.shape[0])
    with np.errstate(divide="ignore", over="ignore"):
        z_hat = np.where(A > 0, x[:, None] / A, np.inf).min(axis=0)
    over = np.flatnonzero(z_hat == np.inf)
    if over.size:
        raise NumericalOverflowError(
            f"upper bound of column {over[0]} overflows float64: every "
            f"x_i / a_ij of that column exceeds {np.finfo(float).max:.3g}"
        )
    return x, z_hat


def _reference_hits(A, x, z_hat, rel_tol):
    """H as one n x p expression."""
    if not (isinstance(rel_tol, float) and 0.0 <= rel_tol < 1.0):
        raise ValueError(f"rel_tol must lie in [0, 1), got {rel_tol!r}")
    H = (A > 0) & (np.abs(A * z_hat - x[:, None]) <= rel_tol * x[:, None])
    bad = np.flatnonzero(~H.any(axis=1))
    if bad.size:
        raise InconsistentObservationError(
            f"no factor can reproduce observation rows {bad.tolist()}; "
            "x is outside the model range (within tolerance)"
        )
    return H


def _reference_structure(A, x, rel_tol):
    x, z_hat = _reference_bounds(A, x)
    return _decompose_checked(_reference_hits(A, x, z_hat, rel_tol), z_hat)


def _outcome(call):
    """What ``call`` returns, or the type and message of its error."""
    try:
        return call()
    except (MaxLinearError, ValueError) as exc:
        return type(exc), str(exc)


def _same(got, want) -> bool:
    if isinstance(want, tuple) or isinstance(got, tuple):
        return got == want
    if isinstance(want, np.ndarray):
        return isinstance(got, np.ndarray) and got.dtype == want.dtype and np.array_equal(got, want)
    return (
        got.rank == want.rank
        and np.array_equal(got.z_hat, want.z_hat)
        and np.array_equal(got.H, want.H)
        and all(
            np.array_equal(g, w)
            for name in ("classes", "J", "J_bar")
            for g, w in zip(getattr(got, name), getattr(want, name))
        )
    )


A_FAULTS = [None, "nan", "inf", "-inf", "negative", "zero_row", "zero_column",
            "overflow", "inconsistent", "signed_zeros"]
# a clean x and a valid rel_tol are drawn more often, so that the faults
# of A and the pass's own faults are reached too
X_FAULTS = [None] * 4 + ["nan", "zero", "size"]
REL_TOLS = [1e-9] * 4 + [0.0, 1e-3, 1.0, np.nan]


def _pass_instance(seed, n, blocks, side, fault, x_fault):
    """A sparse n x p design whose p spans ``blocks`` (two or more)
    blocks of the pass, a model-generated x, and one fault of each. The
    faulty column sits just before (side 0) or at (side 1) a block edge."""
    gen = np.random.default_rng(seed)
    width = BLOCK_ELEMENTS // n
    p = int(gen.integers((blocks - 1) * width + 1, blocks * width + 1))
    A = gen.random((n, p)) * (gen.random((n, p)) < 0.7)
    A[gen.integers(n, size=p), np.arange(p)] += 0.1  # every column positive
    A[np.arange(n), gen.integers(p, size=n)] += 0.1  # every row positive
    x = (A * (1.0 / -np.log(gen.random(p)))).max(axis=1)
    row = int(gen.integers(n))
    col = width * int(gen.integers(1, blocks)) - 1 + side
    if fault in ("nan", "inf", "-inf", "negative"):
        A[row, col] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "negative": -0.5}[fault]
    elif fault == "zero_row":
        A[row] = 0.0
    elif fault == "zero_column":
        A[:, col] = 0.0
    elif fault == "overflow":  # x_i / a_ij is beyond the float64 range
        A[:, col] = 0.0
        A[row, col] = 5e-324
    elif fault == "inconsistent":
        x[row] *= 0.5
    elif fault == "signed_zeros":  # -0.0 passes as nonnegative, not positive
        A[A == 0.0] = -0.0
    if x_fault == "nan":
        x[0] = np.nan
    elif x_fault == "zero":
        x[-1] = 0.0
    elif x_fault == "size":
        x = x[:-1]
    return A, x


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 60),
    blocks=st.integers(2, 3),
    side=st.integers(0, 1),
    fault=st.sampled_from(A_FAULTS),
    x_fault=st.sampled_from(X_FAULTS),
    rel_tol=st.sampled_from(REL_TOLS),
)
# a NaN on either side of the first block edge; an overflow with a bad x;
# a zero row with a bad rel_tol; exact hits only; signed zeros
@example(seed=1, n=50, blocks=3, side=0, fault="nan", x_fault=None, rel_tol=1e-9)
@example(seed=1, n=50, blocks=3, side=1, fault="nan", x_fault=None, rel_tol=1e-9)
@example(seed=2, n=7, blocks=2, side=1, fault="overflow", x_fault="size", rel_tol=1e-9)
@example(seed=3, n=7, blocks=2, side=0, fault="overflow", x_fault=None, rel_tol=1e-9)
@example(seed=4, n=3, blocks=2, side=0, fault="zero_row", x_fault=None, rel_tol=1.0)
@example(seed=5, n=20, blocks=3, side=1, fault=None, x_fault=None, rel_tol=0.0)
@example(seed=6, n=4, blocks=2, side=0, fault="signed_zeros", x_fault=None, rel_tol=1e-9)
@settings(max_examples=300, deadline=None)
def test_blocked_pass_matches_the_whole_matrix_formulas(
    seed, n, blocks, side, fault, x_fault, rel_tol
):
    # hitting_structure checks an unchecked A (as run_prediction hands it
    # over) in its one pass: zhat, H, the classes and J, or the error type
    # and message, equal those of validate_model followed by the formulas
    # the pass replaced, and so does validate_model on its own
    A, x = _pass_instance(seed, n, blocks, side, fault, x_fault)
    margins = (standard_frechet(1.0),) * A.shape[1]
    model = MaxLinearModel(A=A, margins=margins)
    want = _outcome(lambda: _reference_structure(A, x, rel_tol))
    assert _same(_outcome(lambda: hitting_structure(model, x, rel_tol)), want), want
    checks = _outcome(lambda: _reference_checks(A))
    assert _same(_outcome(lambda: validate_model(A, margins).A), checks)
    if isinstance(checks, np.ndarray):
        # the bounds alone, on a checked A
        bounds = _outcome(lambda: _reference_bounds(A, x)[1])
        assert _same(_outcome(lambda: compute_upper_bounds(model, x)), bounds)


def _stages(model, x):
    """The two public stages that run the pass, called on ``model``."""
    return (
        lambda: hitting_structure(model, x),
        lambda: compute_upper_bounds(model, x),
    )


@pytest.mark.parametrize("shape", [(0, 3), (2, 0)])
def test_the_pass_reports_an_empty_A_before_a_bad_x(shape):
    model = MaxLinearModel(A=np.ones(shape), margins=())
    for x in (np.ones(shape[0]), [np.nan]):
        for stage in _stages(model, x):
            with pytest.raises(DimensionMismatchError, match="no rows or no columns"):
                stage()


@pytest.mark.parametrize("A", [np.ones(3), np.ones((1, 1, 1)), [["a"]]])
def test_the_pass_rejects_an_unchecked_A_as_validate_model_does(A):
    # a 1-d A raised "not enough values to unpack", a 3-d one "too many"
    want = _outcome(lambda: validate_model(A, ()))
    assert want[0] in (DimensionMismatchError, ValueError)
    for stage in _stages(MaxLinearModel(A=A, margins=()), [1.0]):
        assert _outcome(stage) == want


def test_the_pass_takes_the_list_A_that_validate_model_takes():
    # it raised "'list' object has no attribute 'shape'"
    A, margins = [[1.0, 0.5]], (standard_frechet(1.0),) * 2
    unchecked = _stages(MaxLinearModel(A=A, margins=margins), [1.0])
    for got, want in zip(unchecked, _stages(validate_model(A, margins), [1.0])):
        assert _same(got(), want())


def test_a_bad_entry_is_checked_and_reported_once(monkeypatch):
    # the bad block raised NegativeEntryError, and the handler's check of A
    # raised it a second time "during handling of the above exception"
    calls = []

    def counted(A):
        calls.append(1)
        return _check_model_matrix(A)

    monkeypatch.setattr("maxlinear.hitting._check_model_matrix", counted)
    model = MaxLinearModel(A=np.array([[1.0, -1.0]]), margins=(standard_frechet(1.0),) * 2)
    with pytest.raises(NegativeEntryError, match=r"columns \[1\]$") as info:
        hitting_structure(model, [1.0])
    assert len(calls) == 1
    chain, exc = [], info.value
    while exc is not None:
        chain.append(exc)
        exc = exc.__cause__ or exc.__context__
    assert sum(isinstance(e, NegativeEntryError) for e in chain) == 1


def test_hitting_structure_makes_no_n_by_p_float_temporary():
    # the (50, 10000) cell of criterion 8: one n x p float temporary is
    # 3.8 MiB, and the whole-matrix formulas peaked at 8.2 MiB
    gen = np.random.default_rng((0, 50, 10000))
    model = _bench_design(50, 10000, gen)
    x = (model.A * (1.0 / -np.log(gen.random(10000)))).max(axis=1)
    tracemalloc.start()
    try:
        hitting_structure(model, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
