"""Self-checks of the exact sampler: independent oracles and the checks
of the acceptance criteria built on them.

The oracles are the brute-force scenario mixture (``ScenarioLaw``, by
exhaustive minimum-cover enumeration, exponential in general) and a
rejection sampler that shares none of the sampler's law or draw code
(it does use the max-times map and the upper bounds). Acceptance
criteria 1-4 have one check each, which ``tests/test_acceptance.py``
calls with pinned arguments and :func:`validate_suite` with the command
line's seed, trial count and epsilon.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .conditional import _log_candidate_terms, conditional_law
from .errors import (
    AcceptanceTooRareError,
    EmptyScenarioListError,
    InconsistentObservationError,
    MaxLinearError,
    TooLargeForBruteForceError,
    _integer,
    _real,
)
from .experiments import derived_seed
from .hitting import (
    DEFAULT_REL_TOL,
    compute_hitting_matrix,
    compute_upper_bounds,
    hitting_structure,
)
from .margins import MarginSpec, _columnwise, margin_groups, standard_frechet
from .model import (
    MaxLinearModel,
    max_linear_apply_batch,
    validate_model,
    validate_observations,
)
from .sampler import RngStream, _as_generator, draw_conditional_batch

BRUTE_FORCE_COLUMN_CAP = 20
REJECTION_BATCH = 200_000  # proposals per vectorized round


# --- brute-force scenario law ---------------------------------------------

def enumerate_relevant_scenarios(H) -> list[tuple[int, ...]]:
    """All minimum-cardinality column subsets covering every row of H.

    Exhaustive search in increasing cardinality order; exponential in p,
    capped at ``BRUTE_FORCE_COLUMN_CAP`` columns because this exists only
    as an oracle for the factorized decomposition.
    """
    H = np.asarray(H, dtype=bool)
    n, p = H.shape
    if p > BRUTE_FORCE_COLUMN_CAP:
        raise TooLargeForBruteForceError(
            f"p = {p} exceeds brute-force cap {BRUTE_FORCE_COLUMN_CAP}"
        )
    col_masks = []
    for j in range(p):
        m = 0
        for i in np.flatnonzero(H[:, j]):
            m |= 1 << int(i)
        col_masks.append(m)
    full = (1 << n) - 1
    for r in range(1, p + 1):
        found = [
            combo
            for combo in itertools.combinations(range(p), r)
            if _covers(combo, col_masks, full)
        ]
        if found:
            return found
    raise ValueError("H has an uncoverable row")


def _covers(combo, col_masks, full) -> bool:
    m = 0
    for j in combo:
        m |= col_masks[j]
        if m == full:
            return True
    return False


@dataclass(frozen=True)
class ScenarioLaw:
    """Oracle mixture over relevant hitting scenarios.

    scenarios[k] is a tuple of column indices forced to their upper
    bounds; probabilities[k] is its mixture weight.
    """

    scenarios: tuple[tuple[int, ...], ...]
    probabilities: np.ndarray


def scenario_log_weights(
    scenarios: Sequence[Sequence[int]],
    margins: Sequence[MarginSpec],
    z_hat,
) -> np.ndarray:
    """Unnormalized log w_J for each scenario J:

    log w_J = sum_{j in J} [log zhat_j + log f_j(zhat_j) - log F_j(zhat_j)]
              + sum_j log F_j(zhat_j).
    """
    z_hat = np.asarray(z_hat, dtype=float)
    groups = margin_groups(margins)
    log_pdf = _columnwise(groups, "log_pdf", z_hat)
    log_cdf = _columnwise(groups, "log_cdf", z_hat)
    base = log_cdf.sum()
    log_z = np.log(z_hat)
    per_col = log_z + log_pdf - log_cdf
    return np.array([base + per_col[list(J)].sum() for J in scenarios])


def _logsumexp(v) -> float:
    """log(sum(exp(v))), shifted by the largest entry; a non-finite
    largest entry (all -inf, or some +inf) is the result as it is."""
    top = np.max(v)
    if not np.isfinite(top):
        return float(top)
    return float(np.log(np.sum(np.exp(v - top))) + top)


def scenario_probabilities(
    scenarios: Sequence[Sequence[int]],
    margins: Sequence[MarginSpec],
    z_hat,
) -> ScenarioLaw:
    """Normalize scenario weights into the oracle mixture law."""
    scenarios = [tuple(int(j) for j in J) for J in scenarios]
    if not scenarios:
        raise EmptyScenarioListError("no scenarios supplied")
    sizes = {len(J) for J in scenarios}
    if len(sizes) != 1:
        raise ValueError(f"scenarios must share one cardinality, got sizes {sizes}")
    log_w = scenario_log_weights(scenarios, margins, z_hat)
    total = _logsumexp(log_w)
    if not np.isfinite(total):
        raise InconsistentObservationError(
            "observation is inconsistent with the margins: every scenario "
            "has zero density at zhat"
        )
    return ScenarioLaw(tuple(scenarios), np.exp(log_w - total))


def factorization_gap(model: MaxLinearModel, x, rel_tol=DEFAULT_REL_TOL) -> float:
    """Relative error between the enumerated total scenario weight and
    the per-class product form (they are equal in exact arithmetic): per
    class s, the sum of the ``class_weights`` terms over J[s] times the
    product of F_k(zhat_k) over J_bar[s], a factor that normalization
    cancels and only this check needs."""
    structure = hitting_structure(model, x, rel_tol)
    scenarios = enumerate_relevant_scenarios(structure.H)
    log_total = _logsumexp(scenario_log_weights(scenarios, model.margins, structure.z_hat))
    groups = margin_groups(model.margins)
    terms, starts = _log_candidate_terms(structure, groups)
    log_cdf = _columnwise(groups, "log_cdf", structure.z_hat)
    log_prod = sum(
        _logsumexp(t) + log_cdf[bar].sum()
        for t, bar in zip(np.split(terms, starts[1:]), structure.J_bar)
    )
    return abs(math.expm1(log_total - log_prod))


def product_form_scenarios(structure) -> set[tuple[int, ...]]:
    """Cartesian product of the per-class candidate columns."""
    return {
        tuple(sorted(int(j) for j in combo))
        for combo in itertools.product(*[js.tolist() for js in structure.J])
    }


# --- rejection oracle -------------------------------------------------------

def rejection_oracle(
    model: MaxLinearModel,
    x,
    epsilon: float,
    num_accepted: int,
    rng,
    max_proposals: int = 1_000_000_000,
) -> np.ndarray:
    """Independent statistical oracle for the conditional sampler.

    Accepts factor vectors whose image reproduces every observation
    within relative ``epsilon``. As epsilon shrinks, the accepted law
    converges to the exact conditional law. Acceptance is checked in
    observation space, which matches the exact law only in the limit;
    keep epsilon small.

    Every accepted z lies in the box z_j <= (1 + epsilon) zhat_j, so the
    proposals are drawn from the margins truncated to that box, as
    Q_j(U F_j((1 + epsilon) zhat_j)), with each margin's own ``cdf`` and
    ``quantile``. That is an exact rejection sampler of the same target,
    with far fewer proposals than drawing from the untruncated margins.

    Returns the accepted factor vectors, shape (num_accepted, p).

    Raises
    ------
    ValueError
        if ``epsilon`` is not a real number in (0, 0.1], or a count is
        not an integer >= 1.
    AcceptanceTooRareError
        if ``max_proposals`` proposals are exhausted first; the error
        carries the observed acceptance rate.
    """
    if not (_real(epsilon) and 0.0 < epsilon <= 0.1):
        raise ValueError(f"epsilon must be in (0, 0.1], got {epsilon!r}")
    num_accepted = _integer("num_accepted", num_accepted, 1)
    max_proposals = _integer("max_proposals", max_proposals, 1)
    x = validate_observations(x, model.n)
    gen = _as_generator(rng)
    box = (1.0 + epsilon) * compute_upper_bounds(model, x)
    box_mass = [m.cdf(b) for m, b in zip(model.margins, box)]
    accepted: list[np.ndarray] = []
    total_accepted = 0
    proposed = 0
    while total_accepted < num_accepted:
        if proposed >= max_proposals:
            rate = total_accepted / proposed
            raise AcceptanceTooRareError(
                f"only {total_accepted}/{num_accepted} acceptances after "
                f"{proposed} proposals (rate {rate:.3g})",
                acceptance_rate=rate,
            )
        m = min(REJECTION_BATCH, max_proposals - proposed)
        U = gen.random((m, model.p))
        Z = np.column_stack(
            [mj.quantile(U[:, j] * box_mass[j]) for j, mj in enumerate(model.margins)]
        )
        X = max_linear_apply_batch(model.A, Z, np.full(model.p, np.inf), np.zeros(model.n))
        ok = (np.abs(X - x) <= epsilon * x).all(axis=1)
        hits = Z[ok]
        if hits.shape[0]:
            accepted.append(hits)
            total_accepted += hits.shape[0]
        proposed += m
    return np.vstack(accepted)[:num_accepted]


# --- instances ---------------------------------------------------------------

def ones_lower_triangular_model(n: int = 3) -> MaxLinearModel:
    """The canonical n x n worked example: ones on and below the diagonal,
    standard 1-Frechet margins."""
    return validate_model(np.tril(np.ones((n, n))), [standard_frechet(1.0)] * n)


def random_consistent_instance(gen: np.random.Generator, n: int, p: int):
    """Random model (uniform entries with random zeros, Assumption A
    repaired) together with a model-generated observation."""
    A = gen.random((n, p))
    A[gen.random((n, p)) < 0.35] = 0.0
    for i in np.flatnonzero(~(A > 0).any(axis=1)):
        A[i, gen.integers(p)] = gen.random() + 0.1
    for j in np.flatnonzero(~(A > 0).any(axis=0)):
        A[gen.integers(n), j] = gen.random() + 0.1
    model = validate_model(A, [standard_frechet(1.0)] * p)
    Z = 1.0 / -np.log(gen.random(p))
    return model, (A * Z).max(axis=1), Z


# --- checks of acceptance criteria 1-4 -----------------------------------------

# the three canonical cases of the 3 x 3 worked example: x, hitting
# matrix and relevant scenarios
WORKED_EXAMPLES = (
    ((1.0, 2.0, 3.0), np.eye(3, dtype=bool), [(0, 1, 2)]),
    ((1.0, 1.0, 3.0), np.array([[1, 0, 0], [1, 1, 0], [0, 0, 1]], dtype=bool), [(0, 2)]),
    ((1.0, 1.0, 1.0), np.array([[1, 0, 0], [1, 1, 0], [1, 1, 1]], dtype=bool), [(0,)]),
)


def check_worked_examples(seed: int) -> dict:
    """Criterion 1, on the 3 x 3 worked example.

    Per case, the bounds equal x and the hitting matrix and the relevant
    scenarios are the known ones. The draw patterns (streams (seed, 0..2))
    are: (i) a point mass; (ii) z1 = 1, z3 = 3 and z2 strictly below 1,
    since column 1 is the only candidate atom of its class; (iii) z1 = 1
    with z2, z3 free below their bounds.

    Returns {"cases": {"1,2,3": ok, ...}, "draw_patterns": ok}.
    """
    model = ones_lower_triangular_model()
    cases = {}
    for x, H_want, scen_want in WORKED_EXAMPLES:
        x = np.array(x)
        z_hat = compute_upper_bounds(model, x)
        H = compute_hitting_matrix(model, x, z_hat)
        label = ",".join(f"{v:g}" for v in x)
        cases[label] = bool(
            np.array_equal(z_hat, x)
            and np.array_equal(H, H_want)
            and enumerate_relevant_scenarios(H) == scen_want
        )
    Z_i, Z_ii, Z_iii = (
        draw_conditional_batch(conditional_law(model, np.array(x)), num, RngStream(seed, k))[0]
        for k, ((x, _, _), num) in enumerate(zip(WORKED_EXAMPLES, (200, 2000, 2000)))
    )
    patterns = (
        np.all(Z_i == np.array([1.0, 2.0, 3.0]))
        and np.all(Z_ii[:, 0] == 1.0)
        and np.all(Z_ii[:, 2] == 3.0)
        and np.all(Z_ii[:, 1] < 1.0)
        and np.all(Z_iii[:, 0] == 1.0)
        and np.all(Z_iii[:, 1:] <= 1.0)
    )
    return {"cases": cases, "draw_patterns": bool(patterns)}


def check_product_form(gen: np.random.Generator, trials: int) -> dict:
    """Criterion 2, on ``trials`` random instances (n <= 6, p <= 10) from
    ``gen``: the cartesian product of the per-class candidate columns
    against brute-force scenario enumeration, and the factorization gap.

    Returns {"mismatches": count, "worst_gap": largest relative gap}.
    """
    mismatches = 0
    worst_gap = 0.0
    for _ in range(trials):
        n = int(gen.integers(1, 7))
        p = int(gen.integers(1, 11))
        model, x, _ = random_consistent_instance(gen, n, p)
        structure = hitting_structure(model, x)
        if set(enumerate_relevant_scenarios(structure.H)) != product_form_scenarios(structure):
            mismatches += 1
        worst_gap = max(worst_gap, factorization_gap(model, x))
    return {"mismatches": mismatches, "worst_gap": worst_gap}


def check_exact_draws(gen: np.random.Generator, seed: int, trials: int) -> dict:
    """Criterion 3, on ``trials`` random instances (n <= 8, p <= 12) from
    ``gen``: the upper bound is the residuated maximal pre-image of x, and
    trial t's draw, from stream (derived_seed(seed, t), 0), reproduces x
    to 1e-9 relative.

    Returns {"residuation_failures": count, "draw_failures": count}.
    """
    residuation_failures = 0
    draw_failures = 0
    for t in range(trials):
        n = int(gen.integers(1, 9))
        p = int(gen.integers(1, 13))
        model, x, Z_true = random_consistent_instance(gen, n, p)
        z_hat = compute_upper_bounds(model, x)
        if not (
            np.all(Z_true <= z_hat * (1.0 + 1e-12))
            and np.allclose((model.A * z_hat).max(axis=1), x, rtol=1e-12, atol=0.0)
        ):
            residuation_failures += 1
        law = conditional_law(model, x)
        Z, _ = draw_conditional_batch(law, 1, RngStream(derived_seed(seed, t), 0))
        if (np.abs((model.A * Z[0]).max(axis=1) - x) / x).max() > 1e-9:
            draw_failures += 1
    return {"residuation_failures": residuation_failures, "draw_failures": draw_failures}


def _ks_statistic(a, b) -> float:
    """The two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b| of the
    empirical CDFs: the larger of the one-sided suprema over the joined
    sample, the lower one clipped into [0, 1]; never -0.0."""
    a, b = np.sort(a), np.sort(b)
    joined = np.concatenate([a, b])
    d = np.searchsorted(a, joined, side="right") / a.size
    d -= np.searchsorted(b, joined, side="right") / b.size
    return float(max(d.max(), np.clip(-d.min(), 0.0, 1.0)) + 0.0)


def check_rejection_oracle(seed: int, epsilon: float, accepts: int, max_proposals: int) -> dict:
    """Criterion 4 on the worked example x = (1, 1, 3): per coordinate,
    the two-sample KS statistic of ``accepts`` rejection-oracle
    acceptances within ``epsilon`` (stream (seed, 0)) against 100,000
    sampler draws (stream (seed, 1)). Acceptance in observation space
    smears an atom over about 2 * epsilon * zhat below its bound, so in
    the coordinates where the sampler draws an atom, oracle values that
    close to it are snapped onto it. Returns {"ks": [one per coordinate]}."""
    model, x = ones_lower_triangular_model(), np.array([1.0, 1.0, 3.0])
    oracle = rejection_oracle(model, x, epsilon, accepts, RngStream(seed, 0), max_proposals)
    law = conditional_law(model, x)
    engine, _ = draw_conditional_batch(law, 100_000, RngStream(seed, 1))
    z_hat = law.z_hat
    snap = (engine == z_hat).any(axis=0) & (np.abs(oracle - z_hat) <= 2.0 * epsilon * z_hat)
    oracle = np.where(snap, z_hat, oracle)
    columns = zip(oracle.T, engine.T)
    return {"ks": [_ks_statistic(o, e) for o, e in columns]}


# --- validation suite -----------------------------------------------------------

def validate_suite(seed: int = 0, trials: int = 100, epsilon: float = 0.01) -> dict:
    """End-to-end self-checks; returns a machine-readable report.

    Runs the checks of acceptance criteria 1-3 with ``seed`` and
    ``trials``, the check of criterion 4 with ``seed``, ``epsilon`` and
    500 acceptances, and checks that an inconsistent observation is
    rejected.
    """
    trials = _integer("trials", trials, 1)
    checks: list[dict] = []

    def record(name: str, passed: bool, detail: str = "") -> None:
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    worked = check_worked_examples(seed)
    for label, ok in worked["cases"].items():
        record(f"worked example x=({label})", ok)
    record("worked example draw patterns", worked["draw_patterns"])

    product = check_product_form(RngStream(seed, 2).generator(), trials)
    record("scenario sets: brute force == product form", product["mismatches"] == 0,
           f"{product['mismatches']} mismatches / {trials} trials")
    record("factorization identity", product["worst_gap"] <= 1e-10,
           f"worst relative gap {product['worst_gap']:.3g}")

    exact = check_exact_draws(RngStream(seed, 3).generator(), seed, trials)
    record("residuation", exact["residuation_failures"] == 0,
           f"{exact['residuation_failures']} failures / {trials} trials")
    record("draw exactness", exact["draw_failures"] == 0,
           f"{exact['draw_failures']} failures / {trials} trials")

    accepts = 500
    ks = max(check_rejection_oracle(seed, epsilon, accepts, 200_000_000)["ks"])
    ks_cut = 1.95 / math.sqrt(accepts)  # ~0.1% KS critical value
    record("rejection oracle KS (largest over coordinates)", ks < ks_cut,
           f"KS {ks:.4f} vs cut {ks_cut:.4f} at {accepts} acceptances")

    # corrupted observation must be rejected as out of range
    try:
        conditional_law(ones_lower_triangular_model(), np.array([1.0, 0.5, 3.0]))
        record("inconsistent observation rejected", False, "no error raised")
    except InconsistentObservationError:
        record("inconsistent observation rejected", True)
    except MaxLinearError as exc:  # wrong error class
        record("inconsistent observation rejected", False, repr(exc))

    return {"passed": all(c["passed"] for c in checks), "checks": checks}
