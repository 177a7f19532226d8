import csv
import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from maxlinear import (
    MarmaSpec,
    RngStream,
    SmithSpec,
    conditional_law,
    draw_conditional_batch,
    run_prediction,
    standard_frechet,
    summarize,
    validate_model,
)
from maxlinear.errors import DimensionOverflowError
from maxlinear.experiments import (
    bench_decomposition,
    coverage_experiment,
    derived_seed,
    order_statistic_quantile,
    projection_bias_experiment,
    summary_rows,
    write_sample_csv,
)
from maxlinear.oracles import (
    _ks_statistic,
    _logsumexp,
    check_rejection_oracle,
    rejection_oracle,
    validate_suite,
)
from maxlinear.sampler import PredictionTask


def test_order_statistic_quantile_convention():
    vals = np.sort(np.arange(1.0, 11.0))[:, None]
    assert order_statistic_quantile(vals, 0.5)[0] == 5.0
    assert order_statistic_quantile(vals, 0.95)[0] == 10.0
    assert order_statistic_quantile(vals, 0.05)[0] == 1.0


def test_summarize_quantile_bracket():
    # continuous samples: fraction below the reported q-quantile is within 1/num of q
    gen = RngStream(3).generator()
    samples = gen.random((997, 4))
    table = summarize(samples, levels=(0.25, 0.9))
    for lvl, q in table.quantiles.items():
        frac = (samples <= q).mean(axis=0)
        assert np.all(frac >= lvl - 1.0 / 997)
        assert np.all(frac <= lvl + 1.0 / 997)


def test_summarize_handles_atoms():
    samples = np.full((100, 2), 3.0)
    table = summarize(samples, threshold=2.5)
    assert np.all(table.medians == 3.0)
    assert np.all(table.exceedance == 1.0)


def test_summarize_rejects_bad_levels():
    with pytest.raises(ValueError):
        summarize(np.ones((10, 1)), levels=(0.0, 0.5))
    # no rows gave "IndexError: index -1 is out of bounds"
    with pytest.raises(ValueError, match="at least one sample"):
        summarize(np.ones((0, 2)))
    # a NaN threshold gave exceedance 0, a silent wrong answer; +-inf are exact
    with pytest.raises(ValueError, match="^threshold must not be NaN"):
        summarize(np.ones((10, 2)), threshold=[1.0, np.nan])
    table = summarize(np.ones((10, 2)), threshold=[np.inf, -np.inf])
    assert table.exceedance.tolist() == [0.0, 1.0]


def test_write_sample_csv(tmp_path):
    path = tmp_path / "samples.csv"
    Z = np.array([[1.0, 0.1 + 0.2], [5e-324, np.nextafter(3.0, 0.0)]])
    Y = np.array([[0.0], [1e300 / 3.0]])
    write_sample_csv(path, Z=Z, Y=Y)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["z_1", "z_2", "y_1"]
    assert len(rows) == 3
    # every cell is a number that parses back to the very same float
    cells = np.array([[float(c) for c in row] for row in rows[1:]])
    assert np.array_equal(cells, np.hstack([Z, Y]))
    assert rows[1] == ["1.0", "0.30000000000000004", "0.0"]
    with pytest.raises(ValueError):
        write_sample_csv(path)


def test_coverage_experiment_smoke():
    spec = MarmaSpec(phi=(0.5,), p=60, n_observed=20, N_horizon=5)
    out = coverage_experiment(spec, reps=8, num_samples=80, seed=2)
    assert out["coverage"].shape == (5,)
    assert np.all((out["coverage"] >= 0) & (out["coverage"] <= 1))
    assert np.all(out["width"] > 0)


def test_projection_bias_experiment_smoke():
    spec = MarmaSpec(phi=(0.5,), p=60, n_observed=20, N_horizon=5)
    out = projection_bias_experiment(spec, reps=8, num_samples=80, seed=2)
    probs = out["cumulative_probability"]
    assert probs.shape == (5,)
    assert np.all((probs >= 0) & (probs <= 1))
    # predictor never sits above the conditional median
    assert np.all(out["below_median_rate"] == 1.0)


def test_validate_suite_passes():
    report = validate_suite(seed=5, trials=25, epsilon=0.02)
    assert report["passed"], report
    names = [c["name"] for c in report["checks"]]
    assert "factorization identity" in names
    assert "worked example x=(1,1,3)" in names and "residuation" in names


def test_validate_suite_runs_without_scipy():
    # a fresh interpreter in which importing scipy fails gives the same report
    probe = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from maxlinear.oracles import validate_suite\n"
        "print(json.dumps(validate_suite(seed=0, trials=5, epsilon=0.02)))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout) == validate_suite(seed=0, trials=5, epsilon=0.02)


# samples with ties (small integers) and without, down to one value each
_SAMPLE = st.lists(st.one_of(st.integers(0, 4).map(float), st.floats(0.0, 4.0)),
                   min_size=1, max_size=40)


@given(
    a=_SAMPLE,
    b=_SAMPLE,
    v=st.lists(st.one_of(st.floats(-800.0, 800.0), st.sampled_from([-np.inf, np.inf])),
               min_size=1, max_size=20),
)
@settings(max_examples=300, deadline=None)
def test_ks_statistic_and_logsumexp_match_scipy(a, b, v):
    # scipy is the independent reference of the oracles' numpy forms; its
    # warnings (of the p-value, all -inf) are not about the code under test
    vectors = (v, [-np.inf] * len(v))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ks = stats.ks_2samp(a, b).statistic
        refs = [float(special.logsumexp(w)) for w in vectors]
    assert abs(_ks_statistic(a, b) - ks) <= 1e-15
    for w, ref in zip(vectors, refs):
        got = _logsumexp(np.array(w))
        if np.isfinite(ref):
            assert abs(got - ref) <= 1e-15 * max(1.0, abs(ref))
        else:
            assert got == ref


def test_rejection_check_snaps_only_atoms():
    # z_2 of x = (1, 1, 3) has no atom: snapping its oracle values within
    # 2 epsilon of 1 would put about 4 epsilon of bias into its statistic
    ks = check_rejection_oracle(1, 0.05, 500, 200_000_000)["ks"]
    assert ks[0] == ks[2] == 0.0
    assert ks[1] < 1.95 / 500**0.5


def test_bench_decomposition_smoke():
    cells = bench_decomposition(n_list=(1, 2), p_list=(100,), draws=3, seed=0)
    assert len(cells) == 2
    for cell in cells:
        assert cell["mean_seconds"] >= 0.0
        assert cell["p"] == 100
    with pytest.raises(ValueError):
        bench_decomposition(n_list=(1,), p_list=(123,), draws=1)
    # 10**12 sites or timings were a MemoryError; now refused before allocating
    for n, draws in ((10**12, 1), (1, 10**12)):
        with pytest.raises(DimensionOverflowError):
            bench_decomposition(n_list=(n,), p_list=(4,), draws=draws)


def test_summary_rows_layout():
    table = summarize(np.arange(20.0).reshape(10, 2), levels=(0.5,), threshold=5.0)
    rows = summary_rows(table)
    assert rows[0]["coordinate"] == 1
    assert "q0.5" in rows[0] and "exceedance_probability" in rows[0]


# every integer a caller passes in: (name, least value, an accepted value,
# a call passing its argument there and valid values elsewhere)
_TASK = PredictionTask(
    A=np.ones((1, 2)), B=np.ones((1, 2)), margins=(standard_frechet(1.0),) * 2,
    x=np.array([1.0]), num_samples=2, seed=0,
)
_MARMA = MarmaSpec(phi=(0.5,), p=20, n_observed=5, N_horizon=2)


def _draw(num):
    law = conditional_law(validate_model(_TASK.A, _TASK.margins), _TASK.x)
    return draw_conditional_batch(law, num, RngStream(0))


def _oracle(num_accepted=2, max_proposals=1000):
    # 50 unit-Frechet columns into one row: almost every proposal is accepted
    wide = validate_model(np.ones((1, 50)), [standard_frechet(1.0)] * 50)
    return rejection_oracle(wide, [1.0], 0.1, num_accepted, RngStream(0), max_proposals)


def _bench(n=1, p=4, draws=1, seed=0):
    return bench_decomposition(n_list=(n,), p_list=(p,), draws=draws, seed=seed)


INTEGER_SITES = [
    pytest.param("num_samples", 1, 3,
                 lambda v: run_prediction(dataclasses.replace(_TASK, num_samples=v)),
                 id="run_prediction.num_samples"),
    pytest.param("seed", 0, 3, lambda v: run_prediction(dataclasses.replace(_TASK, seed=v)),
                 id="run_prediction.seed"),
    pytest.param("num", 1, 3, _draw, id="draw_conditional_batch.num"),
    pytest.param("seed", 0, 3, RngStream, id="RngStream.seed"),
    pytest.param("stream_id", 0, 3, lambda v: RngStream(0, v), id="RngStream.stream_id"),
    pytest.param("seed", 0, 3, lambda v: derived_seed(v, 0), id="derived_seed.seed"),
    pytest.param("index", 0, 3, lambda v: derived_seed(0, v), id="derived_seed.index"),
    pytest.param("reps", 1, 3, lambda v: coverage_experiment(_MARMA, reps=v, num_samples=5),
                 id="coverage_experiment.reps"),
    pytest.param("reps", 1, 3,
                 lambda v: projection_bias_experiment(_MARMA, reps=v, num_samples=5),
                 id="projection_bias_experiment.reps"),
    pytest.param("draws", 1, 3, lambda v: _bench(draws=v), id="bench_decomposition.draws"),
    pytest.param("n", 1, 3, lambda v: _bench(n=v), id="bench_decomposition.n"),
    # p must also be (2q)^2 for an integer q
    pytest.param("p", 1, 4, lambda v: _bench(p=v), id="bench_decomposition.p"),
    pytest.param("seed", 0, 3, lambda v: _bench(seed=v), id="bench_decomposition.seed"),
    pytest.param("trials", 1, 3, lambda v: validate_suite(trials=v, epsilon=0.1),
                 id="validate_suite.trials"),
    pytest.param("num_accepted", 1, 3, lambda v: _oracle(num_accepted=v),
                 id="rejection_oracle.num_accepted"),
    pytest.param("max_proposals", 1, 3, lambda v: _oracle(max_proposals=v),
                 id="rejection_oracle.max_proposals"),
    pytest.param("q", 1, 3, lambda v: SmithSpec(q=v), id="SmithSpec.q"),
    pytest.param("p", 0, 3, lambda v: MarmaSpec(phi=(0.5,), p=v), id="MarmaSpec.p"),
    pytest.param("n_observed", 1, 3, lambda v: MarmaSpec(phi=(0.5,), n_observed=v),
                 id="MarmaSpec.n_observed"),
    pytest.param("N_horizon", 1, 3, lambda v: MarmaSpec(phi=(0.5,), N_horizon=v),
                 id="MarmaSpec.N_horizon"),
]


@pytest.mark.parametrize("name, low, good, call", INTEGER_SITES)
def test_every_integer_input_follows_one_rule(name, low, good, call):
    # a bool ran as 0 or 1, 2.5 was truncated or ended in a TypeError, a
    # string in a spec field was parsed, and a zero count ended in NumPy's
    # or Python's own error
    for bad in (True, 2.5, float("inf"), "3", None, low - 1):
        with pytest.raises(ValueError, match=rf"\b{name} must be an integer >= {low}, got "):
            call(bad)
    # a NumPy integer and an integral float are the integer
    call(np.int64(good))
    call(float(good))
