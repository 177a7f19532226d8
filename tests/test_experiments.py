import csv

import numpy as np
import pytest

from maxlinear import MarmaSpec, RngStream, summarize
from maxlinear.experiments import (
    bench_decomposition,
    coverage_experiment,
    order_statistic_quantile,
    projection_bias_experiment,
    summary_rows,
    write_sample_csv,
)
from maxlinear.oracles import check_rejection_oracle, validate_suite


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


def test_summary_rows_layout():
    table = summarize(np.arange(20.0).reshape(10, 2), levels=(0.5,), threshold=5.0)
    rows = summary_rows(table)
    assert rows[0]["coordinate"] == 1
    assert "q0.5" in rows[0] and "exceedance_probability" in rows[0]
