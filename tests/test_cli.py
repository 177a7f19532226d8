import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxlinear import (
    MarmaSpec,
    PredictionTask,
    RngStream,
    SmithSpec,
    marma_coefficients,
    marma_design,
    run_prediction,
    save_marma_spec,
    save_model,
    save_smith_spec,
    simulate_marma_window,
    standard_frechet,
)
from maxlinear.cli import _emit_json, main
from maxlinear.experiments import derived_seed
from maxlinear.oracles import ones_lower_triangular_model


@pytest.fixture
def model_files(tmp_path):
    model_path = tmp_path / "model.json"
    obs_path = tmp_path / "obs.csv"
    save_model(ones_lower_triangular_model(), model_path)
    obs_path.write_text("1.0,1.0,3.0\n")
    return str(model_path), str(obs_path)


def test_sample_command(model_files, capsys, tmp_path):
    model_path, obs_path = model_files
    out = tmp_path / "raw.csv"
    code = main([
        "sample", "--model", model_path, "--obs", obs_path,
        "--num", "40", "--seed", "9", "--out", str(out),
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("coordinate,median,mean")
    assert len(lines) == 4
    assert out.read_text().startswith("z_1,z_2,z_3")


def test_sample_command_degenerate_case(model_files, capsys, tmp_path):
    # x = (1, 2, 3) is a point mass: every draw and every median is x
    model_path, obs_path = model_files
    degenerate = tmp_path / "degenerate.csv"
    degenerate.write_text("1.0,2.0,3.0\n")
    out = tmp_path / "raw.csv"
    assert main(["sample", "--model", model_path, "--obs", str(degenerate),
                 "--num", "50", "--seed", "0", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [float(line.split(",")[1]) for line in lines[1:]] == [1.0, 2.0, 3.0]
    rows = out.read_text().splitlines()
    assert rows[0] == "z_1,z_2,z_3"
    assert len(rows) == 51 and rows[1:] == [rows[1]] * 50


def test_sample_command_csv_is_reproducible(model_files, capsys, tmp_path):
    model_path, obs_path = model_files
    b_path = tmp_path / "B.json"
    b_path.write_text(json.dumps({"B": [[0.0, 1.0, 0.0]]}))
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        assert main(["sample", "--model", model_path, "--obs", obs_path,
                     "--num", "25", "--seed", "123", "--predict", str(b_path),
                     "--emit-z", "--out", str(path)]) == 0
    assert paths[0].read_text().startswith("z_1,z_2,z_3,y_1\n")
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_sample_command_deterministic(model_files, capsys):
    model_path, obs_path = model_files
    outputs = []
    for _ in range(2):
        assert main(["sample", "--model", model_path, "--obs", obs_path,
                     "--num", "10", "--seed", "4"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_sample_command_with_predict(model_files, capsys, tmp_path):
    model_path, obs_path = model_files
    b_path = tmp_path / "B.json"
    b_path.write_text(json.dumps({"B": [[0.0, 1.0, 0.0]]}))
    code = main([
        "sample", "--model", model_path, "--obs", obs_path,
        "--num", "15", "--seed", "2", "--predict", str(b_path),
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2  # header + one predicted coordinate


def test_inspect_command(model_files, capsys):
    model_path, obs_path = model_files
    assert main(["inspect", "--model", model_path, "--obs", obs_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rank"] == 2
    assert doc["z_hat"] == [1.0, 1.0, 3.0]
    assert doc["candidate_columns"] == [[0], [2]]


def test_inconsistent_observation_exits_nonzero(model_files, tmp_path, capsys):
    model_path, _ = model_files
    bad_obs = tmp_path / "bad.csv"
    bad_obs.write_text("1.0,0.5,3.0\n")
    assert main(["sample", "--model", model_path, "--obs", str(bad_obs)]) == 1
    assert "error:" in capsys.readouterr().err


FRECHET = {"kind": "frechet", "alpha": 1.0}
ONES = [[1.0, 1.0, 1.0]] * 3
NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("command, doc, key", [
    ("model", {"A": [[1.0]]}, "margins"),
    ("model", {"A": [[1.0]], "margins": [{"kind": "frechet"}]}, "alpha"),
    ("model", [[1.0]], "margins"),
    ("predict", {"rows": [[1.0, 1.0, 1.0]]}, "B"),
    ("marma", {"theta": []}, "phi"),
    ("model", {"A": ONES, "margins": 5}, "margins"),
    ("model", {"A": ONES, "margins": [{"kind": "frechet", "alpha": [1]}] * 3}, "alpha"),
    ("model", {"A": ONES, "margins": [{**FRECHET, "scale": None}] * 3}, "scale"),
    ("model", {"A": {"a": 1}, "margins": [FRECHET] * 3}, "A"),
    ("smith", [1, 2], None),
    ("smith", {"sites": 5}, "sites"),
    ("smith", {"sites": [[0.0, 0.0]], "grid": [1, 2]}, "grid"),
    ("marma", {"phi": 0.5}, "phi"),
    ("marma", {"phi": [0.5], "theta": 3}, "theta"),
    ("marma", {"phi": [0.5], "p": [1]}, "p"),
    ("predict", {"B": {"a": 1}}, "B"),
    ("smith", {"sites": [[0.0, 0.0]] * 3, "qq": 4}, "qq"),
    ("marma", {"phi": [0.5], "N_horizont": 4}, "N_horizont"),
    ("model", {"A": ONES, "margins": [FRECHET] * 3, "note": "x"}, "note"),
    ("smith", {"sites": [[0.0, 0.0]] * 3, "q": 2.5}, "q"),
    ("marma", {"phi": [0.5], "p": 10.9}, "p"),
    ("model", {"A": ONES, "margins": [FRECHET, {**FRECHET, "alpha": [1]}, FRECHET]}, "alpha"),
    ("smith", {"sites": [[0.0, 0.0]] * 3, "q": True}, "q"),
    ("smith", {"sites": [[0.0, 0.0]] * 3, "q": "25"}, "q"),
    ("marma", {"phi": [0.5], "N_horizon": True}, "N_horizon"),
    pytest.param("obs", "1,1,3\n1,1,3\n", None, id="obs-two-rows-None"),
    # json.dumps writes these as NaN, Infinity and -Infinity
    ("marma", {"phi": [NAN], "p": 20, "n_observed": 5, "N_horizon": 3}, "phi"),
    ("marma", {"phi": [0.5], "theta": [INF]}, "theta"),
    ("smith", {"sites": [[0.0, 0.0]], "beta1": NAN}, "beta1"),
    ("smith", {"sites": [[0.0, 0.0]], "M": INF}, "M"),
    ("smith", {"sites": [[0.0, -INF]]}, "sites"),
    ("smith", {"sites": [[0.0, 0.0]], "grid": [[NAN, 0.0]]}, "grid"),
])
def test_malformed_input_files_exit_nonzero(model_files, tmp_path, capsys, command, doc, key):
    # each gave a traceback, or ran with a misspelt key ignored, an
    # observation matrix read as one vector or a NaN spec value let through
    model_path, obs_path = model_files
    bad = tmp_path / "bad.json"
    bad.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    argv = {
        "model": ["sample", "--model", str(bad), "--obs", obs_path],
        "predict": ["sample", "--model", model_path, "--obs", obs_path, "--predict", str(bad)],
        "marma": ["marma", "--spec", str(bad), "--mode", "quality"],
        "smith": ["smith", "--spec", str(bad), "--obs", obs_path, "--num", "5"],
        "obs": ["inspect", "--model", model_path, "--obs", str(bad)],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    # with no key at fault, the line says what the file must be
    assert repr(key) in err if key else " must " in err


def test_reports_refuse_non_finite_numbers(capsys):
    # the window of MarmaSpec(phi=(0.5,), theta=(1e306,), p=20, n_observed=5,
    # N_horizon=3) at seed 0 has a horizon of inf, and `marma` printed it as
    # "true_future": [..., Infinity]
    with pytest.raises(ValueError, match="not JSON compliant"):
        _emit_json({"true_future": [1.0, INF]}, None)
    assert capsys.readouterr().out == ""


def test_rel_tol_of_one_exits_nonzero(model_files, capsys):
    model_path, obs_path = model_files
    assert main(["sample", "--model", model_path, "--obs", obs_path, "--rel-tol", "1"]) == 1
    assert "rel_tol" in capsys.readouterr().err


def test_marma_quality_command(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    save_marma_spec(MarmaSpec(phi=(0.7, 0.5, 0.3), p=500), spec_path)
    assert main(["marma", "--spec", str(spec_path), "--mode", "quality"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["psi_sum"] == pytest.approx(3.4, abs=1e-9)
    assert doc["truncation_quality"] > 1 - 1e-12


def test_marma_rejects_bad_count(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    save_marma_spec(MarmaSpec(phi=(0.5,), p=50, n_observed=15, N_horizon=4), spec_path)
    assert main(["marma", "--spec", str(spec_path), "--num", "0"]) == 1
    assert "error: num_samples must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["coverage", "projection"])
def test_marma_rejects_zero_reps(tmp_path, capsys, mode):
    spec_path = tmp_path / "spec.json"
    save_marma_spec(MarmaSpec(phi=(0.5,), p=50, n_observed=15, N_horizon=4), spec_path)
    assert main(["marma", "--spec", str(spec_path), "--mode", mode, "--reps", "0"]) == 1
    assert "error: reps must be an integer >= 1" in capsys.readouterr().err


def test_marma_predict_command(tmp_path, capsys):
    spec = MarmaSpec(phi=(0.5,), p=50, n_observed=15, N_horizon=4)
    spec_path = tmp_path / "spec.json"
    save_marma_spec(spec, spec_path)
    assert main(["marma", "--spec", str(spec_path), "--num", "60", "--seed", "7"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["future_median"]) == 4
    assert all(v > 0 for v in doc["future_median"])
    # the same run as the command (window from stream (7, 0), draws from
    # seed derived_seed(7, 0)): medians and 0.95 quantiles are type-1 order
    # statistics of Y
    psi = marma_coefficients(spec.phi, spec.theta, spec.p)
    A, B = marma_design(psi, spec.n_observed, spec.N_horizon)
    _, x_obs, y_true = simulate_marma_window(
        psi, spec.n_observed, spec.N_horizon, RngStream(7, 0).generator()
    )
    Y = run_prediction(PredictionTask(
        A=A, B=B, margins=(standard_frechet(1.0),) * A.shape[1], x=x_obs,
        num_samples=60, seed=derived_seed(7, 0),
    )).Y
    assert doc["observed"] == x_obs.tolist() and doc["true_future"] == y_true.tolist()
    srt = np.sort(Y, axis=0)
    assert doc["future_median"] == srt[29].tolist()  # ceil(0.5 * 60) - 1
    assert doc["future_q95"] == srt[56].tolist()  # ceil(0.95 * 60) - 1


def test_smith_command(tmp_path, capsys):
    spec_path = tmp_path / "smith.json"
    obs_path = tmp_path / "obs.csv"
    sites = ((0.3, 0.4), (-1.2, 0.9))
    save_smith_spec(SmithSpec(q=8, sites=sites, grid=((0.0, 0.0),) + sites), spec_path)
    obs_path.write_text("5.0,5.0\n")
    assert main(["smith", "--spec", str(spec_path), "--obs", str(obs_path),
                 "--num", "50", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4  # header + 3 prediction rows
    # the two site rows reproduce the observed value 5
    medians = [float(line.split(",")[1]) for line in lines[2:]]
    assert medians == pytest.approx([5.0, 5.0], rel=1e-9)


def test_validate_command(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["validate", "--trials", "10", "--epsilon", "0.02",
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True


def test_validate_rejects_zero_trials(capsys):
    assert main(["validate", "--trials", "0"]) == 1
    assert "error: trials must be an integer >= 1" in capsys.readouterr().err


def test_bench_rejects_zero_draws(capsys):
    assert main(["bench", "--n-list", "1", "--p-list", "64", "--draws", "0"]) == 1
    assert "error: draws must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, option", [
    (["bench", "--n-list", "1.5"], "--n-list"),
    (["bench", "--n-list", ""], "--n-list"),
    (["bench", "--n-list", "1", "--p-list", "64,0"], "--p-list"),
    (["sample", "--quantiles", "abc"], "--quantiles"),
    (["sample", "--predict", "B", "--threshold", "nan"], "threshold"),
], ids=["n-list-1.5", "n-list-empty", "p-list-0", "quantiles-abc", "threshold-nan"])
def test_list_options_and_threshold_are_named(model_files, tmp_path, capsys, argv, option):
    # each ended in a bare int() or float() message, and a NaN threshold
    # printed exceedance probabilities of 0
    model_path, obs_path = model_files
    (tmp_path / "B.csv").write_text("1,0,0\n")
    if argv[0] == "sample":
        argv = [*argv, "--model", model_path, "--obs", obs_path, "--num", "5"]
        argv = [str(tmp_path / "B.csv") if a == "B" else a for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and option in err


def test_bench_command(capsys):
    assert main(["bench", "--n-list", "1,2", "--p-list", "64", "--draws", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["cells"]) == 2


# --- no input ends the CLI in a traceback -------------------------------------

# a file's value or an option's text is replaced by one of these; every
# count among them is tiny or far past MAX_DESIGN_ENTRIES, so a run is
# rejected before it allocates, and no example allocates more than a few MB
ODD_VALUES = [NAN, INF, -INF, -1.0, 0, 2.5, 1e308, 10**12, 10**18, True, None, "x", [], {}]
ODD_TEXT = ["nan", "inf", "-1", "0", "2.5", "1e308", str(10**12), str(10**18), "", "abc", "1,0"]
FILES = {
    "model.json": {
        "A": [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]],
        "margins": [
            FRECHET,
            {**FRECHET, "alpha": 2.0, "scale": 0.5},
            {"kind": "tabulated", "grid": [0.0, 2.0, 4.0, 6.0], "density": [0.0, 0.25, 0.25, 0.0]},
        ],
    },
    "obs.csv": "1.0,1.0,3.0\n",
    "B.json": {"B": [[0.0, 1.0, 0.0], [1.0, 1.0, 1.0]]},
    "marma.json": {"phi": [0.5], "theta": [0.2], "p": 20, "n_observed": 5, "N_horizon": 3},
    "smith.json": {"sites": [[0.3, 0.4], [-1.2, 0.9]], "grid": [[0.0, 0.0]], "q": 3},
    "site_obs.csv": "5.0,5.0\n",
}
# a path names a file of FILES, or none, in the example's directory; None
# drops the option
PATHS = [None, *FILES, "missing.json"]
OUT = [None, "out.txt", "missing/out.txt"]
# a large --reps or --draws is a long run, not an error: those two take
# only small or invalid counts
COUNTS = ["1", "0", "-1", "2.5", "", "abc"]
COMMANDS = {
    "sample": {
        "--model": ("model.json", PATHS), "--obs": ("obs.csv", PATHS),
        "--predict": ("B.json", PATHS), "--num": ("20", ODD_TEXT),
        "--threshold": ("2", [None, *ODD_TEXT]), "--quantiles": ("0.5,0.9", ODD_TEXT),
        "--rel-tol": ("1e-9", ODD_TEXT), "--seed": ("1", ODD_TEXT), "--out": (None, OUT),
    },
    "inspect": {
        "--model": ("model.json", PATHS), "--obs": ("obs.csv", PATHS),
        "--rel-tol": ("1e-9", ODD_TEXT), "--out": (None, OUT),
    },
    "marma": {
        "--spec": ("marma.json", PATHS),
        "--mode": ("predict", ["coverage", "projection", "quality"]),
        "--reps": ("2", COUNTS), "--num": ("20", ODD_TEXT), "--seed": ("1", ODD_TEXT),
        "--out": (None, OUT),
    },
    "smith": {
        "--spec": ("smith.json", PATHS), "--obs": ("site_obs.csv", PATHS),
        "--num": ("20", ODD_TEXT), "--quantiles": ("0.5", ODD_TEXT), "--out": (None, OUT),
    },
    "bench": {
        "--n-list": ("1,2", ODD_TEXT), "--p-list": ("4,16", ODD_TEXT),
        "--draws": ("2", COUNTS + [str(10**12)]), "--out": (None, OUT),
    },
}


def _mutated(draw, doc):
    """``doc`` with one value, found by a walk down from its top, replaced
    by an odd one."""
    if isinstance(doc, (dict, list)) and doc and draw(st.integers(0, 3)):
        key = draw(st.sampled_from(list(doc) if isinstance(doc, dict) else range(len(doc))))
        doc = copy.copy(doc)
        doc[key] = _mutated(draw, doc[key])
        return doc
    return draw(st.sampled_from(ODD_VALUES))


@st.composite
def _cli_runs(draw):
    """(argv, files): a command whose options each keep their value or
    take an odd one, and FILES with up to two values replaced in each."""
    command = draw(st.sampled_from(list(COMMANDS)))
    argv = [command]
    for option, (good, odd) in COMMANDS[command].items():
        value = draw(st.one_of(st.just(good), st.sampled_from(odd)))
        if value is not None:
            argv += [option, value]
    files = {}
    for name, doc in FILES.items():
        for _ in range(draw(st.integers(0, 2))):
            if isinstance(doc, str):
                cells = doc.strip().split(",")
                cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(ODD_TEXT))
                doc = ",".join(cells) + draw(st.sampled_from(["\n", "\n" + doc]))
            else:
                doc = _mutated(draw, doc)
        files[name] = doc
    return argv, files


def _refuse(constant):
    raise ValueError(f"{constant} in a JSON document")


@given(run=_cli_runs())
@example(run=(["marma", "--spec", "marma.json", "--mode", "quality"], {
    **FILES, "marma.json": {"phi": [NAN], "p": 20, "n_observed": 5, "N_horizon": 3},
}))
@example(run=(["marma", "--spec", "marma.json", "--mode", "quality"], {
    **FILES, "marma.json": {**FILES["marma.json"], "theta": [1e308]},
}))
@settings(max_examples=150, deadline=None)
def test_cli_never_prints_a_traceback(run):
    # each run exits 0, exits 2 from argparse, or prints one error: line;
    # a JSON document it writes holds no NaN or Infinity
    argv, files = run
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for name, doc in files.items():
            (d / name).write_text(doc if isinstance(doc, str) else json.dumps(doc))
        argv = [str(d / a) if a in files or a.startswith(("missing", "out")) else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        err = err.getvalue()
        if code == 2:
            assert "error:" in err.splitlines()[-1]
        elif code == 1:
            assert err.startswith("error:") and err.count("\n") == 1, err
        else:
            assert code == 0 and not err
            if argv[0] in ("inspect", "marma", "bench"):
                text = (d / "out.txt").read_text() if "--out" in argv else out.getvalue()
                json.loads(text, parse_constant=_refuse)
