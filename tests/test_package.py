"""The public import surface, checked in a fresh interpreter, and the bytes
of the files the package writes."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from maxlinear import (
    Frechet,
    MarmaSpec,
    SmithSpec,
    TabulatedContinuous,
    save_marma_spec,
    save_model,
    save_smith_spec,
    standard_frechet,
    validate_model,
)
from maxlinear.errors import _to_json

ROOT = Path(__file__).resolve().parents[1]

PROBE = r"""
import json, sys
sys.modules["resource"] = None  # Unix only: an import of it fails, as on Windows
import maxlinear, maxlinear.cli, maxlinear.oracles
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
unresolved = [n for n in maxlinear.__all__ if not hasattr(maxlinear, n)]
from tracing import REQUEST_POINTS, SETUP_POINTS
points = REQUEST_POINTS + SETUP_POINTS
# perfbench/harness.py times these three stages outside the request, and
# only when all three exist; they are timers, not spans of the tracer
stages = tuple(("hitting", a)
               for a in ("compute_upper_bounds", "compute_hitting_matrix", "decompose"))
missing = sorted(f"{m}.{a}" for m, a, *_ in points + stages
                 if not hasattr(getattr(maxlinear, m), a))
spans = {s for _, _, s in points}
covered = {s for m, a, s in points if hasattr(getattr(maxlinear, m), a)}
print(json.dumps({"loaded": loaded, "size": len(maxlinear.__all__), "unresolved": unresolved,
                  "missing": missing, "uncovered_spans": sorted(spans - covered),
                  "weights": [n in maxlinear.__all__ for n in ("class_weights", "margin_groups")]}))
"""


def test_import_surface(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    out = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=tmp_path, env=env,
        capture_output=True, text=True, check=True,
    )
    doc = json.loads(out.stdout)
    # numpy is the only runtime dependency: the oracles need no scipy, and
    # the package imports (the probe ran) without the resource module
    assert doc["loaded"] == []
    assert doc["size"] <= 50 and doc["unresolved"] == []
    # class_weights takes the pair margin_groups returns, so both are public
    assert doc["weights"] == [True, True]
    # the points with no attribute to wrap: the Frechet weight shortcut,
    # whose span conditional.weights is covered by class_weights; the two
    # hitting stages that hitting_structure replaced, so the harness times
    # no stage; and validate_model, which run_prediction has not called
    # since the blocked pass checks A, so model.validate is the one span
    # with nothing to wrap. Every other span has an attribute to wrap
    assert doc["missing"] == [
        "conditional.frechet_class_weights", "hitting.compute_hitting_matrix",
        "hitting.decompose", "sampler.validate_model",
    ]
    assert doc["uncovered_spans"] == ["model.validate"]


def test_file_writers_keep_their_bytes(tmp_path):
    # every file goes through errors._to_json; these bytes are those of the
    # earlier writers (to_dict per margin, dataclasses.asdict per spec)
    model = validate_model(
        [[1.0, 0.0, 0.5], [1.0, 1.0, 0.0], [0.25, 1.0, 1.0]],
        [Frechet(2, 0.5), TabulatedContinuous([0.0, 1.0, 2.0], [0.0, 1.0, 0.0]),
         standard_frechet()],
    )
    save_model(model, tmp_path / "model.json")
    assert (tmp_path / "model.json").read_text() == (
        '{"A": [[1.0, 0.0, 0.5], [1.0, 1.0, 0.0], [0.25, 1.0, 1.0]], "margins": '
        '[{"kind": "frechet", "alpha": 2.0, "scale": 0.5}, '
        '{"kind": "tabulated", "grid": [0.0, 1.0, 2.0], "density": [0.0, 1.0, 0.0]}, '
        '{"kind": "frechet", "alpha": 1.0, "scale": 1.0}]}'
    )
    spec = MarmaSpec(phi=(0.7, 0.5, 0.3), theta=(0.2,), p=50, n_observed=15, N_horizon=4)
    save_marma_spec(spec, tmp_path / "marma.json")
    assert (tmp_path / "marma.json").read_text() == (
        '{"phi": [0.7, 0.5, 0.3], "theta": [0.2], "p": 50, "n_observed": 15, "N_horizon": 4}'
    )
    spec = SmithSpec(rho=0.3, q=5, sites=((0.0, 0.0), (1.0, -0.5)), grid=((0.5, 0.5),))
    save_smith_spec(spec, tmp_path / "smith.json")
    assert (tmp_path / "smith.json").read_text() == (
        '{"rho": 0.3, "beta1": 1.0, "beta2": 1.0, "M": 4.0, "q": 5, "alpha": 1.0, '
        '"sites": [[0.0, 0.0], [1.0, -0.5]], "grid": [[0.5, 0.5]]}'
    )
    # any other object is a TypeError, as json.dumps gives without the hook
    with pytest.raises(TypeError, match="not JSON serializable"):
        json.dumps({"x": object()}, default=_to_json)
    assert json.dumps([np.float32(0.5), np.int64(3), np.arange(2)], default=_to_json) == (
        "[0.5, 3, [0, 1]]"
    )


def test_mutant_texts_occur_once():
    # tools/mutants.py applies a mutant by replacing its old text, which
    # must occur exactly once in its file, so an edit of src/ that moves a
    # mutated line shows here; the mutant run itself is not part of tier-1
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) >= 15 and len(set(names)) == len(names)
    for m in mutants.MUTANTS:
        assert (ROOT / "src" / m.file).read_text().count(m.old) == 1, m.name
