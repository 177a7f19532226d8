"""The public import surface, checked in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = r"""
import json, sys
import maxlinear, maxlinear.cli
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m == "maxlinear.oracles")
unresolved = [n for n in maxlinear.__all__ if not hasattr(maxlinear, n)]
from tracing import REQUEST_POINTS, SETUP_POINTS
points = REQUEST_POINTS + SETUP_POINTS
# perfbench/harness.py times these three stages outside the request
points += tuple(("hitting", a, "hitting." + a)
                for a in ("compute_upper_bounds", "compute_hitting_matrix", "decompose"))
missing = sorted(f"{m}.{a}" for m, a, _ in points if not hasattr(getattr(maxlinear, m), a))
spans = {s for _, _, s in points}
covered = {s for m, a, s in points if hasattr(getattr(maxlinear, m), a)}
print(json.dumps({"loaded": loaded, "size": len(maxlinear.__all__), "unresolved": unresolved,
                  "missing": missing, "uncovered_spans": sorted(spans - covered)}))
"""


def test_import_surface(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    out = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=tmp_path, env=env,
        capture_output=True, text=True, check=True,
    )
    doc = json.loads(out.stdout)
    # scipy and the oracles load only for self-checks
    assert doc["loaded"] == []
    assert doc["size"] <= 50 and doc["unresolved"] == []
    # every span of the benchmark's tracer has an attribute to wrap; the
    # one missing point is the Frechet weight shortcut, deleted earlier,
    # whose span conditional.weights is covered by class_weights
    assert doc["missing"] == ["conditional.frechet_class_weights"]
    assert doc["uncovered_spans"] == []
