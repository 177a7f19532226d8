"""Run the committed mutants of the library against the tests meant to kill them.

    python3 tools/mutants.py --into DIR

Each entry of :data:`MUTANTS` names a file under ``src/``, an exact ``old``
text that occurs there once, the ``new`` text that replaces it, and the
test ids that must fail once it is in. The tool copies ``src/``, ``tests/``
and ``pyproject.toml`` into a new directory it makes inside ``DIR`` (``DIR``
is created if missing and is never inside this checkout; nothing already in
it is touched), runs every named test once on the clean copy, then applies
one mutant at a time there, runs its tests in a fresh pytest process and
restores the file; at the end it removes the directory it made. It prints
one line per mutant, ``killed`` or ``SURVIVED``, and exits 1 if any mutant
survives, 2 if the clean copy fails its tests or an ``old`` text does not
occur exactly once.

``tests/test_package.py::test_mutant_texts_occur_once`` checks every ``old``
text against ``src/`` in the tier-1 suite, so the list cannot rot; the
mutant run itself stays out of it.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]


HITTING, CONDITIONAL, SAMPLER = "maxlinear/hitting.py", "maxlinear/conditional.py", "maxlinear/sampler.py"
MODEL, ORACLES = "maxlinear/model.py", "maxlinear/oracles.py"

MUTANTS = (
    # validate, zhat and H: the one blocked pass
    Mutant("pass reports x before A", HITTING,
           "        _check_model_matrix(A)  # a fault of A is reported first\n        raise\n",
           "        raise\n",
           ("tests/test_hitting.py::test_the_pass_reports_an_empty_A_before_a_bad_x",)),
    Mutant("pass without abs", HITTING,
           "                np.abs(block, out=work)\n                np.divide(xc, work, out=work)\n",
           "                np.divide(xc, block, out=work)\n",
           ("tests/test_hitting.py::test_blocked_pass_matches_the_whole_matrix_formulas",)),
    Mutant("pass without the inf zhat check", HITTING,
           "                if z.max() == np.inf:", "                if False:",
           ("tests/test_hitting.py::test_upper_bound_overflow_is_an_explicit_error",)),
    Mutant("overflow names the next column", HITTING,
           "start + int(np.argmax(z == np.inf)),", "start + int(np.argmax(z == np.inf)) + 1,",
           ("tests/test_hitting.py::test_upper_bound_overflow_is_an_explicit_error",)),
    Mutant("strict < in the hit test", HITTING,
           "np.less_equal(work, tol, out=H[:, cols])", "np.less(work, tol, out=H[:, cols])",
           ("tests/test_hitting.py::test_a_column_that_hits_no_row_joins_the_first_J_bar",)),
    # the decomposition
    Mutant("hits visited row by row", HITTING,
           "cols, rows = np.nonzero(H[:, merge].T)", "rows, cols = np.nonzero(H[:, merge])",
           ("tests/test_hitting.py::test_decomposition_matches_the_union_find_oracle",)),
    # the class weights
    Mutant("weights without log zhat", CONDITIONAL,
           "    return np.log(z_hat) + terms, starts\n", "    return terms, starts\n",
           ("tests/test_conditional.py::test_frechet_weight_ratios",)),
    Mutant("uniform weights within a class", CONDITIONAL,
           "    w = np.exp(log_w - np.repeat(top, sizes))\n", "    w = np.ones_like(log_w)\n",
           ("tests/test_conditional.py::test_frechet_weight_ratios",)),
    Mutant("squared weights within a class", CONDITIONAL,
           "    w = np.exp(log_w - np.repeat(top, sizes))\n",
           "    w = np.exp(2.0 * (log_w - np.repeat(top, sizes)))\n",
           ("tests/test_conditional.py::test_frechet_weight_ratios",)),
    Mutant("reversed weights within a class", CONDITIONAL,
           "    return np.split(w, starts[1:])\n", "    return [v[::-1] for v in np.split(w, starts[1:])]\n",
           ("tests/test_conditional.py::test_frechet_weight_ratios",)),
    # the atom pick
    Mutant("atom pick without its class shift", SAMPLER,
           "    u = gen.random((num, law.rank)) + np.arange(law.rank)\n",
           "    u = gen.random((num, law.rank))\n",
           ("tests/test_sampler.py::test_multi_class_pick_frequencies",)),
    # the truncated draw and its clamp
    Mutant("non-atoms drawn untruncated", SAMPLER,
           "    bounds = law.z_hat.copy()\n", "    bounds = np.full(law.z_hat.shape, np.inf)\n",
           ("tests/test_sampler.py::test_draw_case_ii_pattern",)),
    Mutant("sole atoms drawn below zhat", SAMPLER,
           "    bounds[_sole_atoms(law)] = np.inf\n", "",
           ("tests/test_sampler.py::test_a_sole_candidate_atom_needs_no_mass_below_its_bound",)),
    Mutant("sole atoms unmapped to A's columns", SAMPLER,
           "    bounds[cond[_sole_atoms(law)]] = np.inf\n", "    bounds[_sole_atoms(law)] = np.inf\n",
           ("tests/test_sampler.py::test_a_sole_candidate_atom_needs_no_mass_below_its_bound",)),
    Mutant("every block reads the first block's labels", SAMPLER,
           '_columnwise((kinds, label[rows]), "_hazard_quantile"',
           '_columnwise((kinds, label[: block.shape[0]]), "_hazard_quantile"',
           ("tests/test_sampler.py::test_truncated_matrix_blocks_match_one_pass",)),
    Mutant("no lower clamp", SAMPLER,
           "        if low < tiny:\n            np.maximum(block, tiny, out=block)\n", "",
           ("tests/test_sampler.py::test_truncated_matrix_clamps_to_the_bound",)),
    Mutant("lower clamp only below 0", SAMPLER,
           "        if low < tiny:\n", "        if low < 0.0:\n",
           ("tests/test_sampler.py::test_truncated_matrix_clamps_to_the_bound",)),
    Mutant("no NaN check", SAMPLER,
           "        if np.isnan(low):", "        if False:",
           ("tests/test_sampler.py::test_truncated_matrix_clamps_to_the_bound",)),
    # the free draw: free columns that replay the first uniforms of the
    # stream, as a second generator of the same seed would
    Mutant("free columns replay the stream's start", SAMPLER,
           "    Z = _truncated_matrix(groups, bounds, gen, num)\n",
           "    Z = _truncated_matrix(groups, bounds, gen, num)\n"
           "    if free.size:\n"
           "        Z.T[free] = _truncated_matrix(margin_groups(tuple(task.margins[j] for j in free)), "
           "bounds[free], RngStream(seed, 0).generator(), num).T\n",
           ("tests/test_sampler.py::test_free_factors_are_independent_of_the_conditioned_ones",)),
    # the row floors and the pruned map
    Mutant("row floor from the largest candidate", SAMPLER,
           "np.minimum.reduceat(reach, starts, axis=1)", "np.maximum.reduceat(reach, starts, axis=1)",
           ("tests/test_sampler.py::test_pruned_prediction_map_is_exact",)),
    Mutant("map drops a live column per block", MODEL,
           "                part = cols[start : start + block]\n",
           "                part = cols[start + 1 : start + block]\n",
           ("tests/test_sampler.py::test_pruned_prediction_map_is_exact",)),
    # the overflow row
    Mutant("overflow check reads Y's first draw only", SAMPLER,
           "over = np.flatnonzero(np.isinf(Y.max(axis=0)))", "over = np.flatnonzero(np.isinf(Y[0]))",
           ("tests/test_sampler.py::test_an_overflowing_prediction_is_an_explicit_error",)),
    # summarize
    Mutant("summarize means unscaled", "maxlinear/experiments.py",
           "means=np.ldexp(np.ldexp(samples, -e).mean(axis=0), e),", "means=samples.mean(axis=0),",
           ("tests/test_experiments.py::test_summarize_means_do_not_overflow",)),
    # a CLI error path
    Mutant("CLI lets a ValueError through", "maxlinear/cli.py",
           "    except (MaxLinearError, ValueError, OSError) as exc:",
           "    except (MaxLinearError, OSError) as exc:",
           ("tests/test_cli.py::test_malformed_input_files_exit_nonzero",)),
    # the rejection oracle's pre-filter
    Mutant("pre-filter thresholds at (1 + epsilon) x", ORACLES,
           "            reach = (1.0 - epsilon) * x[i] / row[cols]\n",
           "            reach = (1.0 + epsilon) * x[i] / row[cols]\n",
           ("tests/test_sampler.py::test_rejection_pre_filter_never_drops_an_accepted_proposal",)),
)


def _run_tests(into: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(into / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=into, env=env, capture_output=True).returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--into", required=True, type=Path,
                        help="directory to make the copy in; never inside this checkout")
    args = parser.parse_args(argv)
    parent = args.into.resolve()
    if parent == ROOT or ROOT in parent.parents:
        print(f"error: {parent} lies inside the checkout {ROOT}", file=sys.stderr)
        return 2
    parent.mkdir(parents=True, exist_ok=True)
    into = Path(tempfile.mkdtemp(prefix="mutants-", dir=parent))
    try:
        return _run_mutants(into)
    finally:
        shutil.rmtree(into)  # the tool's own copy, and nothing else


def _run_mutants(into: Path) -> int:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for tree in ("src", "tests"):
        shutil.copytree(ROOT / tree, into / tree, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")

    start = time.perf_counter()
    clean = sorted({t for m in MUTANTS for t in m.tests})
    if _run_tests(into, clean) != 0:
        print("error: the named tests fail on the unmutated copy", file=sys.stderr)
        return 2
    survived = stale = 0
    for m in MUTANTS:
        path = into / "src" / m.file
        original = path.read_text()
        if original.count(m.old) != 1:
            print(f"STALE    {m.name}: its old text occurs {original.count(m.old)} times in {m.file}")
            stale += 1
            continue
        t0 = time.perf_counter()
        path.write_text(original.replace(m.old, m.new))
        try:
            code = _run_tests(into, m.tests)
        finally:
            path.write_text(original)
        # 1: a test failed; 2: collection failed (the mutant breaks an import)
        killed = code in (1, 2)
        survived += not killed
        print(f"{'killed  ' if killed else 'SURVIVED'} {m.name} ({time.perf_counter() - t0:.1f} s)")
    print(f"{len(MUTANTS) - survived - stale} of {len(MUTANTS)} killed in "
          f"{time.perf_counter() - start:.0f} s")
    return 2 if stale else int(survived > 0)

if __name__ == "__main__":
    sys.exit(main())
