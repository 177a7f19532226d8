"""Print a digest of the sampler's outputs on the benchmark's requests.

    python3 tools/stream_digest.py CHECKOUT

For each workload of ``CHECKOUT/perfbench/workloads.py`` this runs
requests 0-7 of seeds 1 and 2 through ``run_prediction`` of the library
in ``CHECKOUT/src`` and prints the SHA-256 of the bytes of every ``Z``
and of every ``Y``, in request order. Two checkouts whose lines are equal
drew bit-identical samples and predictions on those requests.

A second line per workload hashes each request's law: its rank, then
the size and bytes of every array of its ``classes``, ``J``, ``J_bar`` and
``weights``. ``J_bar`` never reaches ``Z`` or ``Y``, so only this line shows
a change to it.

A third line per workload hashes the error path: the type name and
message of what ``run_prediction`` raises (or ``ok``) on request 0 of
seed 1 under each corruption of :data:`FAULTS`, in that order.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import sys
from pathlib import Path

SEEDS = (1, 2)
REQUESTS = 8


def _nan_at_first_block_edge(ml, A, x):
    # the last column of the first block of the blocked pass over A
    A[0, min(ml.model._block_width(A.shape[0]), A.shape[1]) - 1] = float("nan")


def _negative_entry(ml, A, x):
    A[-1, 0] = -0.5


def _zero_row(ml, A, x):
    A[-1] = 0.0


def _halved_x0(ml, A, x):
    x[0] *= 0.5


def _rel_tol_one(ml, A, x):
    return {"rel_tol": 1.0}


FAULTS = (_nan_at_first_block_edge, _negative_entry, _zero_row, _halved_x0, _rel_tol_one)


def _fault_digest(ml, task) -> str:
    """SHA-256 of what ``run_prediction`` raises on ``task`` under each
    of :data:`FAULTS`, applied to copies of its ``A`` and ``x``."""
    digest = hashlib.sha256()
    for fault in FAULTS:
        A, x = task.A.copy(), task.x.copy()
        changes = fault(ml, A, x) or {}  # a fault changes A or x in place, or a field
        try:
            ml.sampler.run_prediction(dataclasses.replace(task, A=A, x=x, **changes))
            outcome = "ok"
        except Exception as exc:  # the digest records every outcome
            outcome = f"{type(exc).__name__}: {exc}"
        digest.update(outcome.encode() + b"\n")
    return digest.hexdigest()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 tools/stream_digest.py CHECKOUT", file=sys.stderr)
        return 2
    checkout = Path(argv[0]).resolve()
    # one BLAS thread, as in the benchmark; set before numpy loads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import maxlinear as ml
    from workloads import WORKLOADS, request_inputs, set_up

    if Path(ml.__file__).resolve().parent != checkout / "src" / "maxlinear":
        print(f"error: imported maxlinear from {ml.__file__}", file=sys.stderr)
        return 2
    for workload in WORKLOADS.values():
        design, _ = set_up(ml, workload)
        z_hash, y_hash, law_hash = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
        for seed in SEEDS:
            for index in range(REQUESTS):
                x, sample_seed = request_inputs(seed, workload, index, design)
                task = ml.sampler.PredictionTask(
                    A=design.A, B=design.B, margins=design.margins, x=x,
                    num_samples=workload.num_samples, seed=sample_seed,
                )
                if (seed, index) == (1, 0):
                    fault_hash = _fault_digest(ml, task)
                result = ml.sampler.run_prediction(task)
                z_hash.update(result.Z.tobytes())
                y_hash.update(result.Y.tobytes())
                law = result.law
                law_hash.update(law.rank.to_bytes(8, "little"))
                structure = law.structure
                for sets in (structure.classes, structure.J, structure.J_bar, law.weights):
                    for values in sets:
                        law_hash.update(values.size.to_bytes(8, "little"))
                        law_hash.update(values.tobytes())
        print(f"{workload.name:15s} Z {z_hash.hexdigest()}  Y {y_hash.hexdigest()}")
        print(f"{workload.name:15s} law {law_hash.hexdigest()}")
        print(f"{workload.name:15s} fault {fault_hash}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
