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
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

SEEDS = (1, 2)
REQUESTS = 8


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
                result = ml.sampler.run_prediction(ml.sampler.PredictionTask(
                    A=design.A, B=design.B, margins=design.margins, x=x,
                    num_samples=workload.num_samples, seed=sample_seed,
                ))
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
