"""Full-bit digests of the benchmark's fits: one command for "same bits".

Run from the repository root as::

    PYTHONPATH=src python tests/digests.py [SEED ...]

(default seed 7777).  For each seed it prints three lines, ``<seed>
<set> <sha256>``, each the ``_oracles.bit_digest`` of one set of fits on
the inputs that ``bench/workloads.py`` builds: ``em-full`` and
``em-diagonal``, ``fit_em`` with K = 2 and 10 starts on the 40
``em_replicates`` inputs with full and with diagonal gating, and
``select``, ``grid_search`` over the 6 x 6 penalty grid with 5 starts on
the 24 ``select_replicates`` inputs.  Input r is
``default_scenario(n=300, seed=replicate_seed(20190912, r))`` and its
fit's master seed ``replicate_seed(SEED, r)``; the benchmark fits the
CSV round trip of the same data, which it checks to be bit-equal.

Two source trees give the same bits on these fits exactly when they
print the same lines: point ``PYTHONPATH`` at the other tree's ``src``
and run this file again.  pytest does not collect it (not ``test_*``).
"""

from __future__ import annotations

import sys

import mogge
from _oracles import bit_digest

DATASET_SEED = 20190912
PENALTY_GRID = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0)
EM_INPUTS, SELECT_INPUTS = 40, 24


def _inputs(count: int) -> list:
    return [mogge.sample_dataset(mogge.default_scenario(
        n=300, seed=mogge.replicate_seed(DATASET_SEED, r)))[0] for r in range(count)]


def _fit(data, opts, diagonal_gating):
    try:
        return mogge.fit_em(data, K=2, opts=opts, diagonal_gating=diagonal_gating)
    except mogge.FitFailedError as exc:  # a failure has its bits too
        return exc


def digests(seed: int) -> dict[str, str]:
    """The digest of each set of fits at the master seed ``seed``."""
    datasets = _inputs(EM_INPUTS)
    out = {}
    for name, diagonal in (("em-full", False), ("em-diagonal", True)):
        out[name] = bit_digest(*(
            _fit(data, mogge.FitOptions(n_starts=10, seed=mogge.replicate_seed(seed, r)),
                 diagonal)
            for r, data in enumerate(datasets)))
    grid = mogge.GridSpec(Ks=(2,), lambdas=PENALTY_GRID, gammas=PENALTY_GRID)
    out["select"] = bit_digest(*(
        mogge.grid_search(data, grid, opts=mogge.FitOptions(
            n_starts=5, seed=mogge.replicate_seed(seed, r)))
        for r, data in enumerate(datasets[:SELECT_INPUTS])))
    return out


def main(argv: list[str]) -> None:
    for seed in [int(a) for a in argv] or [7777]:
        for name, digest in digests(seed).items():
            print(seed, name, digest, flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
