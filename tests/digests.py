"""Digests of the benchmark's fits: one command for "same bits" and for
"same answers".

Run from the repository root as::

    PYTHONPATH=src python tests/digests.py [SEED ...]

(default seed 7777).  For each seed and each of three sets of fits on
the inputs that ``bench/workloads.py`` builds it prints two lines: the
bit digest ``<seed> <set> <sha256>``, the ``_oracles.bit_digest`` of the
fits, and the answers digest ``<seed> <set>-answers <sha256>``, of what
the fits decide.  The sets are ``em-full`` and ``em-diagonal``,
``fit_em`` with K = 2 and 10 starts on the 40 ``em_replicates`` inputs
with full and with diagonal gating, whose answers are each fit's
``n_iter``, ``converged`` and Bayes labels (or a failure's type), and
``select``, ``grid_search`` over the 6 x 6 penalty grid with 5 starts on
the 24 ``select_replicates`` inputs, whose answers are the selected (K,
lambda, gamma) and df, the best fit's zero pattern (coefficients and
gating means), ``n_iter`` and Bayes labels, and every row's df,
``converged`` and failure type.  Input r is
``default_scenario(n=300, seed=replicate_seed(20190912, r))`` and its
fit's master seed ``replicate_seed(SEED, r)``; the benchmark fits the
CSV round trip of the same data, which it checks to be bit-equal.

Two source trees give the same bits (or the same answers) on these fits
exactly when they print the same bit lines (or answers lines): point
``PYTHONPATH`` at the other tree's ``src`` and run this file again.
pytest does not collect it (not ``test_*``).
"""

from __future__ import annotations

import hashlib
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


def _fit_answers(data, fit) -> tuple:
    """What a fit decides: its counts and Bayes labels, not its bits."""
    if isinstance(fit, BaseException):
        return (type(fit).__name__,)
    return fit.n_iter, fit.converged, mogge.bayes_labels(data, fit.params).tolist()


def _select_answers(data, table) -> tuple:
    """What a grid search decides: the selected row, the best fit's zero
    pattern and answers, and each row's df, convergence and failure type."""
    row, fit = table.selected_row, table.best_fit
    return ((row.K, row.lam, row.gamma, row.df),
            [(e.coeffs == 0.0).tolist() for e in fit.params.experts],
            [(g.mu == 0.0).tolist() for g in fit.params.gating],
            _fit_answers(data, fit),
            [(r.df, r.converged, r.failure and type(r.failure).__name__) for r in table.rows])


def answers_digest(answers) -> str:
    """sha256 over the ``repr`` of plain Python answers, in order."""
    return hashlib.sha256(repr(list(answers)).encode()).hexdigest()


def digests(seed: int) -> dict[str, str]:
    """The bit and answers digests of each set of fits at the master seed ``seed``."""
    datasets = _inputs(EM_INPUTS)
    out = {}
    for name, diagonal in (("em-full", False), ("em-diagonal", True)):
        fits = [_fit(data, mogge.FitOptions(n_starts=10, seed=mogge.replicate_seed(seed, r)),
                     diagonal)
                for r, data in enumerate(datasets)]
        out[name] = bit_digest(*fits)
        out[f"{name}-answers"] = answers_digest(map(_fit_answers, datasets, fits))
    grid = mogge.GridSpec(Ks=(2,), lambdas=PENALTY_GRID, gammas=PENALTY_GRID)
    tables = [mogge.grid_search(data, grid, opts=mogge.FitOptions(
        n_starts=5, seed=mogge.replicate_seed(seed, r)))
        for r, data in enumerate(datasets[:SELECT_INPUTS])]
    out["select"] = bit_digest(*tables)
    out["select-answers"] = answers_digest(map(_select_answers, datasets, tables))
    return out


def main(argv: list[str]) -> None:
    for seed in [int(a) for a in argv] or [7777]:
        for name, digest in digests(seed).items():
            print(seed, name, digest, flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
