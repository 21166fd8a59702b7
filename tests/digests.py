"""Digests of the benchmark's fits: one command for "same bits" and for
"same answers", and a per-input listing of the answers.

Run from the repository root as::

    PYTHONPATH=src python tests/digests.py [--per-input] [SEED ...]

(default seed 7777).  For each seed and each of four sets of fits on
the inputs that ``bench/workloads.py`` builds it prints two lines: the
bit digest ``<seed> <set> <sha256>``, the ``_oracles.bit_digest`` of the
fits, and the answers digest ``<seed> <set>-answers <sha256>``, of what
the fits decide.  The sets are ``em-full`` and ``em-diagonal``,
``fit_em`` with K = 2 and 10 starts on the 40 ``em_replicates`` inputs
with full and with diagonal gating, whose answers are each fit's
``n_iter``, ``converged`` and Bayes labels (or a failure's type),
``select``, ``grid_search`` over the 6 x 6 penalty grid with 5 starts on
the 24 ``select_replicates`` inputs, whose answers are the selected (K,
lambda, gamma) and df, the best fit's zero pattern (coefficients and
gating means), ``n_iter`` and Bayes labels, and every row's df,
``converged`` and failure type, and ``k45``, the ``fit_em`` fits of the
40 ``em_replicates`` inputs again with K = 4 and K = 5, each with full
and with diagonal gating, whose answers are those of the ``em`` sets.
Input r is ``default_scenario(n=300, seed=replicate_seed(20190912, r))``
and its fit's master seed ``replicate_seed(SEED, r)``; the benchmark
fits the CSV round trip of the same data, which it checks to be
bit-equal.

With ``--per-input`` one line per fit follows the digests: ``<seed>
<set> <r> <n_iter> <converged> <ccr> <objective> <labels>``, where the
set names the K and gating layout of a ``k45`` fit (``k45-K4-full``,
...), ``ccr`` is the classification rate of the Bayes labels against
the true ones, ``objective`` the fit's best objective (for ``select``,
of its selected fit) and ``labels`` the first 12 hex digits of the
sha256 of the Bayes labels renumbered in order of first appearance, so
that equal partitions under any labeling print the same digits; a failed
fit prints its type instead.  A ``select`` line goes on with the
selected row's ``<lambda> <gamma> <df> <bic>``, so that two trees'
selections diff input by input too.

Two source trees give the same bits (or the same answers) on these fits
exactly when they print the same bit lines (or answers lines): point
``PYTHONPATH`` at the other tree's ``src`` and run this file again; the
per-input lines of two trees diff input by input.
pytest does not collect it (not ``test_*``).
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

import mogge
from _oracles import bit_digest

DATASET_SEED = 20190912
PENALTY_GRID = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0)
EM_INPUTS, SELECT_INPUTS = 40, 24
LAYOUTS = (("full", False), ("diagonal", True))


def _inputs(count: int) -> list:
    """(data, true labels) of the first ``count`` inputs."""
    return [mogge.sample_dataset(mogge.default_scenario(
        n=300, seed=mogge.replicate_seed(DATASET_SEED, r))) for r in range(count)]


def _fits(inputs, seed: int, K: int, diagonal_gating: bool) -> list:
    """``fit_em`` of each input with 10 starts at its master seed, or the
    failure it raises (a failure has its bits too)."""
    out = []
    for r, (data, _) in enumerate(inputs):
        try:
            out.append(mogge.fit_em(data, K=K, opts=mogge.FitOptions(
                n_starts=10, seed=mogge.replicate_seed(seed, r)),
                diagonal_gating=diagonal_gating))
        except mogge.FitFailedError as exc:
            out.append(exc)
    return out


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


def _per_input(name: str, r: int, data, labels, fit) -> str:
    """The per-input line of the fit ``fit`` of input r."""
    if isinstance(fit, BaseException):
        return f"{name} {r} {type(fit).__name__}"
    est = mogge.bayes_labels(data, fit.params)
    ccr = float(mogge.classification_rate(labels, est, K=fit.params.K))
    # the labels renumbered in order of first appearance: a relabeled
    # fit gets the same tag
    _, first, inverse = np.unique(est, return_index=True, return_inverse=True)
    canonical = np.argsort(np.argsort(first))[inverse]
    tag = hashlib.sha256(canonical.astype(np.int64).tobytes()).hexdigest()[:12]
    return f"{name} {r} {fit.n_iter} {fit.converged} {ccr!r} {fit.objective!r} {tag}"


def digests(seed: int) -> tuple[dict[str, str], list[str]]:
    """The bit and answers digests of each set of fits at the master seed
    ``seed``, and the per-input lines."""
    inputs = _inputs(EM_INPUTS)
    datasets = [data for data, _ in inputs]
    out, lines = {}, []

    def listed(name, fits, tails=None):
        lines.extend(_per_input(name, r, *inp, fit) + tail
                     for r, (inp, fit, tail) in enumerate(zip(
                         inputs, fits, tails or [""] * len(fits))))
        return fits

    for layout, diagonal in LAYOUTS:
        fits = listed(f"em-{layout}", _fits(inputs, seed, 2, diagonal))
        out[f"em-{layout}"] = bit_digest(*fits)
        out[f"em-{layout}-answers"] = answers_digest(map(_fit_answers, datasets, fits))
    grid = mogge.GridSpec(Ks=(2,), lambdas=PENALTY_GRID, gammas=PENALTY_GRID)
    tables = [mogge.grid_search(data, grid, opts=mogge.FitOptions(
        n_starts=5, seed=mogge.replicate_seed(seed, r)))
        for r, data in enumerate(datasets[:SELECT_INPUTS])]
    listed("select", [table.best_fit for table in tables], [
        f" {row.lam!r} {row.gamma!r} {row.df} {row.bic!r}"
        for row in (table.selected_row for table in tables)])
    out["select"] = bit_digest(*tables)
    out["select-answers"] = answers_digest(map(_select_answers, datasets, tables))
    k45 = [listed(f"k45-K{K}-{layout}", _fits(inputs, seed, K, diagonal))
           for K in (4, 5) for layout, diagonal in LAYOUTS]
    out["k45"] = bit_digest(*(fit for fits in k45 for fit in fits))
    out["k45-answers"] = answers_digest(
        answer for fits in k45 for answer in map(_fit_answers, datasets, fits))
    return out, lines


def main(argv: list[str]) -> None:
    per_input = "--per-input" in argv
    for seed in [int(a) for a in argv if a != "--per-input"] or [7777]:
        out, lines = digests(seed)
        for name, digest in out.items():
            print(seed, name, digest, flush=True)
        for line in lines if per_input else ():
            print(seed, line, flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
