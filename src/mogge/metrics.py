"""Clustering and zero-pattern evaluation.

Clustering quality: hard labels from the posterior (Bayes allocation
rule), best-permutation classification rate, adjusted Rand index.

Zero-pattern recovery uses a nonstandard naming that we keep for
comparability with the regularized-mixture literature: *sensitivity* is
the proportion of truly zero coefficients estimated as exactly zero, and
*specificity* the proportion of truly nonzero coefficients estimated as
nonzero.  Zeroness always means equality to ``0.0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    DataSet,
    MoggeParams,
    UnsupportedConfigError,
    posterior_responsibilities,
)


def _min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Column of each row in the least-cost assignment of a square matrix:
    the Hungarian method (Kuhn, 1955), adding one row at a time along a
    shortest augmenting path.  ``scipy.optimize.linear_sum_assignment``
    solves the same problem, but importing it adds about 17 MB of memory."""
    K = cost.shape[0]
    u, v = np.zeros(K + 1), np.zeros(K + 1)  # row and column potentials
    row = np.zeros(K + 1, dtype=int)  # 1-based row on column j, 0 if free
    way = np.zeros(K + 1, dtype=int)
    for i in range(1, K + 1):
        row[0], j = i, 0  # column 0 holds the row being added
        slack, used = np.full(K + 1, np.inf), np.zeros(K + 1, dtype=bool)
        while row[j] != 0:
            used[j] = True
            reduced = np.r_[np.inf, cost[row[j] - 1] - u[row[j]] - v[1:]]
            closer = ~used & (reduced < slack)
            slack[closer], way[closer] = reduced[closer], j
            j = int(np.argmin(np.where(used, np.inf, slack)))
            delta = slack[j]
            u[row[used]] += delta
            v[used] -= delta
            slack[~used] -= delta
        while j != 0:
            row[j], j = row[way[j]], way[j]
    return np.argsort(row[1:])


def bayes_labels(data: DataSet, params: MoggeParams) -> np.ndarray:
    """Hard assignment to the highest-responsibility component (1-based).

    Ties go to the smallest component index.
    """
    tau = posterior_responsibilities(data, params).tau
    return np.argmax(tau, axis=1) + 1


def _validate_labels(labels, K: int, name: str) -> np.ndarray:
    arr = np.asarray(labels)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d label vector")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"{name} must contain integers")
    if arr.size and (arr.min() < 1 or arr.max() > K):
        raise ValueError(f"{name} must lie in 1..{K}")
    return arr.astype(int)


def _count_table(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The ``shape`` table of how often each pair ``(rows[i], cols[i])`` of
    0-based labels occurs, from one count of the flat indices."""
    return np.bincount(rows * shape[1] + cols, minlength=shape[0] * shape[1]).reshape(shape)


def best_label_permutation(true_labels, est_labels, K: int):
    """Agreement-maximizing relabeling of the estimated partition.

    Returns ``(rate, perm)`` where ``perm[j - 1]`` is the true-side label
    assigned to estimated label ``j``.  The assignment maximizing the
    agreement counts is found by the Hungarian method (Kuhn, 1955).
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    t = _validate_labels(true_labels, K, "true_labels")
    e = _validate_labels(est_labels, K, "est_labels")
    if t.shape != e.shape:
        raise ValueError("label vectors must have equal length")
    counts = _count_table(e - 1, t - 1, (K, K))
    true = _min_cost_assignment(-counts)
    return counts[np.arange(K), true].sum() / t.size, tuple(int(q) + 1 for q in true)


def classification_rate(true_labels, est_labels, K: int) -> float:
    """Correct classification rate maximized over label permutations."""
    rate, _ = best_label_permutation(true_labels, est_labels, K)
    return rate


def adjusted_rand_index(true_labels, est_labels) -> float:
    """Adjusted Rand index from the contingency table."""
    t = np.asarray(true_labels)
    e = np.asarray(est_labels)
    if t.ndim != 1 or e.ndim != 1 or t.shape != e.shape:
        raise ValueError("label vectors must be 1-d and of equal length")
    n = t.size
    if n < 2:
        raise ValueError("ARI needs at least two observations")
    _, ti = np.unique(t, return_inverse=True)
    _, ei = np.unique(e, return_inverse=True)
    C = _count_table(ti, ei, (ti.max() + 1, ei.max() + 1))

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_ij = float(np.sum(comb2(C)))
    a = float(np.sum(comb2(C.sum(axis=1))))
    b = float(np.sum(comb2(C.sum(axis=0))))
    expected = a * b / comb2(n)
    max_index = 0.5 * (a + b)
    if max_index == expected:
        return 1.0
    return (sum_ij - expected) / (max_index - expected)


@dataclass(frozen=True)
class BlockScore:
    """Zero-recovery scores for one coefficient block.

    ``s1``/``s2`` are ``None`` when their denominator is empty (no true
    zeros / no true nonzeros in the block).
    """

    kind: str  # "expert" or "gate"
    component: int  # 1-based index of the matched true component
    s1: float | None
    s2: float | None
    n_true_zero: int
    n_true_nonzero: int


@dataclass(frozen=True)
class SparsityReport:
    """Per-block sensitivity/specificity after component matching."""

    blocks: tuple[BlockScore, ...]

    def block(self, kind: str, component: int) -> BlockScore:
        for b in self.blocks:
            if b.kind == kind and b.component == component:
                return b
        raise KeyError(f"no {kind} block for component {component}")

    def summary(self) -> dict[str, BlockScore]:
        """Named blocks for reporting.

        With K=2 only one gating function is effectively free, so the
        summary scores the experts of both components and the gate of
        component 1.  Other K list every block.
        """
        K = max(b.component for b in self.blocks)
        out = {}
        for k in range(1, K + 1):
            out[f"expert_{k}"] = self.block("expert", k)
        if K == 2:
            out["gate"] = self.block("gate", 1)
        else:
            for k in range(1, K + 1):
                out[f"gate_{k}"] = self.block("gate", k)
        return out


def _score_block(kind: str, component: int, true_vec: np.ndarray,
                 est_vec: np.ndarray) -> BlockScore:
    true_zero = true_vec == 0.0
    est_zero = est_vec == 0.0
    nz, nnz = int(true_zero.sum()), int((~true_zero).sum())
    s1 = float(np.sum(true_zero & est_zero)) / nz if nz else None
    s2 = float(np.sum(~true_zero & ~est_zero)) / nnz if nnz else None
    return BlockScore(
        kind=kind, component=component, s1=s1, s2=s2,
        n_true_zero=nz, n_true_nonzero=nnz,
    )


def _match_components(true_params: MoggeParams, est_params: MoggeParams,
                      data: DataSet | None, true_labels) -> list[int]:
    """For each true component k (0-based), the matched estimated index.

    With evaluation data the match comes from the agreement-maximizing
    label permutation; otherwise from the assignment minimizing the
    squared distance between the (mu, beta) blocks.
    """
    K = true_params.K
    if data is not None and true_labels is not None:
        est_labels = bayes_labels(data, est_params)
        _, perm = best_label_permutation(true_labels, est_labels, K)
        # perm[j-1] is the true label for estimated label j: invert it
        return np.argsort(perm).tolist()
    blocks = [
        np.array([np.concatenate([g.mu, e.beta])
                  for g, e in zip(params.gating, params.experts)])
        for params in (true_params, est_params)
    ]
    cost = np.sum((blocks[0][:, None, :] - blocks[1][None, :, :]) ** 2, axis=2)
    return _min_cost_assignment(cost).tolist()


def match_components(reference: MoggeParams, est: MoggeParams) -> list[int]:
    """For each reference component (0-based), the index of the estimated
    component matched to it by minimal (mu, beta) parameter distance."""
    if reference.K != est.K or reference.p != est.p:
        raise ValueError("parameter sets must share K and p")
    return _match_components(reference, est, None, None)


def sensitivity_specificity(true_params: MoggeParams, est_params: MoggeParams,
                            data: DataSet | None = None,
                            true_labels=None) -> SparsityReport:
    """Zero-pattern recovery of expert coefficients and gating means.

    Estimated components are matched to the true ones first: via the
    best label permutation on ``data`` (with ``true_labels``) when given,
    else by minimal parameter distance.
    """
    if true_params.d != 1 or est_params.d != 1:
        raise UnsupportedConfigError("zero-pattern scoring requires d = 1")
    if true_params.K != est_params.K or true_params.p != est_params.p:
        raise ValueError("parameter sets must share K and p")
    matched = _match_components(true_params, est_params, data, true_labels)
    blocks = []
    for k, m in enumerate(matched):
        blocks.append(
            _score_block(
                "expert", k + 1,
                true_params.experts[k].beta, est_params.experts[m].beta,
            )
        )
    for k, m in enumerate(matched):
        blocks.append(
            _score_block(
                "gate", k + 1,
                true_params.gating[k].mu, est_params.gating[m].mu,
            )
        )
    return SparsityReport(blocks=tuple(blocks))
