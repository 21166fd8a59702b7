"""Synthetic data generation for the hierarchical process
``Z ~ Mult(alpha)``, ``X | Z=k ~ N_p(mu_k, R_k)``,
``Y | X, Z=k ~ N_d(a_k + B_k' x, Sigma_k)``, plus the canonical
two-component benchmark scenario used throughout the tests and the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .em import _integral
from .model import (
    DataSet,
    ExpertComponent,
    GatingComponent,
    MoggeParams,
)

INTERCEPT_CONVENTIONS = ("zero", "first-entry")


@dataclass(frozen=True)
class Scenario:
    """Ground-truth parameters plus a sample size and seed, each an int, a
    numpy integer or an integral float, stored as an int."""

    true_params: MoggeParams
    n: int
    seed: int

    def __post_init__(self):
        for name in ("n", "seed"):
            object.__setattr__(self, name, _integral(name, getattr(self, name)))
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not (0 <= self.seed < 2 ** 64):
            raise ValueError("seed must fit in 64 unsigned bits")


# Canonical two-component configuration: p=8 predictors, univariate
# response, unit diagonal gating covariances, unit expert variances.
_MU_1 = (0.0, 1.0, -1.0, -1.5, 0.0, 0.5, 0.0, 0.0)
_MU_2 = (2.0, 0.0, 1.0, -1.5, 0.0, -0.5, 0.0, 0.0)
_BETA_1 = (0.0, 1.5, 0.0, 0.0, 0.0, 1.0, 0.0, -0.5)
_BETA_2 = (1.0, -1.5, 0.0, 0.0, 2.0, 0.0, 0.0, 0.5)


def default_scenario(n: int = 300, seed: int = 0,
                     intercept_convention: str = "zero") -> Scenario:
    """The built-in two-component scenario (K=2, p=8, d=1, n=300).

    The coefficient lists do not pin down the expert intercepts, so the
    convention is explicit: ``"zero"`` (default) uses zero intercepts and
    the full 8-vectors as slopes; ``"first-entry"`` reads the first listed
    coefficient as the intercept instead of the x1 slope (whose slope then
    becomes 0).
    """
    if intercept_convention not in INTERCEPT_CONVENTIONS:
        raise ValueError(
            f"intercept_convention must be one of {INTERCEPT_CONVENTIONS}"
        )
    gating = tuple(
        GatingComponent(alpha=0.5, mu=np.array(mu), R=np.ones(8))
        for mu in (_MU_1, _MU_2)
    )
    experts = []
    for listed in (_BETA_1, _BETA_2):
        beta = np.array(listed)
        if intercept_convention == "zero":
            intercept = 0.0
        else:
            intercept = beta[0]
            beta = beta.copy()
            beta[0] = 0.0
        experts.append(
            ExpertComponent(intercept=[intercept], coeffs=beta[:, None], cov=[[1.0]])
        )
    params = MoggeParams(gating=gating, experts=tuple(experts))
    return Scenario(true_params=params, n=n, seed=seed)


def sample_dataset(scenario: Scenario) -> tuple[DataSet, np.ndarray]:
    """Draw one dataset from the scenario; returns the data and the true
    component labels (1-based).  Deterministic under the scenario seed."""
    params = scenario.true_params
    n, p, d, K = scenario.n, params.p, params.d, params.K
    rng = np.random.default_rng(scenario.seed)

    cut = np.cumsum(params.alphas)
    z = np.searchsorted(cut, rng.random(n), side="right")
    z = np.minimum(z, K - 1)  # guard the u ~ 1.0 edge

    X = np.empty((n, p))
    Y = np.empty((n, d))
    eps_x = rng.standard_normal((n, p))
    eps_y = rng.standard_normal((n, d))
    for k in range(K):
        idx = np.where(z == k)[0]
        if idx.size == 0:
            continue
        g, e = params.gating[k], params.experts[k]
        if g.is_diagonal:
            X[idx] = g.mu + eps_x[idx] * np.sqrt(g.R)
        else:
            X[idx] = g.mu + eps_x[idx] @ g._chol.T
        mean = e.intercept + X[idx] @ e.coeffs
        Y[idx] = mean + eps_y[idx] @ e._chol.T
    return DataSet(X=X, Y=Y), z + 1


def replicate_seed(seed: int, replicate: int) -> int:
    """Derived per-replicate seed so replicates form independent streams."""
    state = np.random.SeedSequence((seed, replicate)).generate_state(1, dtype=np.uint64)
    return int(state[0])
