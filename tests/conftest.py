import sys
from pathlib import Path

import numpy as np
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run and keep no example
# database, so the suite repeats exactly; each test keeps its own budget.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

from mogge.model import (
    DataSet,
    ExpertComponent,
    GatingComponent,
    MoggeParams,
)


def random_params(rng, K=2, p=3, d=1, diagonal=True, spread=2.0) -> MoggeParams:
    """Random valid parameter set with well-scaled covariances."""
    alphas = rng.dirichlet(np.full(K, 5.0)) if K > 1 else np.array([1.0])
    gating, experts = [], []
    for k in range(K):
        mu = rng.normal(scale=spread, size=p)
        if diagonal:
            R = rng.uniform(0.5, 2.0, size=p)
        else:
            A = rng.normal(size=(p, p))
            R = A @ A.T / p + 0.5 * np.eye(p)
        intercept = rng.normal(scale=1.0, size=d)
        coeffs = rng.normal(scale=1.0, size=(p, d))
        if d == 1:
            cov = np.array([[rng.uniform(0.5, 1.5)]])
        else:
            B = rng.normal(size=(d, d))
            cov = B @ B.T / d + 0.5 * np.eye(d)
        gating.append(GatingComponent(alpha=float(alphas[k]), mu=mu, R=R))
        experts.append(ExpertComponent(intercept=intercept, coeffs=coeffs, cov=cov))
    return MoggeParams(gating=tuple(gating), experts=tuple(experts))


def random_dataset(rng, n=20, p=3, d=1) -> DataSet:
    return DataSet(X=rng.normal(size=(n, p)), Y=rng.normal(size=(n, d)))


def sample_from_params(rng, params: MoggeParams, n: int):
    """Draw (DataSet, labels) from a parameter set; labels are 1-based."""
    K, p, d = params.K, params.p, params.d
    alphas = params.alphas
    z = rng.choice(K, size=n, p=alphas)
    X = np.empty((n, p))
    Y = np.empty((n, d))
    for k in range(K):
        idx = np.where(z == k)[0]
        if idx.size == 0:
            continue
        g, e = params.gating[k], params.experts[k]
        eps = rng.standard_normal((idx.size, p))
        if g.is_diagonal:
            X[idx] = g.mu + eps * np.sqrt(g.R)
        else:
            L = np.linalg.cholesky(g.R)
            X[idx] = g.mu + eps @ L.T
        mean = e.intercept + X[idx] @ e.coeffs
        Ly = np.linalg.cholesky(e.cov)
        Y[idx] = mean + rng.standard_normal((idx.size, d)) @ Ly.T
    return DataSet(X=X, Y=Y), z + 1


def random_tau(rng, n, K):
    """Random responsibility matrix with nondegenerate columns."""
    tau = rng.dirichlet(np.full(K, 2.0), size=n)
    return tau


def params_inf_distance(a: MoggeParams, b: MoggeParams) -> float:
    """Max absolute difference over every parameter block."""
    pieces = []
    for k in range(a.K):
        ga, gb = a.gating[k], b.gating[k]
        ea, eb = a.experts[k], b.experts[k]
        pieces.extend([
            abs(ga.alpha - gb.alpha),
            float(np.max(np.abs(ga.mu - gb.mu))),
            float(np.max(np.abs(ga.R - gb.R))),
            float(np.max(np.abs(ea.intercept - eb.intercept))),
            float(np.max(np.abs(ea.coeffs - eb.coeffs))),
            float(np.max(np.abs(ea.cov - eb.cov))),
        ])
    return max(pieces)
