"""Degenerate inputs fit with finite parameters: constant, all-zero and
collinear columns, duplicated rows, extreme scales, n <= p, and no more
distinct rows than components.  Only finiteness and convergence are
asserted; iteration counts on these inputs move with the last bits of
the linear algebra."""

import numpy as np
import pytest

from mogge import FitOptions, PenaltyConfig, default_scenario, fit_em, fit_em_lasso, sample_dataset
from mogge.model import DataSet

OPTS = FitOptions(n_starts=3, seed=0)


def _with_column(X, j, values):
    Z = X.copy()
    Z[:, j] = values
    return Z


CASES = {
    "constant-column": lambda X, y: (_with_column(X, 0, 3.0), y),
    "zero-column": lambda X, y: (_with_column(X, 0, 0.0), y),
    "duplicated-rows": lambda X, y: (np.vstack([X, X]), np.concatenate([y, y])),
    "collinear-column": lambda X, y: (_with_column(X, 2, X[:, 0] + X[:, 1]), y),
    "scaled-1e6": lambda X, y: (X * 1e6, y * 1e6),
    "scaled-1e-6": lambda X, y: (X * 1e-6, y * 1e-6),
    "n6-p8": lambda X, y: (X[:6], y[:6]),
    "n3-two-distinct-rows": lambda X, y: (X[[0, 1, 0]], y[[0, 1, 0]]),
}


@pytest.fixture(scope="module")
def default_data():
    data, _ = sample_dataset(default_scenario(n=300, seed=42))
    return data.X, data.y1


FITTERS = {
    "em-full": lambda data: fit_em(data, K=2, opts=OPTS),
    "em-diagonal": lambda data: fit_em(data, K=2, opts=OPTS, diagonal_gating=True),
    "em-lasso": lambda data: fit_em_lasso(
        data, K=2, penalty=PenaltyConfig(lam=5.0, gamma=5.0), opts=OPTS
    ),
}


@pytest.mark.parametrize("fitter", sorted(FITTERS))
@pytest.mark.parametrize("case", list(CASES))
def test_degenerate_input_fits_finite(default_data, case, fitter):
    X, y = CASES[case](*default_data)
    fit = FITTERS[fitter](DataSet(X=X, Y=y))
    assert fit.converged
    arrays = [fit.responsibilities.tau, fit.loglik_trace]
    for g in fit.params.gating:
        arrays += [g.mu, g.R]
    for e in fit.params.experts:
        arrays += [e.intercept, e.coeffs, e.cov]
    assert all(np.all(np.isfinite(a)) for a in arrays)
    assert np.isfinite(fit.objective) and np.isfinite(fit.loglik)
