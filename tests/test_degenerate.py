"""Degenerate inputs fit with finite parameters: constant, all-zero and
collinear columns, duplicated rows, extreme scales, n <= p, and no more
distinct rows than components.  Only finiteness and convergence are
asserted; iteration counts on these inputs move with the last bits of
the linear algebra.  With more components than distinct rows, a
component left holding one or two outlying rows, or data so large that
its moments overflow, a fit may also fail, but only as
``FitFailedError`` with one diagnosis per start (``SelectionError`` for
a grid search)."""

import numpy as np
import pytest

from mogge import (
    FitFailedError,
    FitOptions,
    GridSpec,
    PenaltyConfig,
    SelectionError,
    default_scenario,
    fit_em,
    fit_em_lasso,
    grid_search,
    sample_dataset,
)
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


def _with_outliers(X, y, m):
    """Append copies of the first m rows with x and y shifted by +50."""
    return np.vstack([X, X[:m] + 50.0]), np.concatenate([y, y[:m] + 50.0])


# fitted with K=3: more components than distinct rows, or a third
# component left for one or two outlying rows
K3_CASES = {
    "n6-two-distinct-rows": lambda X, y: (X[[0, 1] * 3], y[[0, 1] * 3]),
    "one-outlying-row": lambda X, y: _with_outliers(X, y, 1),
    "two-outlying-rows": lambda X, y: _with_outliers(X, y, 2),
}


@pytest.fixture(scope="module")
def default_data():
    data, _ = sample_dataset(default_scenario(n=300, seed=42))
    return data.X, data.y1


FITTERS = {
    "em-full": lambda data, K: fit_em(data, K=K, opts=OPTS),
    "em-diagonal": lambda data, K: fit_em(data, K=K, opts=OPTS, diagonal_gating=True),
    "em-lasso": lambda data, K: fit_em_lasso(
        data, K=K, penalty=PenaltyConfig(lam=5.0, gamma=5.0), opts=OPTS
    ),
}


def _assert_finite(fit):
    arrays = [fit.responsibilities.tau, fit.loglik_trace]
    for g in fit.params.gating:
        arrays += [g.mu, g.R]
    for e in fit.params.experts:
        arrays += [e.intercept, e.coeffs, e.cov]
    assert all(np.all(np.isfinite(a)) for a in arrays)
    assert np.isfinite(fit.objective) and np.isfinite(fit.loglik)


@pytest.mark.parametrize("fitter", sorted(FITTERS))
@pytest.mark.parametrize("case", list(CASES))
def test_degenerate_input_fits_finite(default_data, case, fitter):
    X, y = CASES[case](*default_data)
    fit = FITTERS[fitter](DataSet(X=X, Y=y), 2)
    assert fit.converged
    _assert_finite(fit)


@pytest.mark.parametrize("fitter", sorted(FITTERS))
@pytest.mark.parametrize("case", list(K3_CASES))
def test_three_components_fit_finite_or_fail_per_start(default_data, case, fitter):
    X, y = K3_CASES[case](*default_data)
    try:
        fit = FITTERS[fitter](DataSet(X=X, Y=y), 3)
    except FitFailedError as err:
        assert len(err.diagnoses) == OPTS.n_starts
    else:
        _assert_finite(fit)


# scales at which the second moments of the data overflow float64
OVERFLOW_SCALES = (1e160, 1e300)


@pytest.mark.parametrize("fitter", sorted(FITTERS))
@pytest.mark.parametrize("scale", OVERFLOW_SCALES)
def test_overflowing_scale_fits_finite_or_fails_per_start(default_data, scale, fitter):
    X, y = default_data
    try:
        fit = FITTERS[fitter](DataSet(X=X * scale, Y=y * scale), 2)
    except FitFailedError as err:
        assert len(err.diagnoses) == OPTS.n_starts
    else:
        _assert_finite(fit)


@pytest.mark.parametrize("scale", OVERFLOW_SCALES)
def test_overflowing_scale_grid_search_selects_or_raises(default_data, scale):
    X, y = default_data
    grid = GridSpec(Ks=(2,), lambdas=(0.0, 5.0), gammas=(0.0, 5.0))
    try:
        table = grid_search(DataSet(X=X * scale, Y=y * scale), grid, opts=OPTS)
    except SelectionError as err:
        assert isinstance(err.__cause__, FitFailedError)
        assert len(err.__cause__.diagnoses) == OPTS.n_starts
        return
    assert table.selected_row.converged
    _assert_finite(table.best_fit)
