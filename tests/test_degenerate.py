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
from hypothesis import example, given, settings, strategies as st

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
from mogge import em, model
from mogge.em import start_seeds
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
    "duplicated-column": lambda X, y: (_with_column(X, 1, X[:, 0]), y),
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
    # no penalty: the expert lasso's active blocks are singular but for
    # the ridge on collinear columns and at n <= p
    "em-lasso-unpenalized": lambda data, K: fit_em_lasso(
        data, K=K, penalty=PenaltyConfig(lam=0.0, gamma=0.0), opts=OPTS
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


# The failure contract as a property, on small inputs drawn with the
# column and row pathologies above: each fitter returns finite parameters
# or raises FitFailedError (SelectionError for a grid search), and a
# ValueError only asks for more components than observations.
PROPERTY_OPTS = FitOptions(n_starts=2, max_iter=200, seed=0)
PROPERTY_FITTERS = {
    "em-full": lambda data, K: fit_em(data, K=K, opts=PROPERTY_OPTS),
    "em-diagonal": lambda data, K: fit_em(data, K=K, opts=PROPERTY_OPTS,
                                          diagonal_gating=True),
    "em-lasso": lambda data, K: fit_em_lasso(
        data, K=K, penalty=PenaltyConfig(lam=2.0, gamma=1.0), opts=PROPERTY_OPTS),
    "grid-search": lambda data, K: grid_search(
        data, GridSpec(Ks=(K,), lambdas=(0.0, 5.0), gammas=(0.0, 5.0)),
        opts=PROPERTY_OPTS).best_fit,
}
COLUMN_KINDS = ("plain", "constant", "duplicated", "rounded", "scaled-1e150",
                "scaled-1e-150")


@st.composite
def degenerate_samples(draw):
    """(DataSet, K): n in [2, 40], p in [1, 5], K in [1, 3]; each column of
    X and the response plain, constant, a copy of an earlier column,
    rounded to integers or scaled by 1e150 or 1e-150; some rows repeated."""
    n, p, K = draw(st.integers(2, 40)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    Z = rng.normal(size=(n, p + 1))
    Z[:, p] += Z[:, :p].sum(axis=1)  # the response depends on X
    for j in range(p + 1):
        kind = draw(st.sampled_from(COLUMN_KINDS))
        if kind == "constant":
            Z[:, j] = draw(st.sampled_from((0.0, 1.0, -3.5)))
        elif kind == "duplicated" and j > 0:
            Z[:, j] = Z[:, draw(st.integers(0, j - 1))]
        elif kind == "rounded":
            Z[:, j] = np.round(Z[:, j])
        elif kind.startswith("scaled"):
            Z[:, j] *= float(kind[len("scaled-"):])
    for i, source in enumerate(draw(st.lists(st.integers(0, n - 1), max_size=n // 2))):
        Z[n - 1 - i] = Z[source]
    return DataSet(X=Z[:, :p], Y=Z[:, p]), K


@pytest.mark.parametrize("fitter", sorted(PROPERTY_FITTERS))
@settings(max_examples=50, deadline=None)
@given(sample=degenerate_samples())
@example(sample=(DataSet(X=[[0.0], [1.0]], Y=[0.0, 1.0]), 3))
def test_fits_finite_or_fail_as_the_contract_says(fitter, sample):
    data, K = sample
    if K > data.n:
        with pytest.raises(ValueError, match="cannot split"):
            PROPERTY_FITTERS[fitter](data, K)
        return
    try:
        fit = PROPERTY_FITTERS[fitter](data, K)
    except (FitFailedError, SelectionError):
        return
    _assert_finite(fit)



@pytest.mark.parametrize("diagonal", [False, True])
def test_kmeans_on_a_constant_x_fails_every_start_at_its_partition(diagonal):
    # every k-means++ centre is the one point, so every label is 0 and no
    # draw has two non-empty groups: one diagnosis per start, as for any
    # start failure
    opts = FitOptions(n_starts=3, seed=0, init_strategy="kmeans-on-x")
    data = DataSet(X=np.full((10, 2), 1.5), Y=np.arange(10.0))
    with pytest.raises(FitFailedError, match="^all 3 starts failed$") as err:
        fit_em(data, K=2, opts=opts, diagonal_gating=diagonal)
    assert err.value.diagnoses == [
        f"start {i}: FitFailedError: could not draw a partition with 2 non-empty groups "
        "in 100 attempts" for i in range(3)
    ]


def test_an_overflowing_kmeans_partition_fails_only_its_start():
    # k-means++ squares the distances to its first centre: from a row at
    # 1e154 the other nine squares sum past the float64 range, from any
    # other row they do not; starts 1 and 2 draw that row first.  The
    # moments of such a column overflow too, so the fits fail per start
    opts = FitOptions(n_starts=3, seed=0, init_strategy="kmeans-on-x")
    rng = np.random.default_rng(1)
    X, y = rng.normal(size=(10, 2)) * [1e150, 1.0], rng.normal(size=10)
    firsts = [np.random.default_rng(seed).integers(10) for seed in start_seeds(0, 3)]
    assert firsts[0] != firsts[1] == firsts[2]
    X[firsts[1], 0] = 1e154
    data = DataSet(X=X, Y=y)
    seeded = em._seeded(model._Sample.of(data), 2, opts, False)
    assert [type(s) for s in seeded] == [model._Stack, FloatingPointError, FloatingPointError]
    for fit in (lambda: fit_em(data, K=2, opts=opts),
                lambda: fit_em(data, K=2, opts=opts, diagonal_gating=True),
                lambda: fit_em_lasso(data, K=2, penalty=PenaltyConfig(lam=5.0, gamma=5.0),
                                     opts=opts)):
        try:
            _assert_finite(fit())
        except FitFailedError as err:
            assert len(err.diagnoses) == opts.n_starts
    grid = GridSpec(Ks=(2,), lambdas=(0.0, 5.0), gammas=(0.0, 5.0))
    try:
        grid_search(data, grid, opts=opts)
    except SelectionError as err:
        assert isinstance(err.__cause__, FitFailedError)
        assert len(err.__cause__.diagnoses) == opts.n_starts
