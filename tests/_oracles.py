"""Independent reference implementations used only to check the library.

Everything here deliberately avoids the code paths under test: densities go
through explicit inverses / arbitrary-precision arithmetic, weighted least
squares goes through an augmented lstsq, and the weighted lasso goes through
a bound-constrained quasi-Newton solve on the positive/negative split.  The
expert lasso is the joint problem over the coefficients and an
unpenalized intercept, which each oracle carries as a variable of its own
rather than profiling it out by centring, as the library does.  The
grid search runs as one checked public fit per row, the loop that the
warm-chain driver replaced.
"""

from __future__ import annotations

import itertools
import math

import mpmath as mp
import numpy as np
from scipy.optimize import minimize

mp.mp.dps = 40


def mvn_logpdf_direct(v, mean, cov) -> float:
    """Gaussian log-density via explicit inverse and slogdet (no Cholesky)."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.asarray(cov, dtype=float)
    if cov.ndim == 1:
        cov = np.diag(cov)
    m = v.shape[0]
    diff = v - mean
    quad = diff @ np.linalg.inv(cov) @ diff
    _, logdet = np.linalg.slogdet(cov)
    return float(-0.5 * (m * np.log(2.0 * np.pi) + logdet + quad))


def _mp_gauss_pdf(v, mean, cov) -> mp.mpf:
    """Arbitrary-precision Gaussian density via mpmath matrices."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.asarray(cov, dtype=float)
    if cov.ndim == 1:
        cov = np.diag(cov)
    m = len(v)
    C = mp.matrix(cov.tolist())
    diff = mp.matrix([float(a) - float(b) for a, b in zip(v, mean)])
    quad = (diff.T * (C ** -1) * diff)[0]
    det = mp.det(C)
    return (2 * mp.pi) ** (-mp.mpf(m) / 2) / mp.sqrt(det) * mp.e ** (-quad / 2)


def joint_term_mp(x, y, params) -> mp.mpf:
    """Per-observation joint density sum_k alpha_k phi_p(x) phi_d(y|x),
    summed in arbitrary precision."""
    total = mp.mpf(0)
    for g, e in zip(params.gating, params.experts):
        mean_y = np.atleast_1d(e.intercept + np.asarray(x) @ e.coeffs)
        total += mp.mpf(g.alpha) * _mp_gauss_pdf(x, g.mu, g.R) * _mp_gauss_pdf(
            y, mean_y, e.cov
        )
    return total


def joint_loglik_mp(data, params) -> float:
    """Joint log-likelihood by direct arbitrary-precision summation."""
    total = mp.mpf(0)
    for i in range(data.n):
        total += mp.log(joint_term_mp(data.X[i], data.Y[i], params))
    return float(total)


def responsibilities_direct(data, params) -> np.ndarray:
    """Unnormalized products, then row normalization, in plain float math."""
    n, K = data.n, params.K
    raw = np.zeros((n, K))
    for i in range(n):
        for k, (g, e) in enumerate(zip(params.gating, params.experts)):
            mean_y = np.atleast_1d(e.intercept + data.X[i] @ e.coeffs)
            raw[i, k] = (
                g.alpha
                * np.exp(mvn_logpdf_direct(data.X[i], g.mu, g.R))
                * np.exp(mvn_logpdf_direct(data.Y[i], mean_y, e.cov))
            )
    return raw / raw.sum(axis=1, keepdims=True)


def weighted_moments(X: np.ndarray, w: np.ndarray):
    """Weighted mean and covariance (divisor sum(w)) via explicit loops."""
    n, p = X.shape
    s = float(np.sum(w))
    mean = np.zeros(p)
    for i in range(n):
        mean += w[i] * X[i]
    mean /= s
    cov = np.zeros((p, p))
    for i in range(n):
        diff = X[i] - mean
        cov += w[i] * np.outer(diff, diff)
    cov /= s
    return mean, cov


def wls_ridge_lstsq(Z: np.ndarray, w: np.ndarray, T: np.ndarray,
                    ridge: float) -> np.ndarray:
    """The ridge weighted least squares of T on ``[1, Z]`` with the ridge
    on the coefficients of Z only: (A' W A + ridge J) C = A' W T, with A =
    [1, Z] and J the identity without its first diagonal entry, by lstsq
    on the augmented system [sqrt(W) A; sqrt(ridge) J] C ~ [sqrt(W) T; 0].
    The first row of C is the intercept."""
    A = np.hstack([np.ones((len(Z), 1)), Z])
    q = A.shape[1]
    T = T if T.ndim == 2 else T[:, None]
    sw = np.sqrt(w)[:, None]
    penalty = np.sqrt(ridge) * np.eye(q)
    penalty[0, 0] = 0.0
    A = np.vstack([sw * A, penalty])
    B = np.vstack([sw * T, np.zeros((q, T.shape[1]))])
    C, *_ = np.linalg.lstsq(A, B, rcond=None)
    return C


def weighted_lasso_reference(X: np.ndarray, y: np.ndarray, w: np.ndarray,
                             sigma2: float, lam: float, beta0=None) -> np.ndarray:
    """Minimize 0.5 * sum_i w_i (y_i - b0 - x_i'b)^2 + lam*sigma2*|b|_1 over
    b and the unpenalized intercept b0 jointly, with L-BFGS-B on b0 and the
    split b = b_plus - b_minus, both nonnegative; returns b."""
    n, p = X.shape
    eta = lam * sigma2

    def objective(z):
        b = z[1:p + 1] - z[p + 1:]
        r = y - z[0] - X @ b
        f = 0.5 * float(r @ (w * r)) + eta * float(np.sum(z[1:]))
        g_b = -X.T @ (w * r)
        grad = np.concatenate([[-float(w @ r)], g_b + eta, -g_b + eta])
        return f, grad

    z0 = np.zeros(2 * p + 1)
    if beta0 is not None:
        z0[1:p + 1] = np.maximum(beta0, 0.0)
        z0[p + 1:] = np.maximum(-np.asarray(beta0), 0.0)
    res = minimize(
        objective, z0, jac=True, method="L-BFGS-B",
        bounds=[(None, None)] + [(0.0, None)] * (2 * p),
        options={"maxiter": 50000, "ftol": 1e-18, "gtol": 1e-12},
    )
    return res.x[1:p + 1] - res.x[p + 1:]


def ca_sweeps_residual_form(X, y, w, sigma2, lam, beta0, sweeps: int) -> np.ndarray:
    """Exactly ``sweeps`` cyclic passes over the coefficients of the
    weighted lasso with an unpenalized intercept, each coordinate from the
    partial residual in O(n) work: each step minimizes over that
    coefficient and the intercept together, by a soft-threshold on the
    coordinate's column centred at its weighted mean, and then sets the
    intercept to the weighted mean of what is left.

    Residual-form arithmetic with its own soft-threshold and no stopping
    rule: the loop the Gram-form update replaced.  Columns whose weighted
    squared deviation from their weighted mean is zero are forced to 0.
    """
    beta = np.array(beta0, dtype=float)
    eta = lam * sigma2
    s = float(np.sum(w))
    intercept = 0.0
    r = y - X @ beta
    for _ in range(sweeps):
        for j in range(X.shape[1]):
            partial = r + intercept + beta[j] * X[:, j]  # y less the other coefficients
            xc = X[:, j] - float(w @ X[:, j]) / s
            denom = float(w @ (xc * xc))
            if denom <= 0.0:
                beta[j] = 0.0
            else:
                num = float(xc @ (w * partial))
                beta[j] = np.sign(num) * max(abs(num) - eta, 0.0) / denom + 0.0
            intercept = float(w @ (partial - beta[j] * X[:, j])) / s
            r = partial - intercept - beta[j] * X[:, j]
    return beta


def coordinate_ascent(G, c, nk, sigma2, eta, beta, ca_max_iter, ca_tol) -> np.ndarray:
    """Cyclic coordinate ascent on the weighted lasso in Gram form, from
    ``beta``: ``beta_j <- S(c_j - G_j beta + G_jj beta_j; eta) / G_jj``, with
    coordinates whose ``G_jj <= 0`` forced to 0.  Stops after ``ca_max_iter``
    sweeps, or after the first sweep in which every change of fitted values
    ``sqrt(G_jj / nk) * |delta beta_j| / sigma`` is below ``ca_tol``.

    The expert update the library ran before its exact active-set solve;
    run at a tight tolerance it is a reference for that solve."""
    rows = list(G)
    c = c.tolist()
    eta = float(eta)
    scale = np.sqrt(G.diagonal() / (nk * sigma2)).tolist()
    g = G.diagonal().tolist()
    beta = np.array(beta, dtype=float)
    b = beta.tolist()
    for _ in range(ca_max_iter):
        change = 0.0
        for j in range(len(b)):
            old = b[j]
            if g[j] <= 0.0:
                new = 0.0
            else:
                u = float(c[j] - rows[j] @ beta + g[j] * old)
                new = (((u > 0.0) - (u < 0.0)) * max(abs(u) - eta, 0.0) + 0.0) / g[j]
            beta[j] = b[j] = new
            change = max(change, scale[j] * abs(new - old))
        if change < ca_tol:
            break
    return beta


def centred_gram(X, y, w):
    """The unpenalized part of the weighted lasso with a free intercept,
    the intercept profiled out: ``G = Xc' W Xc`` and ``c = Xc' W (y -
    ybar)``, with X and y centred at their weighted means."""
    s = float(np.sum(w))
    Xc = X - w @ X / s
    return Xc.T @ (w[:, None] * Xc), Xc.T @ (w * (y - float(w @ y) / s))


def ridged_gram(X, T, y):
    """:func:`centred_gram` of the experts of weights ``T`` (..., n), with
    the ridge ``p * eps * G_jj`` on each diagonal entry of G (1 where
    ``G_jj`` is 0): the problems the library's expert update solves,
    formed with the products it forms them with, so with the same bits:
    root-weighted deviations ``D = (x - m) sqrt(tau)`` from the weighted
    means ``m``, ``G = D D'`` and ``c = D Yc'`` with the root-weighted
    centred responses ``Yc = (y - ybar) sqrt(tau)``."""
    T = np.asarray(T, dtype=float)
    p = X.shape[1]
    nk = T.sum(axis=-1)
    root = np.sqrt(T)[..., None, :]
    D = (np.ascontiguousarray(X.T) - ((T @ X) / nk[..., None])[..., None]) * root
    G = D @ np.swapaxes(D, -1, -2)
    diagonal = np.diagonal(G, axis1=-2, axis2=-1)
    G[..., np.arange(p), np.arange(p)] += np.where(
        diagonal > 0.0, p * np.finfo(float).eps * diagonal, 1.0)
    ybar = np.einsum("...n,...n->...", T[..., None, :], y[None]) / nk[..., None]
    Yc = (y[None] - ybar[..., None]) * root
    return G, (D @ np.swapaxes(Yc, -1, -2))[..., 0]


def lasso_certified(G, c, eta, x, rounding=0.0) -> bool:
    """The KKT certificate of ``x`` for ``0.5 x'Gx - c'x + eta |x|_1`` by
    exact comparisons off the support: ``|c_j - G_j x| <= eta`` where
    ``x_j == 0``, or with ``rounding`` that many of the largest term more;
    on the support, stationarity ``c_j - G_j x = eta sign(x_j)`` to 1e-9 of
    the largest term, because a solve rounds there."""
    grad = c - G @ x
    on = x != 0.0
    scale = np.abs(c).max() + np.abs(G).max() * np.abs(x).max() + eta
    return bool(np.isfinite(x).all()
                and (np.abs(grad[~on]) <= eta + rounding * scale).all()
                and (np.abs(grad[on] - eta * np.sign(x[on])) <= 1e-9 * scale).all())


def penalized_gate_mean_grid(xj: np.ndarray, tau: np.ndarray, nu2: float,
                             gamma: float, lo: float = -10.0, hi: float = 10.0,
                             npts: int = 400001) -> float:
    """Brute-force maximizer of the per-coordinate penalized gating objective
    -sum_i tau_i (x_ij - m)^2 / (2 nu2) - gamma |m| over a fine grid."""
    grid = np.linspace(lo, hi, npts)
    if 0.0 not in grid:
        grid = np.sort(np.append(grid, 0.0))
    # one row per grid point: an (npts, n) temporary
    vals = -(np.sum(tau * (xj - grid[:, None]) ** 2, axis=1) / (2.0 * nu2)
             + gamma * np.abs(grid))
    return float(grid[int(np.argmax(vals))])


def mahalanobis_three_branch(diff, cov, chol, out=None, filled=False):
    """``model._mahalanobis`` as it was with its own branch for 1 x 1 full
    covariances (the reciprocal of the factor, the one squared term) and
    the general one squaring the whitened deviations in place and summing
    them over m: the reference its single reduction must match bit for
    bit.  Returns ``(const, Q)``."""
    from mogge.model import LOG_2PI

    m = diff.shape[-2]
    if chol is None:
        sq = diff if filled else np.multiply(diff, diff, out=diff)
        return (m * LOG_2PI + np.log(cov).sum(axis=-1),
                ((1.0 / cov)[..., None, :] @ sq)[..., 0, :])
    if m == 1:
        Z = np.multiply(1.0 / chol, diff, out=out)[..., 0, :]
        return LOG_2PI + 2.0 * np.log(chol[..., 0, 0]), Z * Z
    Z = np.matmul(np.linalg.solve(chol, np.eye(m)), diff, out=out)
    Z *= Z
    return m * LOG_2PI + 2.0 * np.log(chol.diagonal(0, -2, -1)).sum(axis=-1), Z.sum(axis=-2)


def floor_one_by_one(S):
    """``em._floor_spd``'s own floor of a stack of 1 x 1 matrices: each
    entry, or the variance floor if it is below it."""
    from mogge.model import VARIANCE_FLOOR

    return np.maximum(S, VARIANCE_FLOOR)


def partition_params(data, labels, K: int, diagonal: bool):
    """Empirical per-group parameters of one hard assignment ``labels``
    (n,), built through the checked constructors, gating then expert of
    each group: the construction the fits' seeded stacks replaced.  The
    groups are one-hot responsibilities ``W`` (K, n); the means come from
    ``W X``, the covariances from the syrk of the masked deviations
    ``D = (x - mu) W`` plus the jitter, and the experts solve their normal
    equations against the centred moments, with the ridge on the
    coefficients only, and take the intercept ``ybar - b'mu``.  The
    arithmetic and its guards are the library's, so the bits must match."""
    from mogge.em import GRAM_RIDGE, _floor_spd
    from mogge.model import ExpertComponent, GatingComponent, MoggeParams, _dot, _sum_products

    XT, YT = np.ascontiguousarray(data.X.T), np.ascontiguousarray(data.Y.T)
    W = (labels == np.arange(K)[:, None]).astype(float)
    nk = W.sum(axis=1)
    mu = _dot(W, data.X) / nk[:, None]
    D = (XT - mu[:, :, None]) * W[:, None, :]
    C = _dot(D, np.swapaxes(D, 1, 2))
    ybar = _sum_products(W[:, None, :], YT) / nk[:, None]
    Yc = (YT - ybar[:, :, None]) * W[:, None, :]
    gating, experts = [], []
    for k in range(K):
        if diagonal:
            R = np.diagonal(C[k]) / nk[k] + 1e-6
        else:
            R = C[k] / nk[k] + 1e-6 * np.eye(data.p)
        gating.append(GatingComponent(alpha=nk[k] / data.n, mu=mu[k], R=R))
        B = np.linalg.solve(C[k] + GRAM_RIDGE * np.eye(data.p), _dot(D[k], Yc[k].T))
        E = Yc[k] - B.T @ D[k]
        experts.append(ExpertComponent(intercept=ybar[k] - _sum_products(B.T, mu[k]),
                                       coeffs=B, cov=_floor_spd(_dot(E, E.T) / nk[k])))
    return MoggeParams(gating=tuple(gating), experts=tuple(experts))


def classification_rate_bruteforce(true_labels, est_labels, K: int) -> float:
    """Max agreement over all label permutations, by direct enumeration."""
    true_labels = np.asarray(true_labels)
    est_labels = np.asarray(est_labels)
    best = 0.0
    for perm in itertools.permutations(range(1, K + 1)):
        mapped = np.array([perm[lbl - 1] for lbl in est_labels])
        best = max(best, float(np.mean(mapped == true_labels)))
    return best


def ari_pair_counting(true_labels, est_labels) -> float:
    """ARI via explicit O(n^2) pair counting (no contingency table)."""
    true_labels = np.asarray(true_labels)
    est_labels = np.asarray(est_labels)
    n = len(true_labels)
    a = b = c = d = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_t = true_labels[i] == true_labels[j]
            same_e = est_labels[i] == est_labels[j]
            if same_t and same_e:
                a += 1
            elif same_t:
                c += 1
            elif same_e:
                d += 1
            else:
                b += 1
    total = a + b + c + d
    expected = (a + c) * (a + d) / total
    max_index = 0.5 * ((a + c) + (a + d))
    if max_index == expected:
        return 1.0
    return (a - expected) / (max_index - expected)


def kkt_residuals_expert(X, y, tau_k, beta, sigma2, lam):
    """Subgradient residuals of the weighted lasso with an unpenalized
    intercept at beta, and at the intercept that minimizes it given beta,
    the weighted mean of ``y - X beta``, where the intercept's own
    condition holds exactly.

    For each coordinate: 0 when the condition holds exactly; otherwise the
    distance to the admissible subgradient set.
    """
    p = X.shape[1]
    out = np.zeros(p)
    intercept = float(tau_k @ (y - X @ beta)) / float(np.sum(tau_k))
    r_full = y - intercept - X @ beta
    for j in range(p):
        r_j = r_full + beta[j] * X[:, j]
        num = float(X[:, j] @ (tau_k * r_j))
        denom = float(X[:, j] @ (tau_k * X[:, j]))
        if beta[j] == 0.0:
            out[j] = max(0.0, abs(num) - lam * sigma2)
        else:
            out[j] = abs(num - beta[j] * denom - lam * sigma2 * np.sign(beta[j]))
    return out


def exact_weighted_lasso_on_active_set(X, y, w, sigma2, lam, beta_ca):
    """Exact subproblem solution restricted to a CA solution's sign pattern.

    Solves the stationarity system of the unpenalized intercept and the
    active coefficients together, on the columns ``[1, X_A]``; returns the
    coefficients, or None when the solve flips a sign (pattern invalid).
    """
    active = np.flatnonzero(beta_ca != 0.0)
    beta = np.zeros(X.shape[1])
    signs = np.sign(beta_ca[active])
    A = np.column_stack([np.ones(len(y)), X[:, active]])
    rhs = A.T @ (w * y) - lam * sigma2 * np.concatenate([[0.0], signs])
    beta[active] = np.linalg.solve(A.T @ (w[:, None] * A), rhs)[1:]
    if np.any(np.sign(beta[active]) != signs):
        return None
    return beta


def kkt_residuals_gate(X, tau_k, mu, nu2, gamma):
    """Subgradient residuals of the penalized gating-mean problem at mu."""
    p = X.shape[1]
    out = np.zeros(p)
    s = float(np.sum(tau_k))
    for j in range(p):
        num = float(X[:, j] @ tau_k)
        if mu[j] == 0.0:
            out[j] = max(0.0, abs(num) - gamma * nu2[j])
        else:
            out[j] = abs(num - mu[j] * s - gamma * nu2[j] * np.sign(mu[j]))
    return out


def grid_search_per_row(data, grid, opts, warm_start=True):
    """The grid search as one public fit per row: ``fit_em_lasso`` on each
    (K, lambda, gamma) triplet, ``count_df`` on the checked parameters,
    the rows in decreasing penalty order, and the max-BIC row by
    ``_selection_order``.  Cold, every row runs the seeded starts.  Warm,
    each row is warm-started from its source, the parameters of an
    earlier row that did not fail: at the smallest gamma, the rows form a
    chain over decreasing lambda, each from the last chain row before it;
    at every further gamma, in increasing order, each row starts from the
    last row of its lambda, or, with none, from its chain row's source;
    a row with no source at all runs the seeded starts."""
    from mogge.em_lasso import PenaltyConfig, fit_em_lasso
    from mogge.model import FitFailedError
    from mogge.selection import SelectionRow, SelectionTable, _selection_order, count_df

    rows, fits = [], []
    logn_half = math.log(data.n) / 2.0
    pairs = sorted(((lam, gamma) for lam in grid.lambdas for gamma in grid.gammas),
                   key=lambda t: (-t[0], -t[1]))
    lambdas, gammas = sorted(grid.lambdas, reverse=True), sorted(grid.gammas)
    for K in grid.Ks:
        done, source, chain = {}, {}, None
        for gamma in gammas:
            for lam in lambdas:
                if gamma == gammas[0]:
                    source[lam] = chain
                try:
                    fit = fit_em_lasso(data, K, PenaltyConfig(lam=lam, gamma=gamma), opts,
                                       warm_start=source[lam] if warm_start else None)
                except FitFailedError as exc:
                    done[lam, gamma] = SelectionRow(K, lam, gamma, float("nan"), 0,
                                                    float("nan"), False, failure=exc), None
                    continue
                df = count_df(fit.params)
                done[lam, gamma] = SelectionRow(K, lam, gamma, fit.loglik, df,
                                                fit.loglik - df * logn_half,
                                                fit.converged), fit
                source[lam] = fit.params
                if gamma == gammas[0]:
                    chain = fit.params
        for pair in pairs:
            rows.append(done[pair][0])
            fits.append(done[pair][1])
    selected = _selection_order(rows)
    return SelectionTable(rows=tuple(rows), selected=selected, best_fit=fits[selected])


def bit_digest(*outcomes) -> str:
    """sha256 over the bits of fit and selection outcomes, in order: of a
    ``FitResult`` every parameter array, the objective trace, the
    responsibilities and every count (``n_iter``, ``converged``,
    ``objective``, ``loglik``); of a ``SelectionTable`` every
    ``SelectionRow`` with its failure text and diagnoses, the selected
    index and the best fit; of an exception its type and text.  Equal
    digests mean equal bits, so two code paths can be proven to agree."""
    import hashlib

    from mogge.em import FitResult
    from mogge.selection import SelectionTable

    h = hashlib.sha256()

    def put(*values):
        for v in values:
            if isinstance(v, (str, bool, int)) or v is None:
                h.update(repr(v).encode())
            else:
                a = np.ascontiguousarray(v, dtype=float)
                h.update(repr(a.shape).encode() + a.tobytes())

    def put_fit(fit):
        for g, e in zip(fit.params.gating, fit.params.experts):
            put(g.alpha, g.mu, g.R, e.intercept, e.coeffs, e.cov)
        put(fit.loglik_trace, fit.responsibilities.tau, fit.n_iter, fit.converged,
            fit.objective, fit.loglik)

    for outcome in outcomes:
        put(type(outcome).__name__)
        if isinstance(outcome, FitResult):
            put_fit(outcome)
        elif isinstance(outcome, SelectionTable):
            for r in outcome.rows:
                put(r.K, r.lam, r.gamma, r.loglik, r.df, r.bic, r.converged)
                put(None if r.failure is None else str(r.failure),
                    *getattr(r.failure, "diagnoses", ()))
            put(outcome.selected)
            put_fit(outcome.best_fit)
        elif isinstance(outcome, BaseException):
            put(str(outcome), *getattr(outcome, "diagnoses", ()))
        else:
            raise TypeError(f"cannot digest a {type(outcome).__name__}")
    return h.hexdigest()
