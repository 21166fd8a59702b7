"""Snapshot of the library boundary: the signature of every function in
``mogge.__all__`` and the public field names of every dataclass there.

A change to the boundary shows up as an edit to the tables below.
"""

import dataclasses
import inspect

import mogge

SIGNATURES = {
    "gaussian_logpdf": "(v, mean, cov) -> 'float'",
    "gating_probs": "(x, params: 'MoggeParams') -> 'np.ndarray'",
    "conditional_density": "(y, x, params: 'MoggeParams') -> 'float'",
    "joint_loglik": "(data: 'DataSet', params: 'MoggeParams') -> 'float'",
    "penalized_loglik": (
        "(data: 'DataSet', params: 'MoggeParams', lam: 'float', "
        "gamma: 'float') -> 'float'"
    ),
    "posterior_responsibilities": (
        "(data: 'DataSet', params: 'MoggeParams') -> 'Responsibilities'"
    ),
    "init_params": (
        "(data: 'DataSet', K: 'int', strategy: 'str' = 'random-partition', "
        "seed: 'int' = 0, diagonal_gating: 'bool' = False) -> 'MoggeParams'"
    ),
    "m_step_gating": (
        "(data: 'DataSet', tau: 'Responsibilities', "
        "diagonal: 'bool' = False) -> 'list[GatingComponent]'"
    ),
    "m_step_experts": (
        "(data: 'DataSet', tau: 'Responsibilities', "
        "experts_prev: 'tuple[ExpertComponent, ...]') -> 'list[ExpertComponent]'"
    ),
    "fit_em": (
        "(data: 'DataSet', K: 'int', opts: 'FitOptions | None' = None, "
        "diagonal_gating: 'bool' = False) -> 'FitResult'"
    ),
    "soft_threshold": "(u, eta)",
    "ca_update_gating_means": (
        "(data: 'DataSet', tau: 'Responsibilities', "
        "gating_prev: 'tuple[GatingComponent, ...]', "
        "gamma: 'float') -> 'list[np.ndarray]'"
    ),
    "update_gating_variances": (
        "(data: 'DataSet', tau: 'Responsibilities', "
        "mu_new: 'list[np.ndarray]') -> 'list[np.ndarray]'"
    ),
    "ca_update_expert_coeffs": (
        "(data: 'DataSet', tau_k: 'np.ndarray', "
        "expert_prev: 'ExpertComponent', lam: 'float', "
        "ca_max_iter: 'int' = 100, ca_tol: 'float' = 1e-07) -> 'np.ndarray'"
    ),
    "update_expert_intercept_variance": (
        "(data: 'DataSet', tau_k: 'np.ndarray', "
        "beta_new: 'np.ndarray') -> 'tuple[float, float]'"
    ),
    "fit_em_lasso": (
        "(data: 'DataSet', K: 'int', penalty: 'PenaltyConfig', "
        "opts: 'FitOptions | None' = None, "
        "warm_start: 'MoggeParams | None' = None) -> 'FitResult'"
    ),
    "count_df": "(params: 'MoggeParams') -> 'int'",
    "modified_bic": "(data: 'DataSet', fit: 'FitResult') -> 'float'",
    "grid_search": (
        "(data: 'DataSet', grid: 'GridSpec', "
        "opts: 'FitOptions | None' = None, ca_max_iter: 'int' = 100, "
        "ca_tol: 'float' = 1e-07, "
        "warm_start: 'bool' = True) -> 'SelectionTable'"
    ),
    "default_scenario": (
        "(n: 'int' = 300, seed: 'int' = 0, "
        "intercept_convention: 'str' = 'zero') -> 'Scenario'"
    ),
    "sample_dataset": "(scenario: 'Scenario') -> 'tuple[DataSet, np.ndarray]'",
    "replicate_seed": "(seed: 'int', replicate: 'int') -> 'int'",
    "bayes_labels": "(data: 'DataSet', params: 'MoggeParams') -> 'np.ndarray'",
    "best_label_permutation": "(true_labels, est_labels, K: 'int')",
    "classification_rate": "(true_labels, est_labels, K: 'int') -> 'float'",
    "adjusted_rand_index": "(true_labels, est_labels) -> 'float'",
    "match_components": "(reference: 'MoggeParams', est: 'MoggeParams') -> 'list[int]'",
    "sensitivity_specificity": (
        "(true_params: 'MoggeParams', est_params: 'MoggeParams', "
        "data: 'DataSet | None' = None, true_labels=None) -> 'SparsityReport'"
    ),
}

DATACLASS_FIELDS = {
    "DataSet": ("X", "Y"),
    "GatingComponent": ("alpha", "mu", "R"),
    "ExpertComponent": ("intercept", "coeffs", "cov"),
    "MoggeParams": ("gating", "experts"),
    "Responsibilities": ("tau",),
    "FitOptions": ("max_iter", "tol", "n_starts", "seed", "init_strategy"),
    "FitResult": (
        "params", "loglik_trace", "responsibilities", "n_iter", "converged",
        "objective", "loglik",
    ),
    "PenaltyConfig": ("lam", "gamma", "ca_max_iter", "ca_tol"),
    "GridSpec": ("Ks", "lambdas", "gammas"),
    "SelectionRow": ("K", "lam", "gamma", "loglik", "df", "bic", "converged"),
    "SelectionTable": ("rows", "selected", "best_fit"),
    "Scenario": ("true_params", "n", "seed"),
    "BlockScore": ("kind", "component", "s1", "s2", "n_true_zero", "n_true_nonzero"),
    "SparsityReport": ("blocks",),
}


def _exported(predicate):
    return {name for name in mogge.__all__ if predicate(getattr(mogge, name))}


def test_function_signatures():
    assert _exported(inspect.isfunction) == set(SIGNATURES)
    for name, expected in SIGNATURES.items():
        assert str(inspect.signature(getattr(mogge, name))) == expected, name


def test_dataclass_fields():
    assert _exported(dataclasses.is_dataclass) == set(DATACLASS_FIELDS)
    for name, expected in DATACLASS_FIELDS.items():
        fields = dataclasses.fields(getattr(mogge, name))
        public = tuple(f.name for f in fields if not f.name.startswith("_"))
        assert public == expected, name
