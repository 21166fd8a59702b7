"""Command-line entry point.

Subcommands: ``simulate`` (replicate datasets from a scenario), ``fit``
(one EM or EM-Lasso fit), ``select`` (BIC grid search), ``lasso-path``
(coefficient trajectories over a penalty grid) and ``evaluate``
(clustering and zero-pattern metrics, optionally aggregated over
replicates).

Every option can also come from a JSON file via ``--config``; explicit
flags win over the file, which wins over built-in defaults.  Outputs are
written atomically, embed the resolved configuration and seeds, and are
byte-identical across reruns with the same inputs, whatever ``--jobs``.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import dataio
from .em import INIT_STRATEGIES, FitOptions, _integral, fit_em
from .em_lasso import PenaltyConfig, fit_em_lasso
from .metrics import (
    adjusted_rand_index,
    bayes_labels,
    classification_rate,
    sensitivity_specificity,
)
from .model import FitFailedError
from .selection import GridSpec, SelectionError, _chain, grid_search
from .simulate import (
    INTERCEPT_CONVENTIONS,
    Scenario,
    default_scenario,
    replicate_seed,
    sample_dataset,
)

_HANDLED_ERRORS = (ValueError, OSError, KeyError, FitFailedError, SelectionError)


# ---------------------------------------------------------------------------
# Config resolution: flag > config file > default
# ---------------------------------------------------------------------------

def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    cfg = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        file_cfg = dataio.read_json(config_path)
        unknown = sorted(set(file_cfg) - set(defaults))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        cfg.update(file_cfg)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _public_config(cfg: dict) -> dict:
    """Config echo for manifests, without the output location and the
    worker count, so outputs are byte-identical across both."""
    return {k: v for k, v in cfg.items() if k not in ("out_dir", "jobs")}


def _float_list(value) -> list[float]:
    if isinstance(value, str):
        return [float(v) for v in value.split(",") if v != ""]
    return [float(v) for v in value]


def _int_list(value) -> list:
    if isinstance(value, str):
        return [int(v) for v in value.split(",") if v != ""]
    return list(value)  # checked by GridSpec


def _out_dir(cfg) -> Path:
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fit_options(cfg) -> FitOptions:
    return FitOptions(
        max_iter=cfg["max_iter"],
        tol=float(cfg["tol"]),
        n_starts=cfg["n_starts"],
        seed=cfg["seed"],
        init_strategy=cfg["init"],
    )


# Defaults of the fitting knobs that fit, select and lasso-path share.
_FIT_KNOB_DEFAULTS = {
    "n_starts": FitOptions.n_starts, "max_iter": FitOptions.max_iter,
    "tol": FitOptions.tol, "init": FitOptions.init_strategy,
}


def _run_parallel(fn, items: list, jobs: int) -> list:
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

SIMULATE_DEFAULTS = {
    "out_dir": ".", "seed": None, "jobs": 1,
    "default_scenario": False, "scenario": None,
    "replicates": 1, "n": None, "intercept_convention": "zero",
}


def _simulate_replicate(item) -> tuple[str, str]:
    scenario, name = item
    data, labels = sample_dataset(scenario)
    return name, dataio.dataset_csv_text(data, labels)


def cmd_simulate(args) -> int:
    cfg = _resolve(args, SIMULATE_DEFAULTS)
    replicates = _integral("replicates", cfg["replicates"])
    if replicates < 1:
        raise ValueError("--replicates must be at least 1")
    jobs = _integral("jobs", cfg["jobs"])
    # n and the seed: the flag or config value, else the scenario file's,
    # else the built-in scenario's defaults
    n = None if cfg["n"] is None else _integral("n", cfg["n"])
    seed = None if cfg["seed"] is None else _integral("seed", cfg["seed"])
    if cfg["scenario"]:
        base = dataio.scenario_from_dict(dataio.read_json(cfg["scenario"]))
        n = n if n is not None else base.n
        seed = seed if seed is not None else base.seed
        base = Scenario(true_params=base.true_params, n=n, seed=seed)
    elif cfg["default_scenario"]:
        n = n if n is not None else 300
        seed = seed if seed is not None else 0
        base = default_scenario(
            n=n, seed=seed, intercept_convention=cfg["intercept_convention"]
        )
    else:
        raise ValueError("provide --default-scenario or --scenario FILE")
    cfg["seed"] = base.seed  # the manifest records the seed used

    out = _out_dir(cfg)
    rep_seeds = [replicate_seed(seed, r) for r in range(replicates)]
    items = [
        (Scenario(true_params=base.true_params, n=base.n, seed=rep_seeds[r]),
         f"data_{r + 1:04d}.csv")
        for r in range(replicates)
    ]
    names = []
    for name, text in _run_parallel(_simulate_replicate, items, jobs):
        dataio.atomic_write_text(out / name, text)
        names.append(name)
    scenario_dict = dataio.scenario_to_dict(
        base, intercept_convention=cfg["intercept_convention"]
    )
    dataio.write_json(out / "scenario.json", scenario_dict)
    dataio.write_json(out / "manifest.json", {
        "command": "simulate",
        "config": _public_config(cfg),
        "replicate_seeds": rep_seeds,
        "files": names,
        "scenario": scenario_dict,
    })
    return 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

FIT_DEFAULTS = {
    "out_dir": ".", "seed": 0,
    "data": None, "k": 2, "lam": None, "gamma": None,
    "diagonal_gating": False, **_FIT_KNOB_DEFAULTS,
}


def cmd_fit(args) -> int:
    cfg = _resolve(args, FIT_DEFAULTS)
    if not cfg["data"]:
        raise ValueError("--data is required")
    data, _ = dataio.read_dataset_csv(cfg["data"])
    opts = _fit_options(cfg)
    K = _integral("k", cfg["k"])
    penalized = cfg["lam"] is not None or cfg["gamma"] is not None
    if penalized:
        penalty = PenaltyConfig(lam=float(cfg["lam"] or 0.0), gamma=float(cfg["gamma"] or 0.0))
        fit = fit_em_lasso(data, K, penalty, opts)
        engine = "em-lasso"
    else:
        fit = fit_em(data, K, opts, diagonal_gating=bool(cfg["diagonal_gating"]))
        engine = "em"
    out = _out_dir(cfg)
    dataio.write_json(out / "params.json", dataio.params_to_dict(fit.params))
    dataio.write_trace_csv(out / "trace.csv", fit.loglik_trace)
    dataio.write_json(out / "summary.json", {
        "command": "fit",
        "engine": engine,
        "config": _public_config(cfg),
        "converged": bool(fit.converged),
        "n_iter": int(fit.n_iter),
        "objective": float(fit.objective),
    })
    return 0


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------

SELECT_DEFAULTS = {
    "out_dir": ".", "seed": 0,
    "data": None, "ks": [2],
    "lambdas": [float(v) for v in range(26)],
    "gammas": [float(v) for v in range(26)],
    "cold_start": False, **_FIT_KNOB_DEFAULTS,
}


def cmd_select(args) -> int:
    cfg = _resolve(args, SELECT_DEFAULTS)
    if not cfg["data"]:
        raise ValueError("--data is required")
    data, _ = dataio.read_dataset_csv(cfg["data"])
    grid = GridSpec(
        Ks=tuple(_int_list(cfg["ks"])),
        lambdas=tuple(_float_list(cfg["lambdas"])),
        gammas=tuple(_float_list(cfg["gammas"])),
    )
    table = grid_search(data, grid, opts=_fit_options(cfg),
                        warm_start=not bool(cfg["cold_start"]))
    out = _out_dir(cfg)
    dataio.write_selection_csv(out / "selection.csv", table)
    dataio.write_json(
        out / "best_params.json", dataio.params_to_dict(table.best_fit.params)
    )
    row = table.selected_row
    dataio.write_json(out / "summary.json", {
        "command": "select",
        "config": _public_config(cfg),
        "selected": {
            "K": row.K, "lambda": row.lam, "gamma": row.gamma,
            "loglik": row.loglik, "df": row.df, "bic": row.bic,
        },
        "n_rows": len(table.rows),
        "n_failed": sum(1 for r in table.rows if r.failure is not None),
        "n_unconverged": sum(1 for r in table.rows if r.failure is None and not r.converged),
    })
    return 0


# ---------------------------------------------------------------------------
# lasso-path
# ---------------------------------------------------------------------------

PATH_DEFAULTS = {
    "out_dir": ".", "seed": 0,
    "data": None, "k": 2,
    "penalties": None, "lambdas": None, "gammas": None,
    "lam": None, "gamma": None, "ratios": None, "max_penalty": None,
    **_FIT_KNOB_DEFAULTS,
}


def _path_pairs(cfg) -> list[tuple[float, float]]:
    given = [k for k in ("penalties", "lambdas", "gammas", "ratios") if cfg[k] is not None]
    if len(given) != 1:
        raise ValueError(
            "provide exactly one of --penalties, --lambdas, --gammas or --ratios"
        )
    kind = given[0]
    if kind == "penalties":
        values = _float_list(cfg["penalties"])
        pairs = [(v, v) for v in values]
    elif kind == "lambdas":
        fixed = float(cfg["gamma"] or 0.0)
        pairs = [(v, fixed) for v in _float_list(cfg["lambdas"])]
    elif kind == "gammas":
        fixed = float(cfg["lam"] or 0.0)
        pairs = [(fixed, v) for v in _float_list(cfg["gammas"])]
    else:
        if cfg["max_penalty"] is None:
            raise ValueError("--ratios requires --max-penalty")
        top = float(cfg["max_penalty"])
        pairs = [(r * top, r * top) for r in _float_list(cfg["ratios"])]
    if not pairs:
        raise ValueError("empty penalty grid")
    if len(set(pairs)) != len(pairs):
        raise ValueError("penalty grid contains duplicates")
    return sorted(pairs, key=lambda t: (-t[0], -t[1]))


def _path_rows(lam: float, gamma: float, params) -> list[tuple]:
    rows = []
    for k, (g, e) in enumerate(zip(params.gating, params.experts), start=1):
        for block, values in (("gate_mean", g.mu), ("gate_variance", g.R),
                              ("expert_coeff", e.beta)):
            rows.extend((lam, gamma, k, block, j, v) for j, v in enumerate(values.tolist(), 1))
        rows.append((lam, gamma, k, "expert_intercept", 0, float(e.intercept[0])))
        rows.append((lam, gamma, k, "expert_variance", 0, e.variance))
    return rows


def cmd_lasso_path(args) -> int:
    cfg = _resolve(args, PATH_DEFAULTS)
    if not cfg["data"]:
        raise ValueError("--data is required")
    data, _ = dataio.read_dataset_csv(cfg["data"])
    rows, points = [], []
    # warm continuation keeps the path smooth, but continuing out of a fully shrunk
    # model can lose the cluster structure: every point also runs the cold starts
    for lam, gamma, run in _chain(data, _integral("k", cfg["k"]), _path_pairs(cfg),
                                  _fit_options(cfg), warm=True, refit=True):
        if isinstance(run, FitFailedError):
            raise run
        fit = run.result()
        rows.extend(_path_rows(lam, gamma, fit.params))
        points.append({
            "lambda": lam, "gamma": gamma,
            "converged": bool(fit.converged),
            "objective": float(fit.objective),
            "params": dataio.params_to_dict(fit.params),
        })
    out = _out_dir(cfg)
    dataio.write_path_csv(out / "path.csv", rows)
    dataio.write_json(out / "path_params.json", points)
    dataio.write_json(out / "summary.json", {
        "command": "lasso-path",
        "config": _public_config(cfg),
        "n_points": len(points),
        "n_converged": sum(1 for pt in points if pt["converged"]),
    })
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

EVALUATE_DEFAULTS = {
    "out_dir": ".", "jobs": 1,
    "params": None, "data": None, "true_params": None,
}


def _load_true_params(path):
    obj = dataio.read_json(path)
    if "true_params" in obj:
        return dataio.params_from_dict(obj["true_params"])
    return dataio.params_from_dict(obj)


def _evaluate_pair(item) -> tuple[dict, list[str]]:
    params_path, data_path, true_params = item
    est = dataio.params_from_dict(dataio.read_json(params_path))
    data, labels = dataio.read_dataset_csv(data_path)
    record = {
        "params_file": Path(params_path).name,
        "data_file": Path(data_path).name,
        "classification_rate": None,
        "ari": None,
        "sparsity": None,
    }
    warnings = []
    if labels is not None:
        est_labels = bayes_labels(data, est)
        record["classification_rate"] = classification_rate(
            labels, est_labels, K=est.K
        )
        record["ari"] = adjusted_rand_index(labels, est_labels)
    else:
        warnings.append(
            f"{Path(data_path).name}: no label column; clustering metrics skipped"
        )
    if true_params is not None:
        report = sensitivity_specificity(
            true_params, est, data=data, true_labels=labels
        )
        record["sparsity"] = {
            name: {"s1": b.s1, "s2": b.s2}
            for name, b in report.summary().items()
        }
    return record, warnings


def _aggregate(values: list[float]) -> dict:
    arr = np.array(values, dtype=float)
    return {
        "mean": float(arr.mean()),
        "sd": float(arr.std(ddof=1)) if arr.size > 1 else None,
        "n": int(arr.size),
    }


def cmd_evaluate(args) -> int:
    cfg = _resolve(args, EVALUATE_DEFAULTS)
    params_paths = cfg["params"] or []
    data_paths = cfg["data"] or []
    jobs = _integral("jobs", cfg["jobs"])
    if isinstance(params_paths, str):
        params_paths = [params_paths]
    if isinstance(data_paths, str):
        data_paths = [data_paths]
    if not params_paths or len(params_paths) != len(data_paths):
        raise ValueError("--params and --data must be given the same number of times")
    true_params = _load_true_params(cfg["true_params"]) if cfg["true_params"] else None

    items = [
        (p, d, true_params) for p, d in zip(params_paths, data_paths)
    ]
    results = _run_parallel(_evaluate_pair, items, jobs)
    records = [rec for rec, _ in results]
    warnings = [w for _, ws in results for w in ws]

    aggregate = {}
    for key in ("classification_rate", "ari"):
        values = [r[key] for r in records if r[key] is not None]
        if values:
            aggregate[key] = _aggregate(values)
    if true_params is not None and records:
        sparsity_agg = {}
        for name in records[0]["sparsity"]:
            for field in ("s1", "s2"):
                values = [
                    r["sparsity"][name][field] for r in records
                    if r["sparsity"] and r["sparsity"][name][field] is not None
                ]
                if values:
                    sparsity_agg[f"{field}_{name}"] = _aggregate(values)
        aggregate["sparsity"] = sparsity_agg

    out = _out_dir(cfg)
    dataio.write_json(out / "metrics.json", {
        "command": "evaluate",
        "config": _public_config(cfg),
        "replicates": records,
        "aggregate": aggregate,
        "warnings": warnings,
    })
    header = ["params_file", "data_file", "classification_rate", "ari"]
    block_names = sorted(records[0]["sparsity"]) if records[0]["sparsity"] else []
    for name in block_names:
        header += [f"s1_{name}", f"s2_{name}"]
    csv_rows = []
    for r in records:
        row = [r["params_file"], r["data_file"], r["classification_rate"], r["ari"]]
        for name in block_names:
            row += [r["sparsity"][name]["s1"], r["sparsity"][name]["s2"]]
        csv_rows.append(row)
    dataio.atomic_write_text(out / "metrics.csv", dataio._csv_text(header, csv_rows))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, seed: bool = True,
                jobs: bool = False) -> None:
    p.add_argument("--config", help="JSON file with defaults for any option")
    p.add_argument("--out-dir", dest="out_dir", help="output directory")
    if seed:
        p.add_argument("--seed", type=int, help="master seed")
    if jobs:
        p.add_argument("--jobs", type=int, help="parallel replicate workers")


def _add_fit_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-starts", dest="n_starts", type=int)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--init", choices=INIT_STRATEGIES)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mogge",
        description="Gaussian-gated mixture-of-experts: simulation, EM and "
                    "EM-Lasso fitting, BIC selection and evaluation.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("simulate", help="write replicate datasets from a scenario")
    _add_common(p, jobs=True)
    p.add_argument("--default-scenario", dest="default_scenario",
                   action="store_true", default=None,
                   help="use the built-in two-component benchmark scenario")
    p.add_argument("--scenario", help="scenario JSON file")
    p.add_argument("--replicates", type=int)
    p.add_argument("--n", type=int, help="observations per replicate")
    p.add_argument("--intercept-convention", dest="intercept_convention",
                   choices=INTERCEPT_CONVENTIONS)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit one model by EM or EM-Lasso")
    _add_common(p)
    p.add_argument("--data", help="dataset CSV")
    p.add_argument("--k", type=int)
    p.add_argument("--lambda", dest="lam", type=float,
                   help="expert-coefficient penalty (selects EM-Lasso)")
    p.add_argument("--gamma", type=float,
                   help="gating-mean penalty (selects EM-Lasso)")
    p.add_argument("--diagonal-gating", dest="diagonal_gating",
                   action="store_true", default=None)
    _add_fit_options(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("select", help="BIC grid search over (K, lambda, gamma)")
    _add_common(p)
    p.add_argument("--data")
    p.add_argument("--ks", help="comma-separated K values")
    p.add_argument("--lambdas", help="comma-separated penalty values")
    p.add_argument("--gammas", help="comma-separated penalty values")
    p.add_argument("--cold-start", dest="cold_start", action="store_true",
                   default=None, help="refit every grid point from scratch")
    _add_fit_options(p)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("lasso-path", help="coefficient paths over a penalty grid, one warm "
                       "chain; each point also runs the cold starts, the best wins")
    _add_common(p)
    p.add_argument("--data")
    p.add_argument("--k", type=int)
    p.add_argument("--penalties", help="values applied to both penalties")
    p.add_argument("--lambdas", help="lambda path values (gamma fixed)")
    p.add_argument("--gammas", help="gamma path values (lambda fixed)")
    p.add_argument("--lambda", dest="lam", type=float, help="fixed lambda")
    p.add_argument("--gamma", type=float, help="fixed gamma")
    p.add_argument("--ratios", help="fractions of --max-penalty")
    p.add_argument("--max-penalty", dest="max_penalty", type=float)
    _add_fit_options(p)
    p.set_defaults(func=cmd_lasso_path)

    p = sub.add_parser("evaluate", help="clustering / zero-pattern metrics")
    _add_common(p, seed=False, jobs=True)
    p.add_argument("--params", action="append", help="fitted params JSON (repeatable)")
    p.add_argument("--data", action="append", help="dataset CSV (repeatable)")
    p.add_argument("--true-params", dest="true_params",
                   help="scenario or params JSON with the ground truth")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except _HANDLED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        failure = exc if isinstance(exc, FitFailedError) else exc.__cause__
        for diagnosis in getattr(failure, "diagnoses", ()):
            print(f"  {diagnosis}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
