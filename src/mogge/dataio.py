"""File formats: dataset CSV, parameter/scenario JSON, trace and table CSVs.

Floats are written with ``repr``, the shortest form that parses back to
the same value, so exact zeros stay ``0.0`` and every payload round-trips
bit-for-bit.  All writers go through a temp-file-plus-rename so partially
written files are never observed.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .model import DataSet, ExpertComponent, GatingComponent, MoggeParams
from .selection import SelectionTable
from .simulate import Scenario


def fmt(value) -> str:
    """Shortest round-trip representation for CSV cells."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return repr(float(value))


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _csv_text(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def dataset_csv_text(data: DataSet, labels=None) -> str:
    """Header ``x1..xp`` then ``y`` (or ``y1..yd``), plus an optional
    trailing 1-based ``label`` column."""
    header = [f"x{j + 1}" for j in range(data.p)]
    header += ["y"] if data.d == 1 else [f"y{j + 1}" for j in range(data.d)]
    if labels is not None:
        labels = np.asarray(labels, dtype=int)
        if labels.shape != (data.n,):
            raise ValueError("labels must have one entry per observation")
        header.append("label")
        rows = (
            list(data.X[i]) + list(data.Y[i]) + [int(labels[i])]
            for i in range(data.n)
        )
    else:
        rows = (list(data.X[i]) + list(data.Y[i]) for i in range(data.n))
    return _csv_text(header, rows)


def write_dataset_csv(path, data: DataSet, labels=None) -> None:
    atomic_write_text(path, dataset_csv_text(data, labels))


def _numbered_columns(path, header: list[str], prefix: str) -> list[int]:
    """Positions of the columns ``<prefix>1..<prefix>m`` in numeric order;
    the numbers must run from 1 without gaps or repeats."""
    found: dict[int, int] = {}
    for i, h in enumerate(header):
        if h.startswith(prefix) and h[len(prefix):].isdecimal():
            j = int(h[len(prefix):])
            if j in found:
                raise ValueError(f"{path}: column {prefix}{j} appears twice")
            found[j] = i
    numbers = sorted(found)
    if numbers != list(range(1, len(numbers) + 1)):
        raise ValueError(
            f"{path}: {prefix} columns must be numbered 1..{len(numbers)} "
            f"without gaps, got {', '.join(f'{prefix}{j}' for j in numbers)}"
        )
    return [found[j] for j in numbers]


def read_dataset_csv(path) -> tuple[DataSet, np.ndarray | None]:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty dataset file")
    header = lines[0].split(",")
    x_cols = _numbered_columns(path, header, "x")
    y_cols = _numbered_columns(path, ["y1" if h == "y" else h for h in header], "y")
    label_col = header.index("label") if "label" in header else None
    if not x_cols or not y_cols:
        raise ValueError(f"{path}: header must contain x1..xp and y columns")
    X, Y, labels = [], [], []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path}: row with {len(cells)} cells, expected {len(header)}")
        X.append([float(cells[i]) for i in x_cols])
        Y.append([float(cells[i]) for i in y_cols])
        if label_col is not None:
            labels.append(int(cells[label_col]))
    data = DataSet(X=np.array(X), Y=np.array(Y))
    return data, (np.array(labels) if label_col is not None else None)


def params_to_dict(params: MoggeParams) -> dict:
    gating = []
    for g in params.gating:
        entry = {"alpha": g.alpha, "mu": g.mu.tolist()}
        if g.is_diagonal:
            entry["cov_diagonal"] = g.R.tolist()
        else:
            entry["cov_full"] = g.R.tolist()
        gating.append(entry)
    experts = [
        {
            "intercept": e.intercept.tolist(),
            "coeffs": e.coeffs.tolist(),
            "cov": e.cov.tolist(),
        }
        for e in params.experts
    ]
    return {
        "K": params.K, "p": params.p, "d": params.d,
        "gating": gating, "experts": experts,
    }


def params_from_dict(obj: dict) -> MoggeParams:
    gating = []
    for entry in obj["gating"]:
        if "cov_diagonal" in entry:
            R = np.array(entry["cov_diagonal"])
        else:
            R = np.array(entry["cov_full"])
        gating.append(
            GatingComponent(alpha=entry["alpha"], mu=np.array(entry["mu"]), R=R)
        )
    experts = [
        ExpertComponent(
            intercept=np.array(e["intercept"]),
            coeffs=np.array(e["coeffs"]),
            cov=np.array(e["cov"]),
        )
        for e in obj["experts"]
    ]
    return MoggeParams(gating=tuple(gating), experts=tuple(experts))


def scenario_to_dict(scenario: Scenario, **extra) -> dict:
    out = {
        "n": scenario.n,
        "seed": scenario.seed,
        "true_params": params_to_dict(scenario.true_params),
    }
    out.update(extra)
    return out


def scenario_from_dict(obj: dict) -> Scenario:
    return Scenario(
        true_params=params_from_dict(obj["true_params"]),
        n=int(obj["n"]),
        seed=int(obj["seed"]),
    )


def write_trace_csv(path, trace) -> None:
    atomic_write_text(
        path,
        _csv_text(["iteration", "objective"], ((i, v) for i, v in enumerate(trace))),
    )


def write_selection_csv(path, table: SelectionTable) -> None:
    rows = (
        [r.K, r.lam, r.gamma, r.loglik, r.df, r.bic, r.converged, i == table.selected]
        for i, r in enumerate(table.rows)
    )
    atomic_write_text(
        path,
        _csv_text(
            ["K", "lambda", "gamma", "loglik", "df", "bic", "converged", "selected"],
            rows,
        ),
    )


def write_path_csv(path, rows) -> None:
    """Rows are (lambda, gamma, component, block, coordinate, estimate)."""
    atomic_write_text(
        path,
        _csv_text(
            ["lambda", "gamma", "component", "block", "coordinate", "estimate"],
            rows,
        ),
    )


def read_path_csv(path) -> list[dict]:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = lines[0].split(",")
    out = []
    for ln in lines[1:]:
        cells = dict(zip(header, ln.split(",")))
        out.append({
            "lambda": float(cells["lambda"]),
            "gamma": float(cells["gamma"]),
            "component": int(cells["component"]),
            "block": cells["block"],
            "coordinate": int(cells["coordinate"]),
            "estimate": float(cells["estimate"]),
        })
    return out
