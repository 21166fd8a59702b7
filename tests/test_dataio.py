import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from mogge import dataio
from mogge.em import FitOptions
from mogge.em_lasso import PenaltyConfig, fit_em_lasso
from mogge.model import DataSet, ExpertComponent, GatingComponent, MoggeParams
from mogge.selection import SelectionRow, SelectionTable
from mogge.simulate import default_scenario, sample_dataset

from conftest import random_params


class TestFmt:
    def test_roundtrip_floats(self):
        for v in (1 / 3, 0.1, -2.5e-17, 1e300):
            assert float(dataio.fmt(v)) == v

    def test_exact_zero(self):
        assert dataio.fmt(0.0) == "0.0"

    def test_ints_and_bools(self):
        assert dataio.fmt(3) == "3"
        assert dataio.fmt(True) == "true"
        assert dataio.fmt(None) == ""


class TestDatasetCsv:
    def test_roundtrip_with_labels(self, tmp_path):
        rng = np.random.default_rng(0)
        data = DataSet(X=rng.normal(size=(7, 3)), Y=rng.normal(size=7))
        labels = rng.integers(1, 3, size=7)
        path = tmp_path / "d.csv"
        dataio.write_dataset_csv(path, data, labels)
        back, back_labels = dataio.read_dataset_csv(path)
        assert np.array_equal(back.X, data.X)
        assert np.array_equal(back.Y, data.Y)
        assert np.array_equal(back_labels, labels)

    def test_roundtrip_without_labels(self, tmp_path):
        rng = np.random.default_rng(1)
        data = DataSet(X=rng.normal(size=(4, 2)), Y=rng.normal(size=(4, 2)))
        path = tmp_path / "d.csv"
        dataio.write_dataset_csv(path, data)
        back, back_labels = dataio.read_dataset_csv(path)
        assert np.array_equal(back.Y, data.Y)
        assert back_labels is None

    def test_header_layout(self, tmp_path):
        data, labels = sample_dataset(default_scenario(n=5, seed=2))
        path = tmp_path / "d.csv"
        dataio.write_dataset_csv(path, data, labels)
        header = path.read_text().splitlines()[0]
        assert header == "x1,x2,x3,x4,x5,x6,x7,x8,y,label"

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,y\n1.0\n")
        with pytest.raises(ValueError):
            dataio.read_dataset_csv(path)
        path.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(ValueError):
            dataio.read_dataset_csv(path)

    def test_columns_ordered_by_number(self, tmp_path):
        canonical = tmp_path / "canonical.csv"
        canonical.write_text("x1,x2,y,label\n1.0,2.0,3.0,1\n4.0,5.0,6.0,2\n")
        permuted = tmp_path / "permuted.csv"
        permuted.write_text("label,y,x2,x1\n1,3.0,2.0,1.0\n2,6.0,5.0,4.0\n")
        data, labels = dataio.read_dataset_csv(canonical)
        back, back_labels = dataio.read_dataset_csv(permuted)
        assert np.array_equal(back.X, data.X)
        assert np.array_equal(back.Y, data.Y)
        assert np.array_equal(back_labels, labels)

    def test_header_cells_are_stripped(self, tmp_path):
        path = tmp_path / "spaced.csv"
        path.write_text("x1, x2,y\n1.0,2.0,3.0\n")
        data, _ = dataio.read_dataset_csv(path)
        assert data.p == 2
        assert np.array_equal(data.X, [[1.0, 2.0]])

    def test_unknown_header_cell_rejected(self, tmp_path):
        path = tmp_path / "extra.csv"
        path.write_text("x1,id,y\n1.0,7,3.0\n")
        with pytest.raises(ValueError, match="'id'"):
            dataio.read_dataset_csv(path)

    @pytest.mark.parametrize(
        "header", ["x1,x3,y", "x1,x1,y", "x2,x3,y", "x1,x2,y,y1", "x1,y1,y3"]
    )
    def test_gaps_and_duplicates_rejected(self, tmp_path, header):
        path = tmp_path / "bad.csv"
        cells = ",".join("1.0" for _ in header.split(","))
        path.write_text(f"{header}\n{cells}\n")
        with pytest.raises(ValueError):
            dataio.read_dataset_csv(path)

    @pytest.mark.parametrize("text, message", [
        ("", "empty dataset file"),
        ("\n  \n", "empty dataset file"),
        ("y,label\n3.0,1\n", "header must contain x1..xp and y columns"),
        ("x1,x2,label\n1.0,2.0,1\n", "header must contain x1..xp and y columns"),
    ], ids=["empty", "blank-lines", "no-x-columns", "no-y-column"])
    def test_empty_file_and_missing_columns_rejected(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"bad.csv: {message}"):
            dataio.read_dataset_csv(path)

    @pytest.mark.parametrize("body", [
        "1.0,2.0,3.0,1\n",            # row wider than the header
        "1.0,,1\n",                   # empty cell
        "1.0,abc,1\n",                # non-numeric cell
        "1.0,2.0,1.0\n",              # label that is not an integer
        "",                            # header only
    ])
    def test_bad_body_rejected(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text("x1,y,label\n" + body)
        with pytest.raises(ValueError, match="bad.csv"):
            dataio.read_dataset_csv(path)


# finite float64 cells, with the edge values a CSV writer may get wrong
CELLS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.5e-310, np.finfo(float).tiny, 1e308, -1e308]
)


@st.composite
def datasets(draw):
    n, p, d = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 2))
    block = draw(arrays(np.float64, (n, p + d), elements=CELLS))
    labels = draw(st.none() | arrays(
        np.int64, n, elements=st.integers(-2 ** 62, 2 ** 62)
    ))
    return DataSet(X=block[:, :p], Y=block[:, p:]), labels


class TestDatasetCsvRoundTrip:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(datasets())
    def test_bytes_and_bits(self, case):
        data, labels = case
        text = dataio.dataset_csv_text(data, labels)
        rows = np.hstack([data.X, data.Y])
        expected = [
            ",".join([repr(float(v)) for v in row]
                     + ([] if labels is None else [str(int(labels[i]))]))
            for i, row in enumerate(rows)
        ]
        assert text.splitlines()[1:] == expected
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            path.write_text(text)
            back, back_labels = dataio.read_dataset_csv(path)
        assert back.X.tobytes() == data.X.tobytes()
        assert back.Y.tobytes() == data.Y.tobytes()
        # row-major like the original, so fits on it round the same way
        assert back.X.flags.c_contiguous and back.Y.flags.c_contiguous
        if labels is None:
            assert back_labels is None
        else:
            assert back_labels.tolist() == labels.tolist()


class TestParamsJson:
    @staticmethod
    def _with_edge_values(params):
        """Copy with a -0.0 gating-mean entry and a subnormal coefficient."""
        g0, e0 = params.gating[0], params.experts[0]
        mu, coeffs = g0.mu.copy(), e0.coeffs.copy()
        mu[0] = -0.0
        coeffs[0, 0] = 5e-324
        return MoggeParams(
            gating=(GatingComponent(alpha=g0.alpha, mu=mu, R=g0.R),) + params.gating[1:],
            experts=(ExpertComponent(intercept=e0.intercept, coeffs=coeffs, cov=e0.cov),)
            + params.experts[1:],
        )

    def test_roundtrip_diagonal_and_full(self, tmp_path):
        rng = np.random.default_rng(3)
        cases = [
            self._with_edge_values(random_params(rng, K=2, p=3, d=d, diagonal=diagonal))
            for d in (1, 2) for diagonal in (True, False)
        ]
        data, _ = sample_dataset(default_scenario(n=120, seed=5))
        fitted = fit_em_lasso(
            data, 2, PenaltyConfig(lam=10.0, gamma=10.0), FitOptions(n_starts=1)
        ).params
        assert any(np.any(e.coeffs == 0.0) for e in fitted.experts)
        cases.append(fitted)
        for i, params in enumerate(cases):
            path = tmp_path / f"params_{i}.json"
            dataio.write_json(path, dataio.params_to_dict(params))
            back = dataio.params_from_dict(dataio.read_json(path))
            assert back.has_diagonal_gating == params.has_diagonal_gating
            for a, b in zip(back.gating, params.gating):
                assert np.float64(a.alpha).tobytes() == np.float64(b.alpha).tobytes()
                assert a.mu.tobytes() == b.mu.tobytes()
                assert a.R.tobytes() == b.R.tobytes()
            for a, b in zip(back.experts, params.experts):
                assert a.intercept.tobytes() == b.intercept.tobytes()
                assert a.coeffs.tobytes() == b.coeffs.tobytes()
                assert a.cov.tobytes() == b.cov.tobytes()

    def test_exact_zeros_survive(self, tmp_path):
        s = default_scenario()
        path = tmp_path / "true.json"
        dataio.write_json(path, dataio.params_to_dict(s.true_params))
        back = dataio.params_from_dict(dataio.read_json(path))
        assert back.experts[0].beta[0] == 0.0
        assert json.loads(path.read_text())["experts"][0]["coeffs"][0][0] == 0.0

    def test_scenario_roundtrip(self, tmp_path):
        s = default_scenario(n=50, seed=9)
        path = tmp_path / "scenario.json"
        dataio.write_json(path, dataio.scenario_to_dict(s))
        back = dataio.scenario_from_dict(dataio.read_json(path))
        assert back.n == 50 and back.seed == 9
        assert np.array_equal(
            back.true_params.gating[1].mu, s.true_params.gating[1].mu
        )


class TestTableCsv:
    def test_selection_csv_layout(self, tmp_path):
        rows = (
            SelectionRow(2, 1.0, 0.5, -10.0, 5, -12.5, True),
            SelectionRow(2, 0.0, 0.0, -9.0, 8, -13.0, True),
        )
        table = SelectionTable(rows=rows, selected=0)
        path = tmp_path / "sel.csv"
        dataio.write_selection_csv(path, table)
        lines = path.read_text().splitlines()
        assert lines[0] == "K,lambda,gamma,loglik,df,bic,converged,selected"
        assert lines[1] == "2,1.0,0.5,-10.0,5,-12.5,true,true"
        assert lines[2].endswith("false")

    def test_trace_csv(self, tmp_path):
        path = tmp_path / "trace.csv"
        dataio.write_trace_csv(path, [-5.0, -4.0, -3.9])
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,objective"
        assert lines[1] == "0,-5.0"
        assert len(lines) == 4

    def test_path_csv_roundtrip(self, tmp_path):
        rows = [
            (2.0, 2.0, 1, "gate_mean", 1, 0.0),
            (2.0, 2.0, 1, "expert_coeff", 2, -1.25),
        ]
        path = tmp_path / "path.csv"
        dataio.write_path_csv(path, rows)
        back = dataio.read_path_csv(path)
        assert back[0]["block"] == "gate_mean"
        assert back[0]["estimate"] == 0.0
        assert back[1]["estimate"] == -1.25
