import json

import numpy as np
import pytest

from mogge import dataio
from mogge.model import DataSet
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

    @pytest.mark.parametrize(
        "header", ["x1,x3,y", "x1,x1,y", "x2,x3,y", "x1,x2,y,y1", "x1,y1,y3"]
    )
    def test_gaps_and_duplicates_rejected(self, tmp_path, header):
        path = tmp_path / "bad.csv"
        cells = ",".join("1.0" for _ in header.split(","))
        path.write_text(f"{header}\n{cells}\n")
        with pytest.raises(ValueError):
            dataio.read_dataset_csv(path)


class TestParamsJson:
    def test_roundtrip_diagonal_and_full(self, tmp_path):
        rng = np.random.default_rng(3)
        for diagonal in (True, False):
            params = random_params(rng, K=2, p=3, diagonal=diagonal)
            path = tmp_path / f"params_{diagonal}.json"
            dataio.write_json(path, dataio.params_to_dict(params))
            back = dataio.params_from_dict(dataio.read_json(path))
            assert back.has_diagonal_gating == diagonal
            for k in range(2):
                assert np.array_equal(back.gating[k].mu, params.gating[k].mu)
                assert np.array_equal(back.gating[k].R, params.gating[k].R)
                assert np.array_equal(back.experts[k].coeffs, params.experts[k].coeffs)

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
