import numpy as np
import pytest

from causalpch import (DataError, PriorConfig, SamplerConfig, load_csv,
                       one_hot, parse_formula, sample)
from causalpch.cli import main
from causalpch.dataset import Dataset


def write_csv(tmp_path, text, name="d.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_veteran_marginals(self, veteran):
        a = veteran.columns[veteran.treat_col]
        assert len(a) == 137
        assert int(a.sum()) == 68
        assert int((a == 0).sum()) == 69
        assert int((veteran.columns["delta"] == 0).sum()) == 9
        assert veteran.columns["y"].max() == 999

    def test_veteran_one_hot_block(self, veteran):
        block = np.column_stack([veteran.columns[f"celltype{lv}"]
                                 for lv in ("squamous", "smallcell", "adeno",
                                            "large")])
        assert block.sum() == 137
        assert np.all(block.sum(axis=1) == 1)

    def test_deterministic(self, tmp_path):
        text = "y,delta,A\n1,1,0\n2,0,1\n3,1,1\n"
        p1 = write_csv(tmp_path, text, "a.csv")
        p2 = write_csv(tmp_path, text, "b.csv")
        d1, d2 = load_csv(p1), load_csv(p2)
        assert list(d1.columns) == list(d2.columns)
        for name in d1.columns:
            assert np.array_equal(d1.columns[name], d2.columns[name])

    def test_missing_value_is_hard_error(self, tmp_path):
        path = write_csv(tmp_path, "y,delta,A,x\n1,1,0,2\n2,1,1,\n")
        with pytest.raises(DataError, match="missing value"):
            load_csv(path)

    def test_na_token_is_missing(self, tmp_path):
        path = write_csv(tmp_path, "y,delta,A,x\n1,1,0,NA\n2,1,1,3\n")
        with pytest.raises(DataError, match="missing value"):
            load_csv(path)

    def test_duplicate_columns(self, tmp_path):
        path = write_csv(tmp_path, "y,y,delta,A\n1,1,1,0\n2,2,1,1\n")
        with pytest.raises(DataError, match="duplicate column"):
            load_csv(path)

    def test_ragged_row(self, tmp_path):
        path = write_csv(tmp_path, "y,delta,A\n1,1,0\n2,1\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path)

    def test_string_column_auto_encoded(self, tmp_path):
        path = write_csv(tmp_path,
                         "y,delta,A,grp\n1,1,0,lo\n2,0,1,hi\n3,1,1,lo\n")
        d = load_csv(path)
        assert "grp" not in d.columns
        assert d.columns["grplo"].tolist() == [1.0, 0.0, 1.0]
        assert d.columns["grphi"].tolist() == [0.0, 1.0, 0.0]

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_csv(tmp_path / "nope.csv")


# Each case breaks one rule that the design checks when data enters a model;
# the same words reach the user from a CSV file and from an in-memory table.
BAD_DATA = {
    "nonpositive_time": ({"y": [1, 0], "delta": [1, 1], "A": [0, 1]},
                         "'y' must be positive; row 2 has value 0.0"),
    "event_2": ({"y": [1, 2, 3], "delta": [1, 2, 1], "A": [0, 1, 1]},
                "'delta' must be 0/1; row 2 has value 2.0"),
    "no_events": ({"y": [1, 2], "delta": [0, 0], "A": [0, 1]}, "no events"),
    "missing_A": ({"y": [1, 2], "delta": [1, 0], "x": [3, 4]},
                  "unknown column 'A'"),
    "A_3": ({"y": [1, 2, 3], "delta": [1, 1, 1], "A": [0, 3, 1]},
            "'A' must be 0/1; row 2 has value 3.0"),
    "one_row": ({"y": [1], "delta": [1], "A": [0]}, "not identified"),
    "string_A": ({"y": [1, 2], "delta": [1, 1], "A": ["no", "yes"]},
                 "column 'A'"),
}


@pytest.mark.parametrize("case", BAD_DATA)
def test_bad_data_refused_from_csv_and_memory(tmp_path, capsys, case):
    table, words = BAD_DATA[case]
    rows = zip(*table.values())
    path = write_csv(tmp_path, "\n".join([",".join(table)]
                                         + [",".join(map(str, r)) for r in rows]))
    rc = main(["fit", "--data", str(path), "--formula", "Surv(y, delta) ~ A",
               "--warmup", "5", "--iters", "5",
               "--out-dir", str(tmp_path / "never")])
    assert rc == 2
    assert words in capsys.readouterr().err
    assert not (tmp_path / "never").exists()

    data = Dataset(columns={k: np.array(v) for k, v in table.items()})
    with pytest.raises(DataError) as exc:
        sample(data, parse_formula("Surv(y, delta) ~ A"), PriorConfig(K=3),
               SamplerConfig(warmup=5, post_iter=5))
    assert words in str(exc.value)


class TestOneHot:
    def base(self):
        return Dataset(columns={
            "y": np.array([1.0, 2.0, 3.0]),
            "delta": np.array([1.0, 1.0, 0.0]),
            "A": np.array([0.0, 1.0, 0.0]),
            "cat": np.array(["yes", "no", "yes"], dtype=object),
        })

    def test_binary_column_partition_of_unity(self):
        d = one_hot(self.base(), "cat")
        block = np.column_stack([d.columns["catyes"], d.columns["catno"]])
        assert np.all(block.sum(axis=1) == 1)

    def test_levels_in_first_appearance_order(self):
        d = one_hot(self.base(), "cat")
        cols = list(d.columns)
        assert cols.index("catyes") < cols.index("catno")

    def test_single_level_errors(self):
        base = self.base()
        base.columns["cat"] = np.array(["x", "x", "x"], dtype=object)
        with pytest.raises(DataError, match="single level"):
            one_hot(base, "cat")

    def test_unknown_column(self):
        with pytest.raises(DataError, match="unknown column"):
            one_hot(self.base(), "nope")

    def test_name_collision(self):
        base = self.base()
        base.columns["catyes"] = np.zeros(3)
        with pytest.raises(DataError, match="collides"):
            one_hot(base, "cat")
