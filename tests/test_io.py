"""CSV reader validation: malformed demand and profile rows raise IoError
naming the file and column instead of wrapping or overwriting silently."""

import numpy as np
import pytest

from h2grid.errors import IoError
from h2grid.io import read_demand, read_profile


def write_rows(path, header, rows):
    path.write_text("\n".join([header] + rows) + "\n")
    return str(path)


class TestReadDemand:
    GOOD = ["0,0,10", "0,1,20", "1,0,30", "1,1,40"]

    def read(self, tmp_path, rows, n_nodes=2, hours=2):
        path = write_rows(tmp_path / "demand.csv", "hour,node,mw", rows)
        return read_demand(path, n_nodes, hours)

    def test_valid_file(self, tmp_path):
        demand = self.read(tmp_path, self.GOOD)
        assert np.array_equal(demand, [[10.0, 20.0], [30.0, 40.0]])

    def test_hours_past_horizon_are_skipped(self, tmp_path):
        demand = self.read(tmp_path, self.GOOD + ["2,0,99"])
        assert demand.shape == (2, 2) and demand.max() == 40.0

    @pytest.mark.parametrize("row, column", [
        ("-1,0,5", "hour"),
        ("0,-1,5", "node"),
        ("0,2,5", "node"),
        ("1,1,nan", "mw"),
        ("1,1,inf", "mw"),
    ])
    def test_bad_row(self, tmp_path, row, column):
        with pytest.raises(IoError, match=rf"demand\.csv: .* column {column}"):
            self.read(tmp_path, self.GOOD[:3] + [row])

    def test_duplicate_row(self, tmp_path):
        with pytest.raises(IoError, match=r"demand\.csv: duplicate row for "
                                          r"hour 0, node 1"):
            self.read(tmp_path, self.GOOD + ["0,1,25"])


class TestReadProfile:
    def read(self, tmp_path, rows, hours=3):
        path = write_rows(tmp_path / "profile.csv", "hour,mw", rows)
        return read_profile(path, hours)

    def test_valid_file_in_any_order(self, tmp_path):
        profile = self.read(tmp_path, ["2,3", "0,1", "1,2"])
        assert np.array_equal(profile, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("row, column", [
        ("-1,5", "hour"),
        ("3,5", "hour"),
        ("2,nan", "mw"),
        ("2,-inf", "mw"),
    ])
    def test_bad_row(self, tmp_path, row, column):
        with pytest.raises(IoError,
                           match=rf"profile\.csv: .* column {column}"):
            self.read(tmp_path, ["0,1", "1,2", row])

    def test_duplicate_hour(self, tmp_path):
        with pytest.raises(IoError, match=r"profile\.csv: duplicate hour 1"):
            self.read(tmp_path, ["0,1", "1,2", "1,3"])
