"""CSV reader validation: malformed network, demand, profile and sink rows
raise IoError naming the file and column instead of wrapping, overwriting
or escaping as a raw exception."""

import numpy as np
import pytest
import yaml

from h2grid.cli import main
from h2grid.errors import IoError
from h2grid.io import (read_consumption, read_demand, read_industrial_sites,
                       read_profile, read_system)


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
        ("2,-1", "mw"),
    ])
    def test_bad_row(self, tmp_path, row, column):
        with pytest.raises(IoError,
                           match=rf"profile\.csv: .* column {column}"):
            self.read(tmp_path, ["0,1", "1,2", row])

    def test_duplicate_hour(self, tmp_path):
        with pytest.raises(IoError, match=r"profile\.csv: duplicate hour 1"):
            self.read(tmp_path, ["0,1", "1,2", "1,3"])


class TestReadNetwork:
    FILES = {
        "nodes": ("id,x,y", ["0,0,0", "1,10,0", "2,20,0"]),
        "lines": ("id,from,to,capacity_mw,reactance_pu",
                  ["0,0,1,100,0.1", "1,1,2,100,0.1"]),
        "generators": ("id,node,kind,marginal_cost,capacity_mw",
                       ["0,0,dispatchable,20,300", "1,2,dispatchable,50,300"]),
        "demand": ("hour,node,mw", ["0,1,50", "0,2,40"]),
    }

    def write(self, tmp_path, **replace):
        paths = {}
        for name, (header, rows) in self.FILES.items():
            paths[name] = write_rows(tmp_path / f"{name}.csv", header,
                                     replace.get(name, rows))
        return paths

    def read(self, tmp_path, **replace):
        paths = self.write(tmp_path, **replace)
        return read_system(paths["nodes"], paths["lines"],
                           paths["generators"], paths["demand"], hours=1)

    def test_valid_files(self, tmp_path):
        system = self.read(tmp_path)
        assert system.n_nodes == 3
        assert [g.node for g in system.generators] == [0, 2]
        assert [(ln.from_node, ln.to_node) for ln in system.lines] == [
            (0, 1), (1, 2)]

    @pytest.mark.parametrize("name, rows, column", [
        ("nodes", ["0,0,0", "0,10,0", "2,20,0"], "id"),
        ("nodes", ["1,0,0", "2,10,0", "3,20,0"], "id"),
        ("generators", ["0,-1,dispatchable,20,300"], "node"),
        ("generators", ["0,99,dispatchable,20,300"], "node"),
        ("generators", ["0,3,dispatchable,20,300"], "node"),
        ("lines", ["0,99,1,100,0.1", "1,1,2,100,0.1"], "from"),
        ("lines", ["0,0,1,100,0.1", "1,1,-1,100,0.1"], "to"),
        ("lines", ["0,0,1,100,-1", "1,1,2,100,0.1"], "reactance_pu"),
        ("lines", ["0,0,1,100,0", "1,1,2,100,0.1"], "reactance_pu"),
        ("lines", ["0,0,1,0,0.1", "1,1,2,100,0.1"], "capacity_mw"),
        ("lines", ["0,0,1,-5,0.1", "1,1,2,100,0.1"], "capacity_mw"),
        ("lines", ["0,0,1,100,0.1", "1,1,1,100,0.1"], "to"),
        ("generators", ["0,0,dispatchable,20,-300"], "capacity_mw"),
    ])
    def test_bad_row(self, tmp_path, name, rows, column):
        with pytest.raises(IoError, match=rf"{name}\.csv: .* column {column}"):
            self.read(tmp_path, **{name: rows})

    def test_cli_exits_2(self, tmp_path, capsys):
        paths = self.write(
            tmp_path, generators=["0,-1,dispatchable,20,300"])
        cfg = tmp_path / "net.yaml"
        cfg.write_text(yaml.safe_dump({"hours": 1, "inputs": paths}))
        assert main(["dispatch", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "column node" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["uniform", "nodal"])
    def test_negative_capacity_exits_2(self, tmp_path, capsys, mode):
        # rejected when read, before either mode clears a market
        paths = self.write(
            tmp_path, generators=["0,0,dispatchable,20,-300",
                                  "1,2,dispatchable,50,300"])
        cfg = tmp_path / "net.yaml"
        cfg.write_text(yaml.safe_dump({"hours": 1, "inputs": paths}))
        assert main(["dispatch", "--config", str(cfg), "--mode", mode,
                     "--out", str(tmp_path / "o")]) == 2
        assert "generators.csv: negative value '-300' in column capacity_mw" \
            in capsys.readouterr().err


class TestReadSinks:
    def consumption(self, tmp_path, row, n_nodes=3):
        path = write_rows(tmp_path / "consumption.csv",
                          "id,kind,node,kg_per_day,x,y",
                          ["0,industry,1,500,1,2", row])
        return read_consumption(path, n_nodes)

    def sites(self, tmp_path, row):
        path = write_rows(
            tmp_path / "sites.csv",
            "name,sector,basis_kind,basis_value,deduction_kg_per_hour,x,y",
            ["a,steel,tons_per_year,1000,0,1,2", row])
        return read_industrial_sites(path)

    def test_blank_optional_columns_read_as_zero(self, tmp_path):
        sinks = self.consumption(tmp_path, "1,industry,2,300,,")
        assert (sinks[1].node, sinks[1].x, sinks[1].y) == (2, 0.0, 0.0)
        site = self.sites(tmp_path, "b,steel,tons_per_year,10,,,")[1]
        assert (site.deduction_kg_per_hour, site.x, site.y) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("row, column", [
        ("1,industry,2,300,abc,0", "x"),
        ("1,industry,2,300,0,nan", "y"),
        ("1,industry,2,300,inf,0", "x"),
        ("1,industry,-1,300,0,0", "node"),
        ("1,industry,3,300,0,0", "node"),
    ])
    def test_bad_consumption_row(self, tmp_path, row, column):
        with pytest.raises(IoError,
                           match=rf"consumption\.csv: .* column {column}"):
            self.consumption(tmp_path, row)

    @pytest.mark.parametrize("row, column", [
        ("b,steel,tons_per_year,10,0,abc,0", "x"),
        ("b,steel,tons_per_year,10,0,0,-inf", "y"),
        ("b,steel,tons_per_year,10,nan,0,0", "deduction_kg_per_hour"),
    ])
    def test_bad_site_row(self, tmp_path, row, column):
        with pytest.raises(IoError, match=rf"sites\.csv: .* column {column}"):
            self.sites(tmp_path, row)
