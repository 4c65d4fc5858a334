"""CSV reader validation: malformed network, demand, profile and sink rows
raise IoError naming the file and column instead of wrapping, overwriting
or escaping as a raw exception.  The system and dispatch writers'
column-wise output matches a cell-by-cell one."""

import os

import numpy as np
import pytest
import yaml

from h2grid.cli import main
from h2grid.dispatch import (MODE_NODAL, MODE_UNIFORM_REDISPATCH,
                             AnnualDispatchSummary)
from h2grid.errors import IoError
from h2grid.io import (read_consumption, read_demand, read_industrial_sites,
                       read_profile, read_station_candidates, read_system,
                       write_csv, write_dispatch_outputs, write_system)
from h2grid.synth import SyntheticSpec, generate_synthetic_system


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

    @pytest.mark.parametrize("rows, hours, hour, node", [
        (GOOD[:3], 2, 1, 1),
        (GOOD[1:], 2, 0, 0),
        (GOOD, 5, 2, 0),                # rows for hours 0-1 only
    ])
    def test_missing_row(self, tmp_path, rows, hours, hour, node):
        # a missing pair is not 0 MW of demand
        with pytest.raises(IoError, match=rf"demand\.csv: no row for hour "
                                          rf"{hour}, node {node} in columns "
                                          r"hour, node$"):
            self.read(tmp_path, rows, hours=hours)


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
        "demand": ("hour,node,mw", ["0,0,0", "0,1,50", "0,2,40"]),
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
        ("generators", ["0,0,Wind,0,300"], "kind"),
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
        ("1,industy,2,300,0,0", "kind"),
        ("1,industry,2,-300,0,0", "kg_per_day"),
    ])
    def test_bad_consumption_row(self, tmp_path, row, column):
        with pytest.raises(IoError,
                           match=rf"consumption\.csv: .* column {column}"):
            self.consumption(tmp_path, row)

    @pytest.mark.parametrize("row, column", [
        ("b,steel,tons_per_year,10,0,abc,0", "x"),
        ("b,steel,tons_per_year,10,0,0,-inf", "y"),
        ("b,steel,tons_per_year,10,nan,0,0", "deduction_kg_per_hour"),
        ("b,stel,tons_per_year,10,0,0,0", "sector"),
        ("b,steel,tons,10,0,0,0", "basis_kind"),
        ("b,steel,tons_per_year,-10,0,0,0", "basis_value"),
        ("b,steel,tons_per_year,10,-1,0,0", "deduction_kg_per_hour"),
    ])
    def test_bad_site_row(self, tmp_path, row, column):
        with pytest.raises(IoError, match=rf"sites\.csv: .* column {column}"):
            self.sites(tmp_path, row)

    @pytest.mark.parametrize("row, column", [
        ("1,abc,0,1", "x"),
        ("1,0,0,-1", "weight"),
    ])
    def test_bad_station_row(self, tmp_path, row, column):
        path = write_rows(tmp_path / "stations.csv", "id,x,y,weight",
                          ["0,1,2,3", row])
        with pytest.raises(IoError,
                           match=rf"stations\.csv: .* column {column}"):
            read_station_candidates(path)


class TestWriteSystem:
    def test_matches_cell_by_cell_writer(self, tmp_path):
        system = generate_synthetic_system(SyntheticSpec(
            seed=7, n_nodes=4, n_lines=5, hours=30))
        # values where the formats of ints, floats, signed zeros and
        # exponents part
        demand = system.demand.copy()
        demand[0] = [-0.0, 1e-7, 123456789.0, 0.1 + 0.2]
        system = system.with_demand(demand)
        out, ref = tmp_path / "out", tmp_path / "ref"
        out.mkdir()
        ref.mkdir()
        write_system(str(out), system)

        # every profile and the demand table, one write_csv cell at a time
        for g in system.generators:
            if g.profile is not None:
                write_csv(str(ref / f"profile_{g.id}.csv"), ("hour", "mw"),
                          list(enumerate(g.profile)))
        write_csv(str(ref / "demand.csv"), ("hour", "node", "mw"),
                  [(t, n, demand[t, n]) for t in range(demand.shape[0])
                   for n in range(demand.shape[1])])
        names = sorted(os.listdir(ref))
        assert len(names) > 1
        assert set(names) <= set(os.listdir(out))
        for name in names:
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name


class TestWriteDispatchOutputs:
    @pytest.mark.parametrize("mode", [MODE_UNIFORM_REDISPATCH, MODE_NODAL])
    def test_matches_cell_by_cell_writer(self, tmp_path, mode):
        # values where the formats of floats, signed zeros and exponents
        # part; the nodal table is not C-contiguous
        odd = [-0.0, 1e-7, 123456789.0, 0.1 + 0.2, 41.25]
        nodal = np.array([odd, odd[::-1], odd[1:] + odd[:1]]).T
        summary = AnnualDispatchSummary(
            mode=mode, hours=5, price_series=np.array(odd),
            nodal_price_series=nodal, mean_price=1.0, congestion_cost_eur=2.0,
            redispatch_cost_series=np.array(odd[::-1]), total_energy_mwh=3.0,
            generation_mwh=np.zeros(1))
        out, ref = tmp_path / "out", tmp_path / "ref"
        out.mkdir()
        ref.mkdir()
        write_dispatch_outputs(str(out), summary)

        if mode == MODE_UNIFORM_REDISPATCH:
            write_csv(str(ref / "prices_uniform.csv"),
                      ("hour", "price_eur_mwh"), list(enumerate(odd)))
        else:
            write_csv(str(ref / "prices_nodal.csv"),
                      ("hour", "node", "price_eur_mwh"),
                      [(t, n, nodal[t, n]) for t in range(5)
                       for n in range(3)])
        write_csv(str(ref / "redispatch.csv"), ("hour", "cost_eur"),
                  list(enumerate(summary.redispatch_cost_series)))
        names = sorted(os.listdir(ref))
        assert set(names) <= set(os.listdir(out))
        for name in names:
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name
