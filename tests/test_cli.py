"""Configuration parsing and command line contract tests."""

import filecmp
import os
import re

import pytest
import yaml

from h2grid.cli import main
from h2grid.config import (StudyConfig, dump_config, effective_config,
                           load_config, parse_config)
from h2grid.errors import ConfigError
from h2grid.io import write_system
from h2grid.synth import congested_fixture

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
GOLDEN_CONFIG = os.path.join(os.path.dirname(__file__), "golden",
                             "congested10_168h", "effective_config.yaml")


def write_yaml(path, data):
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh)
    return str(path)


class TestConfigParsing:
    def test_empty_config_is_all_defaults(self):
        assert parse_config({}) == StudyConfig()
        assert parse_config(None) == StudyConfig()

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key nonsense"):
            parse_config({"nonsense": 1})

    def test_unknown_section_key_has_full_path(self):
        with pytest.raises(ConfigError,
                           match="unknown key production.electrolyser_cost"):
            parse_config({"production": {"electrolyser_cost": 100}})

    def test_station_kind_is_rejected(self):
        # station kinds follow from cars_twh / trucks_twh; no key selects one
        with pytest.raises(ConfigError, match="unknown key stations.kind"):
            parse_config({"stations": {"kind": "station_trucks"}})

    def test_station_volume_must_be_a_number(self):
        with pytest.raises(ConfigError, match="stations.cars_twh: expected"):
            parse_config({"stations": {"cars_twh": "lots"}})

    def test_unknown_fixture(self):
        with pytest.raises(ConfigError, match="unknown fixture"):
            parse_config({"fixture": "no_such_fixture"})

    def test_bad_scenario_enums(self):
        with pytest.raises(ConfigError, match=r"scenarios\[0\].spatial"):
            parse_config({"scenarios": [{"spatial": "zonal"}]})
        with pytest.raises(ConfigError, match=r"scenarios\[0\].temporal"):
            parse_config({"scenarios": [{"temporal": "hourly"}]})

    def test_unknown_carrier(self):
        with pytest.raises(ConfigError, match=r"scenarios\[1\].carrier"):
            parse_config({"scenarios": [{"carrier": "GH2"},
                                        {"carrier": "H2X"}]})

    def test_scenarios_must_be_list(self):
        with pytest.raises(ConfigError, match="expected a list"):
            parse_config({"scenarios": {"spatial": "uniform"}})

    def test_echo_round_trip(self, tmp_path):
        cfg = parse_config({
            "hours": 24, "seed": 7, "fixture": "congested10",
            "scenarios": [{"spatial": "nodal", "temporal": "real_time",
                           "carrier": "GH2"}],
            "imports": {"node": 0, "cost_eur_per_kg": 4.5}})
        echoed = write_yaml(tmp_path / "echo.yaml", effective_config(cfg))
        assert load_config(echoed) == cfg

    def test_readme_configs_parse(self):
        # every YAML block the README documents must be a valid config
        with open(README) as fh:
            blocks = re.findall(r"^```yaml\n(.*?)^```", fh.read(),
                                re.M | re.S)
        assert blocks
        for block in blocks:
            parse_config(yaml.safe_load(block))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(str(tmp_path / "absent.yaml"))

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("hours: [unclosed\n")
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_config(str(path))

    def test_invalid_yaml_exits_2_with_its_place(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("fixture: congested10\nhours: [1, 2\nseed: 3\n")
        assert main(["study", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err
        assert "line 3, column 5" in err

    @pytest.mark.parametrize("dumper", ["SafeDumper", "CSafeDumper"])
    def test_dump_config_bytes_match_each_dumper(self, tmp_path, dumper):
        # libyaml's emitter, where PyYAML has it, writes what the Python
        # one does, so the echo does not depend on the build
        if not hasattr(yaml, dumper):
            pytest.skip(f"PyYAML built without {dumper}")
        cfg = load_config(GOLDEN_CONFIG)
        path = tmp_path / "echo.yaml"
        dump_config(cfg, str(path))
        expected = yaml.dump(effective_config(cfg),
                             Dumper=getattr(yaml, dumper), sort_keys=True)
        assert path.read_text() == expected
        with open(GOLDEN_CONFIG) as fh:
            assert path.read_text() == fh.read()


def csv_network(out_dir):
    """The congested fixture's network written as CSV inputs to *out_dir*;
    returns the ``inputs`` section that reads it."""
    write_system(str(out_dir), congested_fixture(hours=4, seed=20240).system)
    return {name: str(out_dir / f"{name}.csv")
            for name in ("nodes", "lines", "generators", "demand")}


@pytest.fixture
def fixture_config(tmp_path):
    return write_yaml(tmp_path / "study.yaml", {
        "fixture": "congested10", "hours": 24,
        "scenarios": [{"spatial": "uniform", "temporal": "flat",
                       "carrier": "LH2"}]})


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        bad = write_yaml(tmp_path / "bad.yaml", {"typo_key": 1})
        assert main(["dispatch", "--config", bad,
                     "--out", str(tmp_path / "o")]) == 2
        assert "typo_key" in capsys.readouterr().err

    def test_missing_inputs_is_2(self, tmp_path):
        cfg = write_yaml(tmp_path / "empty.yaml", {})
        assert main(["dispatch", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2

    def test_missing_input_csv_is_2(self, tmp_path, capsys):
        inputs = csv_network(tmp_path)
        inputs["demand"] = str(tmp_path / "none.csv")
        cfg = write_yaml(tmp_path / "missing.yaml",
                         {"hours": 4, "inputs": inputs})
        assert main(["dispatch", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        assert "none.csv" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("command", ["chain", "study"])
    def test_unknown_carrier_is_2(self, tmp_path, capsys, command):
        cfg = write_yaml(tmp_path / "h2x.yaml", {
            "fixture": "congested10", "hours": 24,
            "scenarios": [{"carrier": "H2X"}]})
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        assert "scenarios[0].carrier" in capsys.readouterr().err

    @pytest.mark.parametrize("data, key", [
        ({"fixture": "congested10", "synthetic": {"n_nodes": 30}},
         "synthetic"),
        ({"fixture": "congested10", "stations": {"cars_twh": 5.0}},
         "stations.cars_twh"),
        ({"inputs": {"industrial_sites": "sites.csv"},
          "stations": {"trucks_twh": 1.0}}, "stations.trucks_twh"),
        ({"inputs": {"consumption": "c.csv", "station_candidates": "s.csv"},
          "stations": {"cars_twh": 5.0}}, "stations.cars_twh"),
        ({"inputs": {"consumption": "c.csv", "industrial_sites": "i.csv"}},
         "inputs.industrial_sites"),
        ({"inputs": {"consumption": "c.csv", "station_candidates": "s.csv"}},
         "inputs.station_candidates"),
        ({"synthetic": {"n_nodes": 6},
          "inputs": {"nodes": "n.csv", "station_candidates": "s.csv"}},
         "inputs.nodes"),
        ({"fixture": "congested10", "inputs": {"demand": "d.csv"}},
         "inputs.demand"),
        ({"synthetic": {"n_nodes": 6},
          "inputs": {"station_candidates": "s.csv"}},
         "inputs.station_candidates"),
        ({"fixture": "congested10",
          "inputs": {"station_candidates": "s.csv"},
          "stations": {"cars_twh": 0.0}}, "inputs.station_candidates"),
    ])
    def test_ignored_key_is_2(self, tmp_path, capsys, data, key):
        # a key the run would echo to effective_config.yaml but not read
        cfg = write_yaml(tmp_path / "ignored.yaml", data)
        assert main(["demand", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        assert f"error: {key}: not used" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["synth", "dispatch", "demand"])
    @pytest.mark.parametrize("data, key", [
        ({"imports": {"node": 7, "cost_eur_per_kg": 99.0}}, "imports"),
        ({"scenarios": [{"spatial": "nodal"}]}, "scenarios"),
        ({"production": {"wacc": 0.5}}, "production"),
        ({"transport": {"toll_eur_per_km": 0.2}}, "transport"),
        ({"ngp": 0.05}, "ngp"),
        ({"cheap_share": 0.5}, "cheap_share"),
    ])
    def test_study_key_outside_study_is_2(self, tmp_path, capsys, command,
                                          data, key):
        # only chain and study read these keys
        cfg = write_yaml(tmp_path / "study_key.yaml",
                         {"fixture": "congested10", "hours": 4, **data})
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        assert (f"error: {key}: not used by {command}"
                in capsys.readouterr().err)
        assert not os.path.exists(tmp_path / "o" / "effective_config.yaml")

    @pytest.mark.parametrize("command", ["synth", "dispatch"])
    @pytest.mark.parametrize("data, key", [
        ({"h2_demand_kg_day": 123.0}, "h2_demand_kg_day"),
        ({"inputs": {"consumption": "missing.csv"}}, "inputs.consumption"),
        ({"inputs": {"industrial_sites": "i.csv"}}, "inputs.industrial_sites"),
        ({"inputs": {"station_candidates": "s.csv"},
          "stations": {"cars_twh": 5.0}}, "inputs.station_candidates"),
    ])
    def test_sink_key_outside_sink_commands_is_2(self, tmp_path, capsys,
                                                 command, data, key):
        # synth and dispatch build no sinks
        cfg = write_yaml(tmp_path / "sink_key.yaml",
                         {"fixture": "congested10", "hours": 4, **data})
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        assert (f"error: {key}: not used by {command}"
                in capsys.readouterr().err)
        assert not os.path.exists(tmp_path / "o" / "effective_config.yaml")

    @pytest.mark.parametrize("command", ["synth", "dispatch", "demand",
                                         "chain", "study"])
    @pytest.mark.parametrize("data, message", [
        ({"synthetic": {"n_nodes": 6}}, "not used without fixture"),
        ({"fixture": "congested10", "inputs": {"consumption": "c.csv"}},
         "not used next to inputs.consumption"),
        ({"fixture": "congested10", "inputs": {"industrial_sites": "i.csv"}},
         "not used next to inputs.industrial_sites"),
    ])
    def test_h2_demand_without_fixture_sinks_is_2(self, tmp_path, capsys,
                                                  command, data, message):
        # only the fixture's own sinks read the hydrogen demand
        cfg = write_yaml(tmp_path / "h2.yaml",
                         {"hours": 4, "h2_demand_kg_day": 123.0, **data})
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        assert (f"error: h2_demand_kg_day: {message}"
                in capsys.readouterr().err)
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("command", ["synth", "dispatch", "demand",
                                         "chain", "study"])
    @pytest.mark.parametrize("seed, flags", [(5, []), (None, ["--seed", "9"])])
    def test_seed_next_to_csv_network_is_2(self, tmp_path, capsys, command,
                                           seed, flags):
        # a network read from CSV draws nothing from the seed
        data = {"hours": 4, "inputs": csv_network(tmp_path)}
        if seed is not None:
            data["seed"] = seed
        cfg = write_yaml(tmp_path / "csv.yaml", data)
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / "o"), *flags]) == 2
        assert ("error: seed: not used without fixture or synthetic"
                in capsys.readouterr().err)
        assert not os.path.exists(tmp_path / "o")

    def test_csv_network_echoes_default_seed(self, tmp_path):
        cfg = write_yaml(tmp_path / "csv.yaml",
                         {"hours": 4, "inputs": csv_network(tmp_path)})
        out = tmp_path / "o"
        assert main(["synth", "--config", cfg, "--out", str(out),
                     "--seed", "42"]) == 0
        with open(out / "effective_config.yaml") as fh:
            assert yaml.safe_load(fh)["seed"] == 42

    @pytest.mark.parametrize("data, key", [
        ({"cheap_share": 0.5}, "cheap_share"),
        ({"scenarios": [{"spatial": "nodal"}]}, "scenarios[0].spatial"),
        ({"scenarios": [{"temporal": "real_time", "carrier": "GH2"}]},
         "scenarios[0].temporal"),
        ({"scenarios": [{"carrier": "GH2"}, {"carrier": "LOHC"}]},
         "scenarios[1]"),
    ])
    def test_key_chain_does_not_read_is_2(self, tmp_path, capsys, data,
                                          key):
        # chain solves the first scenario's carrier alone; study reads all
        cfg = write_yaml(tmp_path / "chain.yaml",
                         {"fixture": "congested10", "hours": 4, **data})
        assert main(["chain", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        assert (f"error: {key}: not used by chain"
                in capsys.readouterr().err)
        assert not os.path.exists(tmp_path / "o" / "effective_config.yaml")

    def test_chain_without_scenario_is_2(self, tmp_path, capsys):
        cfg = write_yaml(tmp_path / "chain.yaml", {
            "fixture": "congested10", "hours": 4, "scenarios": []})
        assert main(["chain", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        assert ("error: scenarios: chain needs one scenario"
                in capsys.readouterr().err)

    def test_study_reads_what_chain_does_not(self, tmp_path):
        cfg = write_yaml(tmp_path / "study.yaml", {
            "fixture": "congested10", "hours": 4, "cheap_share": 0.5,
            "scenarios": [{"spatial": "nodal", "temporal": "real_time"},
                          {"carrier": "GH2"}]})
        out = tmp_path / "o"
        assert main(["study", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "effective_config.yaml") as fh:
            echo = yaml.safe_load(fh)
        assert echo["cheap_share"] == 0.5 and len(echo["scenarios"]) == 2

    def test_study_keys_at_defaults_are_echoed(self, tmp_path):
        cfg = write_yaml(tmp_path / "defaults.yaml", {
            "fixture": "congested10", "hours": 4, "imports": None,
            "ngp": 0.03, "production": {"wacc": 0.08},
            "scenarios": [{"spatial": "uniform", "carrier": "LH2"}]})
        out = tmp_path / "o"
        assert main(["dispatch", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "effective_config.yaml") as fh:
            echo = yaml.safe_load(fh)
        assert echo["imports"] is None and echo["ngp"] == 0.03
        assert echo["production"]["wacc"] == 0.08

    @pytest.mark.parametrize("imports, message", [
        ({"enabled": False}, "unknown key imports.enabled"),
        ({"cost_eur_per_kg": 4.5}, "imports: .*'node'"),
        ({}, "imports: .*'node'"),
    ])
    def test_bad_imports_is_2(self, tmp_path, capsys, imports, message):
        # an imports block always means a terminal, so it must name a node
        cfg = write_yaml(tmp_path / "imports.yaml", {
            "fixture": "congested10", "hours": 24, "imports": imports})
        assert main(["chain", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        assert re.search(message, capsys.readouterr().err)

    @pytest.mark.parametrize("data, message", [
        ({"imports": {"node": 0, "cap_kg_per_day": "lots"}},
         "imports.cap_kg_per_day: expected a number, got 'lots'"),
        ({"imports": {"node": "abc"}},
         "imports.node: expected an integer, got 'abc'"),
        ({"production": {"wacc": "lots"}},
         "production.wacc: expected a number, got 'lots'"),
        ({"production": {"wacc": True}},
         "production.wacc: expected a number, got True"),
        ({"production": {"depreciation_years": 2.5}},
         "production.depreciation_years: expected an integer, got 2.5"),
        ({"transport": {"toll_eur_per_km": "lots"}},
         "transport.toll_eur_per_km: expected a number, got 'lots'"),
        ({"transport": {"industry_frequency_by_volume": 1}},
         "transport.industry_frequency_by_volume: expected true or false"),
        ({"hours": "lots"}, "hours: expected an integer, got 'lots'"),
        ({"hours": 0}, "hours: expected a positive integer, got 0"),
        ({"hours": -3}, "hours: expected a positive integer, got -3"),
        ({"seed": -1}, "seed: expected a non-negative integer, got -1"),
        ({"production": {"capacity_factor": 0.0}},
         "production.capacity_factor: expected a number in (0, 1], got 0.0"),
        ({"production": {"capacity_factor": 1.5}},
         "production.capacity_factor: expected a number in (0, 1], got 1.5"),
        ({"production": {"ee": 0.0}},
         "production.ee: expected a number in (0, 1], got 0.0"),
        ({"production": {"ec_kwh_per_kg": 0.0}},
         "production.ec_kwh_per_kg: expected a positive number, got 0.0"),
        ({"production": {"wacc": -0.01}},
         "production.wacc: expected a non-negative number, got -0.01"),
        ({"production": {"depreciation_years": 0}},
         "production.depreciation_years: expected at least 1 year, got 0"),
        ({"transport": {"truck_depreciation_years": 0}},
         "transport.truck_depreciation_years: expected at least 1 year, "
         "got 0"),
        ({"transport": {"trailer_depreciation_years": 0}},
         "transport.trailer_depreciation_years: expected at least 1 year, "
         "got 0"),
        ({"transport": {"speed_km_per_hour": 0.0}},
         "transport.speed_km_per_hour: expected a positive number, got 0.0"),
        ({"cheap_share": -0.5},
         "cheap_share: expected a number in (0, 1], got -0.5"),
        ({"cheap_share": 0.0},
         "cheap_share: expected a number in (0, 1], got 0.0"),
        ({"h2_demand_kg_day": -100},
         "h2_demand_kg_day: expected a non-negative number, got -100"),
        ({"imports": {"node": 0, "cap_kg_per_day": -5}},
         "imports.cap_kg_per_day: expected a non-negative number, got -5"),
        ({"stations": {"cars_twh": -1}},
         "stations.cars_twh: expected a non-negative number, got -1"),
        ({"stations": {"trucks_twh": -0.5}},
         "stations.trucks_twh: expected a non-negative number, got -0.5"),
        ({"synthetic": {"n_nodes": 1}},
         "synthetic.n_nodes: expected an integer of at least 2, got 1"),
        ({"fixture": None, "synthetic": {"n_nodes": 10, "n_lines": 8}},
         "synthetic.n_lines: expected at least synthetic.n_nodes - 1 = 9, "
         "got 8"),
        ({"synthetic": {"mean_demand_mw": -10}},
         "synthetic.mean_demand_mw: expected a non-negative number, got -10"),
        ({"synthetic": {"congestion": 1.5}},
         "synthetic.congestion: expected a number in [0, 1], got 1.5"),
        ({"synthetic": {"renewable_share": -1}},
         "synthetic.renewable_share: expected a number in [0, 1], got -1"),
    ])
    def test_bad_value_is_2(self, tmp_path, capsys, data, message):
        # a value of the wrong type or out of its range never reaches the
        # model
        cfg = write_yaml(tmp_path / "bad.yaml",
                         {"fixture": "congested10", "hours": 4, **data})
        assert main(["chain", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["synth", "chain", "study"])
    @pytest.mark.parametrize("flags, message", [
        (["--hours", "0"], "hours: expected a positive integer, got 0"),
        (["--seed", "-1"], "seed: expected a non-negative integer, got -1"),
    ])
    def test_bad_flag_value_is_2(self, tmp_path, capsys, command, flags,
                                 message):
        # the command line overrides the config and is checked the same way
        cfg = write_yaml(tmp_path / "ok.yaml",
                         {"fixture": "congested10", "hours": 4})
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / "o"), *flags]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("command", ["chain", "study"])
    def test_import_node_outside_network_is_2(self, tmp_path, capsys,
                                              command):
        cfg = write_yaml(tmp_path / "imports.yaml", {
            "fixture": "congested10", "hours": 4, "imports": {"node": 99}})
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        assert ("error: imports.node: 99 is not a node of the network"
                in capsys.readouterr().err)
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("data", [
        {"fixture": "congested10", "h2_demand_kg_day": 0},
        {"synthetic": {"n_nodes": 6, "n_lines": 7}},
    ])
    def test_study_without_hydrogen_demand_is_2(self, tmp_path, capsys,
                                                data):
        # caught before the two baseline dispatch years, not after them
        cfg = write_yaml(tmp_path / "zero.yaml", {"hours": 4, **data})
        assert main(["study", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "error: study: no hydrogen demand to site" in err
        assert "h2_demand_kg_day, inputs.consumption" in err
        assert not os.path.exists(tmp_path / "o")

    def test_success_is_0(self, tmp_path, fixture_config):
        assert main(["dispatch", "--config", fixture_config,
                     "--out", str(tmp_path / "o")]) == 0


class TestOutputs:
    def test_synth_writes_system_files(self, tmp_path):
        cfg = write_yaml(tmp_path / "synth.yaml",
                         {"hours": 24, "synthetic": {"n_nodes": 6}})
        out = tmp_path / "net"
        assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
        names = set(os.listdir(out))
        assert {"nodes.csv", "lines.csv", "generators.csv", "demand.csv",
                "effective_config.yaml"} <= names
        assert any(n.startswith("profile_") for n in names)

    def test_dispatch_outputs(self, tmp_path, fixture_config):
        out = tmp_path / "disp"
        assert main(["dispatch", "--config", fixture_config,
                     "--out", str(out)]) == 0
        # a uniform+redispatch year carries nodal prices too, but writes
        # only the uniform ones
        assert set(os.listdir(out)) == {
            "prices_uniform.csv", "redispatch.csv", "summary.csv",
            "effective_config.yaml"}

    def test_dispatch_nodal_mode(self, tmp_path, fixture_config):
        out = tmp_path / "nodal"
        assert main(["dispatch", "--config", fixture_config,
                     "--out", str(out), "--mode", "nodal"]) == 0
        assert set(os.listdir(out)) == {
            "prices_nodal.csv", "redispatch.csv", "summary.csv",
            "effective_config.yaml"}

    def test_demand_outputs(self, tmp_path, fixture_config):
        out = tmp_path / "dem"
        assert main(["demand", "--config", fixture_config,
                     "--out", str(out)]) == 0
        with open(out / "consumption.csv") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 4  # header plus three fixture sinks

    def test_chain_outputs(self, tmp_path, fixture_config):
        out = tmp_path / "chain"
        assert main(["chain", "--config", fixture_config, "--out", str(out),
                     "--flat-price", "45"]) == 0
        assert {"chain_design.csv", "chain_flows.csv",
                "cost_breakdown.csv"} <= set(os.listdir(out))

    def test_chain_uses_import_terminal(self, tmp_path):
        cfg = write_yaml(tmp_path / "imports.yaml", {
            "fixture": "congested10", "hours": 24,
            "imports": {"node": 0, "cost_eur_per_kg": 4.5}})
        out = tmp_path / "chain"
        assert main(["chain", "--config", cfg, "--out", str(out),
                     "--flat-price", "200"]) == 0
        with open(out / "chain_design.csv") as fh:
            assert fh.read().splitlines()[-1] == "import,1,90000"
        assert load_config(str(out / "effective_config.yaml")) \
            == load_config(cfg)

    def test_study_outputs(self, tmp_path, fixture_config):
        out = tmp_path / "study"
        assert main(["study", "--config", fixture_config,
                     "--out", str(out)]) == 0
        names = set(os.listdir(out))
        assert "report.csv" in names
        assert "siting_uniform_flat_LH2.csv" in names
        assert "breakdown_uniform_flat_LH2.csv" in names

    def test_fixture_study_honours_economics(self, tmp_path):
        base = {"fixture": "congested10", "hours": 24,
                "scenarios": [{"spatial": "nodal", "temporal": "real_time",
                               "carrier": "LH2"}]}
        econ = dict(base, ngp=0.5, cheap_share=0.3,
                    production={"ic_eur_per_kw": 2250.0})
        outs = []
        for tag, data in (("base", base), ("econ", econ)):
            cfg = write_yaml(tmp_path / f"{tag}.yaml", data)
            outs.append(tmp_path / tag)
            assert main(["study", "--config", cfg,
                         "--out", str(outs[-1])]) == 0
        changed = [name for name in sorted(os.listdir(outs[0]))
                   if not filecmp.cmp(outs[0] / name, outs[1] / name,
                                      shallow=False)]
        assert changed == ["breakdown_nodal_real_time_LH2.csv",
                           "effective_config.yaml", "report.csv"]

    def test_seed_and_hours_override_config(self, tmp_path):
        cfg = write_yaml(tmp_path / "synth.yaml",
                         {"hours": 24, "seed": 1, "synthetic": {}})
        out = tmp_path / "ovr"
        assert main(["synth", "--config", cfg, "--out", str(out),
                     "--seed", "9", "--hours", "12"]) == 0
        with open(out / "effective_config.yaml") as fh:
            eff = yaml.safe_load(fh)
        assert eff["seed"] == 9 and eff["hours"] == 12

    def test_repeat_runs_are_identical(self, tmp_path, fixture_config):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["dispatch", "--config", fixture_config,
                         "--out", str(out)]) == 0
        for name in os.listdir(out_a):
            assert filecmp.cmp(out_a / name, out_b / name, shallow=False), \
                name
