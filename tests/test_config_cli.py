import math
import os

import pytest

from mmwcache.cli import main
from mmwcache.config import (ConfigError, ScenarioConfig, apply_overrides,
                             load_config)


class TestConfig:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("""
# scenario
seed = 9
n_mues = 12
area_radius = 350.5
sbs_powers_dbm = 20, 30
""")
        cfg = load_config(str(path))
        assert cfg.seed == 9
        assert cfg.n_mues == 12
        assert cfg.area_radius == 350.5
        assert cfg.sbs_powers_dbm == (20.0, 30.0)

    def test_unknown_key_names_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("seed = 1\nbogus_key = 3\n")
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert "line 2" in str(err.value)
        assert "bogus_key" in str(err.value)

    def test_unparseable_value(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("seed = banana\n")
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert "line 1" in str(err.value)

    def test_overrides(self):
        cfg = apply_overrides(ScenarioConfig(), ["seed=4", "quota=3"])
        assert cfg.seed == 4 and cfg.quota == 3
        with pytest.raises(ConfigError):
            apply_overrides(ScenarioConfig(), ["seed"])

    @pytest.mark.parametrize("key,value", [
        ("area_radius", 0.0), ("area_radius", float("nan")), ("n_sbs", -1),
        ("min_intercell", -5.0), ("speed_min", -1.0), ("play_rate", 0.0),
        ("play_rate", float("nan")), ("quota", 0), ("n_beams", 0),
        ("beamwidth_deg", 0.0), ("beamwidth_deg", float("nan")),
        ("frame", -1.0), ("frame", 0.0), ("frame", float("nan")),
        ("epsilon", -1.0), ("epsilon", float("nan")), ("t_mts", -1.0),
        ("segment_size_bits", 0.0), ("segment_size_bits", -1.0),
        ("cache_capacity", -5.0), ("cache_capacity", float("nan")),
        ("sbs_powers_dbm", ()), ("area_radius", math.inf),
        ("bandwidth", math.inf), ("speed_max", math.inf),
        ("rss_threshold_dbm", -math.inf), ("noise_psd_dbm_hz", math.nan),
        ("sbs_powers_dbm", (24.0, math.inf)),
        ("sbs_powers_dbm", (math.nan,))])
    def test_invalid_scenario_values_name_key(self, key, value):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig(**{key: value})
        assert key in str(err.value)

    def test_speed_range_must_be_ordered(self):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig(speed_min=20.0, speed_max=5.0)
        assert "speed_min" in str(err.value)
        assert "speed_max" in str(err.value)
        assert ScenarioConfig(speed_min=8.0, speed_max=8.0).speed_max == 8.0

    def test_beam_span_bound(self):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig(n_beams=40, beamwidth_deg=10.0)
        assert "n_beams" in str(err.value)
        assert "beamwidth_deg" in str(err.value)
        # the full circle, exactly, and with BeamGeometry's 1e-4 tolerance
        assert ScenarioConfig(n_beams=36, beamwidth_deg=10.0).n_beams == 36
        assert ScenarioConfig(n_beams=3, beamwidth_deg=120.01).n_beams == 3
        with pytest.raises(ConfigError):
            ScenarioConfig(n_beams=3, beamwidth_deg=120.1)

    def test_digest_stability(self):
        assert ScenarioConfig(seed=1).digest() == ScenarioConfig(seed=1).digest()
        assert ScenarioConfig(seed=1).digest() != ScenarioConfig(seed=2).digest()


class TestCli:
    def test_analyze_coverage_anchor(self, tmp_path, capsys):
        rc = main(["analyze", "--op", "coverage", "--n", "3",
                   "--theta", "2.0944", "--out", str(tmp_path)])
        assert rc == 0
        csv = (tmp_path / "analyze_coverage.csv").read_text().splitlines()
        assert csv[0] == "op,arg1,arg2,value"
        assert float(csv[1].split(",")[-1]) == pytest.approx(1.0, abs=1e-4)

    def test_malformed_config_exit_2(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("definitely_not_a_key = 1\n")
        rc = main(["analyze", "--op", "coverage", "--config", str(path),
                   "--out", str(tmp_path)])
        assert rc == 2

    def test_missing_config_exit_2(self, tmp_path):
        rc = main(["analyze", "--op", "coverage",
                   "--config", str(tmp_path / "absent.cfg"),
                   "--out", str(tmp_path)])
        assert rc == 2

    def test_match_subcommand(self, tmp_path):
        rc = main(["match", "--users", "8", "--speed", "8.0", "--seed", "3",
                   "--out", str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "match_result.csv").read_text().splitlines()
        assert rows[0] == "mue,period1,period2,proposals_sent"
        assert len(rows) == 9

    def test_match_honours_deployment_overrides(self, tmp_path):
        # area_radius and scan_interval are deployment defaults that every
        # region run reads from its config, so setting them moves the result
        outputs = []
        for extra in ([], ["--set", "area_radius=300",
                           "--set", "scan_interval=2"]):
            out = tmp_path / str(len(outputs))
            rc = main(["match", "--seed", "1", "--out", str(out)] + extra)
            assert rc == 0
            outputs.append((out / "match_result.csv").read_bytes())
        assert outputs[0] != outputs[1]

    def test_simulate_subcommand(self, tmp_path):
        rc = main(["simulate", "--seed", "3", "--speed", "12",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "simulate_events.csv").exists()

    def test_simulate_walk_is_independent_of_deployment(self, tmp_path,
                                                        monkeypatch):
        # drawn from the deployment's own stream, the walk's origin was
        # exactly half of SBS 0's position
        from mmwcache import experiments
        from mmwcache.scenario import generate_scenario

        walks = []

        def capture(scn, origin, heading, *args, **kwargs):
            walks.append((scn, origin))
            return experiments.TrajectoryStats()

        monkeypatch.setattr(experiments, "simulate_trajectory", capture)
        for seed in (1, 2, 3, 7, 42):
            rc = main(["simulate", "--seed", str(seed),
                       "--out", str(tmp_path)])
            assert rc == 0
            scn, origin = walks[-1]
            assert scn.sbss == generate_scenario(
                ScenarioConfig(seed=seed)).sbss
            x0, y0 = scn.sbss[0].position
            assert origin != (0.5 * x0, 0.5 * y0), seed

    def test_verify_stability_suite(self, tmp_path):
        rc = main(["verify", "--suite", "stability", "--seed", "7",
                   "--out", str(tmp_path)])
        assert rc == 0

    def test_env_default_outdir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MMWCACHE_OUT", str(tmp_path / "envout"))
        rc = main(["analyze", "--op", "coverage"])
        assert rc == 0
        assert (tmp_path / "envout" / "analyze_coverage.csv").exists()

    def test_reproduce_tiny_and_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            rc = main(["reproduce", "--seed", "11", "--replications", "2",
                       "--out", str(out)])
            assert rc == 0
        for name in os.listdir(out1):
            if name.endswith(".csv"):
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        manifest = (out1 / "run-manifest.txt").read_text()
        assert "config_digest" in manifest and "seed = 11" in manifest

    @pytest.mark.parametrize("setting,message", [
        ("min_intercell=1000", "could not place 50 SBSs"),
        ("area_radius=0", "area_radius"),
        ("min_intercell=-5", "min_intercell"),
        ("n_sbs=-1", "n_sbs")])
    def test_bad_scenario_exit_2(self, tmp_path, capsys, setting, message):
        rc = main(["simulate", "--seed", "1", "--set", setting,
                   "--out", str(tmp_path)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "simulate_events.csv").exists()

    @pytest.mark.parametrize("argv,message", [
        (["simulate", "--set", "speed_min=20", "--set", "speed_max=5"],
         "speed_min"),
        (["simulate", "--set", "play_rate=0"], "play_rate"),
        (["match", "--set", "quota=0"], "quota"),
        (["simulate", "--set", "rss_threshold_dbm=100"], "rss_threshold_dbm"),
        (["match", "--set", "n_sbs=0"], "n_sbs"),
        (["simulate", "--set", "n_beams=0"], "n_beams"),
        (["simulate", "--set", "beamwidth_deg=0"], "beamwidth_deg"),
        (["simulate", "--set", "frame=-1"], "frame"),
        (["simulate", "--set", "n_beams=40"], "n_beams * beamwidth_deg"),
        (["match", "--users", "0"], "user"),
        (["match", "--users", "-2"], "user"),
        (["match", "--speed", "-5"], "speed"),
        (["match", "--speed", "nan"], "speed"),
        (["simulate", "--speed", "0"], "--speed"),
        (["simulate", "--speed", "-3"], "--speed"),
        (["simulate", "--speed", "nan"], "--speed"),
        (["analyze", "--op", "hof", "--radius", "-1"], "--radius"),
        (["analyze", "--op", "cdf", "--radius", "0"], "--radius"),
        (["analyze", "--op", "coverage", "--n", "1"], "2 beams"),
        (["analyze", "--op", "coverage", "--n", "3", "--theta", "3"],
         "--theta"),
        (["match", "--set", "epsilon=-1"], "epsilon"),
        (["match", "--set", "t_mts=-1"], "t_mts"),
        (["simulate", "--set", "segment_size_bits=0"], "segment_size_bits"),
        (["simulate", "--set", "cache_capacity=-5"], "cache_capacity"),
        (["simulate", "--set", "sbs_powers_dbm="], "sbs_powers_dbm"),
        (["match", "--set", "sbs_powers_dbm="], "sbs_powers_dbm"),
        # names that are not config keys
        (["simulate", "--set", "ttt=5"], "ttt"),
        (["match", "--set", "uw_shadowing_std_db=4"], "uw_shadowing_std_db"),
        (["simulate", "--set", "reference_distance=2"], "reference_distance"),
        (["match", "--set", "main_lobe_gain_db=20"], "main_lobe_gain_db"),
        (["simulate", "--set", "side_lobe_gain_db=-3"], "side_lobe_gain_db"),
        # non-finite values
        (["simulate", "--set", "area_radius=inf"], "area_radius"),
        (["match", "--set", "area_radius=inf"], "area_radius"),
        (["simulate", "--set", "bandwidth=inf"], "bandwidth"),
        (["match", "--set", "speed_max=inf"], "speed_max"),
        (["match", "--set", "rss_threshold_dbm=-inf"], "rss_threshold_dbm"),
        (["simulate", "--set", "sbs_powers_dbm=24,inf"], "sbs_powers_dbm")])
    def test_bad_matching_and_radio_values_exit_2(self, tmp_path, capsys,
                                                  argv, message):
        rc = main(argv + ["--seed", "1", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("argv,message", [
        (["--replications", "2", "--set", "n_sbs=0"], "n_sbs"),
        (["--replications", "1"], "stderr_nocache"),
        (["--replications", "0"], "replications"),
        (["--replications", "2", "--threads", "0"], "threads")])
    def test_reproduce_fails_before_writing(self, tmp_path, capsys, argv,
                                            message):
        out = tmp_path / "out"
        rc = main(["reproduce", "--seed", "1", "--out", str(out)] + argv)
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert not out.exists() or not any(
            p.suffix == ".csv" for p in out.iterdir())

    def test_simulate_speed_is_used_as_given(self, tmp_path, capsys):
        # a slow walk covers fewer cells in the frame than the default speed
        counts = []
        for extra in ([], ["--speed", "0.5"]):
            rc = main(["simulate", "--seed", "3", "--out", str(tmp_path)]
                      + extra)
            assert rc == 0
            line = capsys.readouterr().out
            counts.append(int(line.split("crossings=")[1].split()[0]))
        assert counts[1] < counts[0]

    @pytest.mark.parametrize("command", [
        ["analyze", "--op", "coverage"], ["simulate"], ["match"],
        ["verify", "--suite", "geometry"]])
    @pytest.mark.parametrize("flag", [["--threads", "2"],
                                      ["--replications", "3"]])
    def test_run_flags_only_on_reproduce(self, tmp_path, capsys, command,
                                         flag):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--seed", "1", "--out", str(tmp_path)] + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    def test_seed_required_for_reproducible_commands(self, tmp_path):
        rc = main(["match", "--users", "4", "--out", str(tmp_path)])
        assert rc == 2
        rc = main(["reproduce", "--out", str(tmp_path)])
        assert rc == 2
