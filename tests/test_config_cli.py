import math
import os
import signal
import warnings

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
n_sbs = 12
area_radius = 350.5
sbs_powers_dbm = 20, 30
""")
        cfg = load_config(str(path))
        assert cfg.seed == 9
        assert cfg.n_sbs == 12
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
        ("sbs_powers_dbm", (math.nan,)), ("seed", -1)])
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

    def test_analyze_hof_small_cell_is_silent(self, tmp_path, capsys):
        # a 5 m cell: from 10 m/s on, v*t_mts >= 2a and every chord is
        # crossed too fast, so the law reads exactly 1 without a warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["analyze", "--op", "hof", "--radius", "5",
                       "--out", str(tmp_path)])
        assert rc == 0
        assert caught == []
        assert capsys.readouterr().err == ""
        rows = [row.split(",") for row in
                (tmp_path / "analyze_hof.csv").read_text().splitlines()[1:]]
        tail = [row[-1] for row in rows if float(row[1]) >= 10.0]
        assert tail == ["1.0"] * 7

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

    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    def test_unreadable_config_exit_2(self, tmp_path, capsys, kind):
        path = tmp_path / "run.cfg"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"seed = 1\n\xff\xfe = 2\n")
        out = tmp_path / "out"
        rc = main(["simulate", "--seed", "1", "--config", str(path),
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(path) in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("under_file", [False, True])
    @pytest.mark.parametrize("via_env", [False, True])
    def test_unusable_outdir_exit_2(self, tmp_path, capsys, monkeypatch,
                                    under_file, via_env):
        blocker = tmp_path / "taken"
        blocker.write_text("a file, not a directory\n")
        out = blocker / "sub" if under_file else blocker
        argv = ["analyze", "--op", "coverage"]
        if via_env:
            monkeypatch.setenv("MMWCACHE_OUT", str(out))
        else:
            argv += ["--out", str(out)]
        rc = main(argv)
        assert rc == 2
        err = capsys.readouterr().err
        assert str(out) in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert blocker.read_text() == "a file, not a directory\n"

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

        def capture(walk, *args, **kwargs):
            walks.append((walk.scn, walk.origin))
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

    def test_verify_geometry_suite_reaches_criteria_2_and_5(self, tmp_path):
        rc = main(["verify", "--suite", "geometry", "--seed", "7",
                   "--out", str(tmp_path)])
        assert rc == 0
        report = (tmp_path / "verify_report.txt").read_text()
        for name in ("coverage", "caching-duration KS", "HOF"):
            assert name in report

    @pytest.mark.parametrize("name", ["mc_caching_duration",
                                      "mc_hof_frequency"])
    def test_verify_geometry_suite_fails_on_a_biased_oracle(
            self, tmp_path, monkeypatch, capsys, name):
        from mmwcache import oracle
        honest = getattr(oracle, name)

        def biased(*args, **kwargs):
            out = honest(*args, **kwargs)
            if name == "mc_caching_duration":
                return oracle.EmpiricalCdf(out.samples * 1.1)
            return out[0] + 0.02, out[1]

        monkeypatch.setattr(oracle, name, biased)
        rc = main(["verify", "--suite", "geometry", "--seed", "7",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "[FAIL] geometry" in capsys.readouterr().out

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
        (["simulate", "--set", "sbs_powers_dbm=24,inf"], "sbs_powers_dbm"),
        # a deleted key
        (["match", "--set", "n_mues=4"], "n_mues"),
        # out-of-range game and scan settings
        (["match", "--set", "p_th_min=0.3"], "p_th_min"),
        (["match", "--set", "p_th_min=-0.1"], "p_th_min"),
        (["match", "--set", "p_th_max=1.5"], "p_th_max"),
        (["match", "--set", "energy_per_scan=-0.003"], "energy_per_scan"),
        (["match", "--set", "scan_interval=0"], "scan_interval"),
        (["simulate", "--set", "scan_interval=-1"], "scan_interval"),
        # rate_vs_distance: coverage needs 2 beams, every heading must
        # cross the sector
        (["analyze", "--op", "rate", "--set", "n_beams=1"], "n_beams"),
        (["analyze", "--op", "rate", "--set", "beamwidth_deg=25"],
         "beamwidth_deg"),
        # link and microwave values that must be positive, and powers
        # beyond floating-point range
        (["simulate", "--set", "bandwidth=-1"], "bandwidth"),
        (["simulate", "--set", "carrier_frequency=0"], "carrier_frequency"),
        (["simulate", "--set", "pathloss_los=0"], "pathloss_los"),
        (["analyze", "--op", "rate", "--set", "pathloss_nlos=0"],
         "pathloss_nlos"),
        (["simulate", "--set", "uw_carrier_frequency=0"],
         "uw_carrier_frequency"),
        (["simulate", "--set", "uw_pathloss_exponent=0"],
         "uw_pathloss_exponent"),
        (["simulate", "--set", "uw_pathloss_exponent=-1"],
         "uw_pathloss_exponent"),
        (["match", "--set", "sbs_powers_dbm=1e9"], "sbs_powers_dbm"),
        (["analyze", "--op", "rate", "--set", "sbs_powers_dbm=1e9"],
         "sbs_powers_dbm"),
        (["match", "--set", "uw_pathloss_exponent=1e-300"],
         "sbs_powers_dbm"),
        (["simulate", "--set", "noise_psd_dbm_hz=1e9"],
         "noise_psd_dbm_hz"),
        # wavelengths, a path gain and a noise floor beyond floating-point
        # range
        (["simulate", "--set", "carrier_frequency=1e-300"],
         "carrier_frequency"),
        (["analyze", "--op", "rate", "--set", "carrier_frequency=1e-200"],
         "carrier_frequency"),
        (["match", "--set", "uw_carrier_frequency=1e-300"],
         "uw_carrier_frequency"),
        (["simulate", "--set", "noise_psd_dbm_hz=-1e300"],
         "noise_psd_dbm_hz"),
        # a cell radius so wide that the region geometry loses its
        # precision, an SNR past floating-point range at 1 m (the
        # closed-form rate gave nan), and a power of 0 W
        (["match", "--set", "uw_carrier_frequency=1e-290"],
         "uw_carrier_frequency"),
        (["analyze", "--op", "rate", "--set", "carrier_frequency=1e-140"],
         "carrier_frequency"),
        (["reproduce", "--replications", "2", "--set",
          "carrier_frequency=1e-140"], "carrier_frequency"),
        (["analyze", "--op", "rate", "--set", "bandwidth=1e-310"],
         "bandwidth"),
        (["simulate", "--set", "sbs_powers_dbm=-3900", "--set",
          "uw_carrier_frequency=1e-200", "--set", "uw_pathloss_exponent=100"],
         "sbs_powers_dbm"),
        # analyze options that the op does not read
        (["analyze", "--op", "cdf", "--n", "0"], "--n does not apply"),
        (["analyze", "--op", "hof", "--n", "3"], "--n does not apply"),
        (["analyze", "--op", "rate", "--n", "3"], "--n does not apply"),
        (["analyze", "--op", "hof", "--theta", "1"], "--theta does not apply"),
        (["analyze", "--op", "cdf", "--theta", "1"], "--theta does not apply"),
        (["analyze", "--op", "rate", "--theta", "1"], "--theta does not apply"),
        (["analyze", "--op", "coverage", "--radius", "20"],
         "--radius does not apply"),
        (["analyze", "--op", "rate", "--radius", "20"],
         "--radius does not apply"),
        # a region too large to allocate, refused before any draw
        (["match", "--users", "100000000000"], "user"),
        # deployments whose squared extents overflow a double: a cell
        # radius of 3e155 m (OverflowError) and an area whose crossing
        # tests read nan as a miss
        (["match", "--set", "area_radius=1e150", "--set",
          "uw_pathloss_exponent=0.04006"], "uw_pathloss_exponent"),
        (["simulate", "--set", "area_radius=1e160"], "area_radius")])
    def test_bad_matching_and_radio_values_exit_2(self, tmp_path, capsys,
                                                  argv, message):
        rc = main(argv + ["--seed", "1", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("argv", [
        ["simulate", "--set", "segment_size_bits=1e-300"],
        ["reproduce", "--replications", "2", "--set",
         "segment_size_bits=1e-320"]])
    def test_burst_beyond_float_range_fills_the_cache(self, tmp_path, capsys,
                                                      argv):
        # rate * duration / segment size overflows to inf segments
        assert main(argv + ["--seed", "1", "--out", str(tmp_path)]) == 0
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["--replications", "2", "--set", "n_sbs=0"], "n_sbs"),
        (["--replications", "1"], "stderr_nocache"),
        (["--replications", "0"], "replications"),
        (["--replications", "2", "--threads", "0"], "threads"),
        (["--replications", "2", "--set", "n_beams=1"], "n_beams"),
        (["--replications", "2", "--set", "beamwidth_deg=25"],
         "beamwidth_deg"),
        (["--replications", "2", "--set", "beamwidth_deg=20"],
         "beamwidth_deg"),
        (["--replications", "2", "--set", "pathloss_nlos=0"],
         "pathloss_nlos")])
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

    def test_unknown_analyze_op_exit_2(self, tmp_path, capsys):
        # argparse refuses an --op outside its choices before the command runs
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--op", "bogus", "--seed", "1",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("argv", [
        ["match", "--seed", "-5"], ["simulate", "--seed", "-2"],
        ["verify", "--seed", "-3"], ["reproduce", "--seed", "-1"],
        ["match", "--seed", "1", "--set", "seed=-4"],
        ["verify", "--set", "seed=-6"]])
    def test_negative_seed_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        rc = main(argv + ["--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "seed must be >= 0" in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", [["match"], ["simulate"],
                                         ["verify"], ["reproduce"]])
    def test_negative_seed_in_config_file_exit_2(self, tmp_path, capsys,
                                                 command):
        path = tmp_path / "neg.cfg"
        path.write_text("seed = -7\n")
        out = tmp_path / "out"
        rc = main(command + ["--config", str(path), "--out", str(out)])
        assert rc == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_required_for_reproducible_commands(self, tmp_path):
        rc = main(["match", "--users", "4", "--out", str(tmp_path)])
        assert rc == 2
        rc = main(["reproduce", "--out", str(tmp_path)])
        assert rc == 2


# Each command at its smallest size, for the extreme-value sweep.
_SMALLEST = (["match", "--users", "5"], ["simulate"],
             ["analyze", "--op", "rate"], ["analyze", "--op", "hof"],
             ["analyze", "--op", "cdf"], ["verify", "--suite", "rate"],
             ["reproduce", "--replications", "2"])
_FLOAT_KEYS = [name for name, value in vars(ScenarioConfig()).items()
               if isinstance(value, float)]


def _hang(signum, frame):
    raise TimeoutError("a run outlasted its alarm")


def test_extreme_values_exit_0_or_2(tmp_path, capsys):
    """Every float key at extreme magnitudes, each run by two commands at
    their smallest size, exits 0 or 2, raises no Python warning and on exit 2
    gives a one-line diagnostic. Each run has 10 s, so a hang fails."""
    magnitudes = ("1e-300", "1e-100", "1e-6", "1e10", "1e100", "1e300")
    settings = [f"{key}={m}" for key in _FLOAT_KEYS for m in magnitudes]
    # two commands per setting, in turn: every key meets every command
    runs = [(_SMALLEST[(2 * i + j) % len(_SMALLEST)], setting)
            for i, setting in enumerate(settings) for j in (0, 1)]
    assert {tuple(argv) for argv, _ in runs} == set(map(tuple, _SMALLEST))
    # a focal SBS ~1.8e9 m out, whose rim point once rounded outside the
    # cell, so that a nearly tangent region ray missed it (exit 1)
    assert (_SMALLEST[-1], "area_radius=1e10") in runs
    previous = signal.signal(signal.SIGALRM, _hang)
    try:
        for argv, setting in runs:
            signal.alarm(10)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc = main(argv + ["--seed", "1", "--set", setting,
                                  "--out", str(tmp_path)])
            signal.alarm(0)
            err = capsys.readouterr().err
            assert (rc, [str(w.message) for w in caught]) in \
                ((0, []), (2, [])), (argv, setting, rc, err)
            if rc == 2:
                assert len(err.strip().splitlines()) == 1, (argv, setting)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
