"""The benchmark tracer's contract with the program.

`perfbench/tracer.py` wraps program functions by name and reads fields of
their results. This test installs it, plays one stability game, three
small experiments and the four region curves in one joint sweep through
the wrapped names, and checks that every span and every counted utility
the run reaches recorded a call and that uninstalling restores every
name, so renaming or deleting what the tracer reads, or a rate path that
bypasses a traced name, fails here rather than in a traced benchmark run.
"""

import importlib
from pathlib import Path

import numpy as np

from mmwcache import experiments, matching, oracle, testutil
from mmwcache.config import ScenarioConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    rec = tracer.Recorder()
    rec.install()
    try:
        game = testutil.random_game_instance(np.random.default_rng(3))
        with rec.item():
            result = matching.dynamic_match(game)
            oracle.scan_all_blockings(result.matching, game)
            mu, _ = matching.deferred_acceptance(game)
            matching.find_single_period_blocking(mu, game)
        config = ScenarioConfig(seed=1)
        for name, reps in (("hof_vs_speed", 2), ("rate_vs_distance", 1),
                           ("hof_multiuser", 1)):
            with rec.item():
                experiments.run_experiment(name, config, reps)
        calls = rec.counters["experiments.build_region_instance.calls"]
        tables = rec.counters["matching.build_preferences.calls"]
        with rec.item():
            experiments.run_experiments(experiments.REGION_EXPERIMENTS,
                                        config, 1)
        # the joint sweep builds its one instance through the traced name,
        # and ranks one table per speed through the traced name: the 4 of
        # the user sweeps and hof_multiuser's 12 others
        assert rec.counters["experiments.build_region_instance.calls"] == \
            calls + 1
        assert rec.counters["matching.build_preferences.calls"] == \
            tables + 16
    finally:
        rec.uninstall()
    assert rec.unrestored() == []
    silent = [f"{mod}.{fn}" for mod, fn, _ in tracer.SPANNED
              if not rec.counters.get(f"{mod}.{fn}.calls")]
    assert silent == []
    # matching.mue_utility and matching.sbs_utility are counted too, but no
    # program code calls them
    uncounted = [name for name in ("radio.instantaneous_rate",
                                   "caching.cache_fill", "caching.cache_drain",
                                   "geometry.hof_probability")
                 if not rec.counters.get(f"{name}.calls")]
    assert uncounted == []
    assert rec.counters["matching.build_preferences.plans"] > 0
    assert rec.counters["matching.stage1.proposals"] > 0


def test_traced_trajectory_counts_are_pinned(monkeypatch):
    # every fill and drain of the walk goes through a traced name: a
    # change that moves one off `caching.cache_fill` / `caching.cache_drain`
    # (or changes the walk) moves these counts
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    rec = tracer.Recorder()
    rec.install()
    try:
        with rec.item():
            experiments.run_experiment("hof_vs_speed", ScenarioConfig(seed=1),
                                       2)
    finally:
        rec.uninstall()
    assert rec.unrestored() == []
    assert {name: rec.counters.get(name) for name in (
        "caching.cache_fill.calls", "caching.cache_drain.calls",
        "experiments.simulate_trajectory.calls",
        "experiments.trajectory.crossings",
        "experiments.trajectory.attempts", "experiments.trajectory.skips",
        "experiments.trajectory.failures")} == {
        "caching.cache_fill.calls": 139, "caching.cache_drain.calls": 206,
        "experiments.simulate_trajectory.calls": 34,
        "experiments.trajectory.crossings": 223,
        "experiments.trajectory.attempts": 152,
        "experiments.trajectory.skips": 71,
        "experiments.trajectory.failures": 7}
