"""The benchmark tracer's contract with the program.

`perfbench/tracer.py` wraps program functions by name and reads fields of
their results. This test installs it, plays one stability game and three
small experiments through the wrapped names, and checks that every span
recorded a call and that uninstalling restores every name, so renaming or
deleting what the tracer reads fails here rather than in a traced
benchmark run.
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
    finally:
        rec.uninstall()
    assert rec.unrestored() == []
    silent = [f"{mod}.{fn}" for mod, fn, _ in tracer.SPANNED
              if not rec.counters.get(f"{mod}.{fn}.calls")]
    assert silent == []
    assert rec.counters["matching.build_preferences.plans"] > 0
    assert rec.counters["matching.stage1.proposals"] > 0
