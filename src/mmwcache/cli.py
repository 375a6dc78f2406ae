"""Command-line entry point.

Subcommands: analyze (closed-form sweeps), simulate (trajectory/handover
simulation), match (one matching instance with trace), verify (oracle
suites with pass/fail summary), reproduce (all experiments). Exit status 0
on success, 1 on failed verification, 2 on configuration errors and on
deployments that cannot be packed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import Counter
from dataclasses import replace
from typing import List, Optional

import numpy as np

from . import __version__, experiments, geometry, matching, oracle
from .config import ConfigError, ScenarioConfig, apply_overrides, load_config
from .experiments import EXPERIMENT_NAMES, run_experiment
from .scenario import PackingFailure, generate_scenario

DEFAULT_OUT_ENV = "MMWCACHE_OUT"


def _load(args, require_seed: bool = False) -> ScenarioConfig:
    if require_seed and args.seed is None and not args.config:
        raise ConfigError(
            f"{args.command} requires --seed (or a config file with one) "
            "for reproducible runs")
    config = load_config(args.config) if args.config else ScenarioConfig()
    if args.set:
        config = apply_overrides(config, args.set)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return config


def _outdir(args) -> str:
    out = args.out or os.environ.get(DEFAULT_OUT_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def cmd_analyze(args) -> int:
    config = _load(args)
    rows = ["op,arg1,arg2,value"]
    if args.radius is not None and not 0.0 < args.radius < math.inf:
        raise ConfigError(
            f"--radius must be positive and finite, got {args.radius!r}")
    if args.op == "coverage":
        n = args.n if args.n is not None else config.n_beams
        theta = args.theta if args.theta is not None \
            else math.radians(config.beamwidth_deg)
        if n < 2:
            raise ConfigError(f"coverage needs at least 2 beams (--n or "
                              f"n_beams), got {n!r}")
        if not theta > 0.0 or geometry.beam_span_exceeds_circle(n, theta):
            raise ConfigError(f"--theta must be positive with {n} beams "
                              f"spanning at most 2*pi, got {theta!r}")
        value = geometry.beam_coverage_probability(n, theta)
        rows.append(f"coverage,{n},{theta!r},{value!r}")
    elif args.op == "hof":
        speeds = [float(s) for s in range(1, 17)]
        radius = args.radius if args.radius is not None else 30.0
        for v in speeds:
            value = geometry.hof_probability(v, config.t_mts, radius)
            rows.append(f"hof,{v!r},{radius!r},{value!r}")
    elif args.op == "cdf":
        radius = args.radius if args.radius is not None else 20.0
        beam = geometry.BeamGeometry(
            n_beams=config.n_beams,
            beamwidth=math.radians(config.beamwidth_deg),
            anchor_angle=math.radians(config.beamwidth_deg))
        pose = geometry.entry_pose(beam, radius,
                                   heading=beam.anchor_angle + 1.0, speed=10.0)
        for i in range(1, 101):
            t = 0.05 * i
            value = geometry.caching_duration_cdf(pose, beam, t)
            rows.append(f"cdf,{t!r},{radius!r},{value!r}")
    elif args.op == "rate":
        result = experiments.run_experiment("rate_vs_distance", config,
                                            replications=1)
        out = _outdir(args)
        _write(os.path.join(out, "analyze_rate.csv"), result.to_csv())
        print(os.path.join(out, "analyze_rate.csv"))
        return 0
    else:
        print(f"unknown analyze op {args.op!r}", file=sys.stderr)
        return 2
    path = os.path.join(_outdir(args), f"analyze_{args.op}.csv")
    _write(path, "\n".join(rows) + "\n")
    print(path)
    return 0


def cmd_simulate(args) -> int:
    config = _load(args, require_seed=True)
    speed = args.speed if args.speed is not None \
        else 0.5 * (config.speed_min + config.speed_max)
    if not 0.0 < speed < math.inf:
        raise ConfigError(f"--speed must be positive and finite, "
                          f"got {speed!r}")
    out = _outdir(args)
    scn = generate_scenario(config)
    # the walk's own stream: seeded with config.seed alone, it would
    # repeat the deployment's first draws (SBS 0 and the origin would share
    # their doubles)
    rng = np.random.default_rng((config.seed, 1))
    r = config.area_radius * 0.5 * math.sqrt(rng.uniform())
    phi = rng.uniform(0.0, 2.0 * math.pi)
    origin = (r * math.cos(phi), r * math.sin(phi))
    heading = float(rng.uniform(0.0, 2.0 * math.pi))
    stats = experiments.simulate_trajectory(scn, origin, heading, speed,
                                            config.frame)
    # one walk gives both users' outcomes; --no-caching prints the
    # conventional user's, which attempts a handover at every crossing
    lines = ["time_s,event,cell,tos_s"]
    for entry in stats.entries:
        if entry.skipped and not args.no_caching:
            kind = "skip"
        else:
            kind = "hof" if entry.tos < config.t_mts else "ho"
        lines.append(f"{entry.time:.3f},{kind},{entry.cell},{entry.tos:.3f}")
    if args.no_caching:
        attempts, failures, skips = (stats.crossings,
                                     stats.conventional_failures, 0)
    else:
        attempts, failures, skips = stats.attempts, stats.failures, stats.skips
    path = os.path.join(out, "simulate_events.csv")
    _write(path, "\n".join(lines) + "\n")
    print(f"{path}: crossings={stats.crossings} attempts={attempts} "
          f"failures={failures} skips={skips}")
    return 0


def cmd_match(args) -> int:
    config = _load(args, require_seed=True)
    rng = np.random.default_rng(config.seed)
    region = experiments.build_region_instance(config, args.users,
                                               args.speed, rng)
    out = _outdir(args)
    result = matching.dynamic_match(region.game)
    sent = Counter(p.mue for p in result.trace.proposals)
    rows = ["mue,period1,period2,proposals_sent"]
    for u in range(len(region.game.mues)):
        rows.append(f"{u},{_name(result.matching.mu1[u])},"
                    f"{_name(result.matching.mu2[u])},{sent[u]}")
    path = os.path.join(out, "match_result.csv")
    _write(path, "\n".join(rows) + "\n")
    report = oracle.scan_all_blockings(result.matching, region.game)
    print(f"{path}: dynamically stable: {report.stable}")
    return 0 if report.stable else 1


def _name(player) -> str:
    if player is None:
        return "cache"
    return repr(player)


def cmd_verify(args) -> int:
    config = _load(args)
    out = _outdir(args)
    suites = {"geometry": _verify_geometry, "rate": _verify_rate,
              "stability": _verify_stability, "ilp": _verify_ilp}
    chosen = list(suites) if args.suite == "all" else [args.suite]
    failures: List[str] = []
    lines = []
    for name in chosen:
        ok, detail = suites[name](config)
        line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
        print(line)
        lines.append(line)
        if not ok:
            failures.append(name)
    _write(os.path.join(out, "verify_report.txt"), "\n".join(lines) + "\n")
    return 1 if failures else 0


def _verify_geometry(config: ScenarioConfig):
    worst = 0.0
    for n in range(2, 7):
        for frac in (0.2, 0.5, 0.8, 1.0):
            theta = frac * 2.0 * math.pi / n
            analytic = geometry.beam_coverage_probability(n, theta)
            est, _ = oracle.mc_coverage_probability(n, theta, 100_000,
                                                    seed=config.seed)
            worst = max(worst, abs(analytic - est))
    return worst < 0.01, f"max |analytic - monte carlo| = {worst:.4f}"


def _verify_rate(config: ScenarioConfig):
    from .radio import ChannelParams, LinkBudget, average_caching_rate, \
        quadrature_rate
    rng = np.random.default_rng(config.seed)
    budget = LinkBudget.from_table()
    params = ChannelParams.los_mmw()
    worst = 0.0
    for _ in range(200):
        theta_k = rng.uniform(math.radians(2), math.radians(25))
        beam = geometry.BeamGeometry(n_beams=3, beamwidth=theta_k,
                                     anchor_angle=theta_k)
        theta_hat = rng.uniform(theta_k + 0.05,
                                0.5 * (math.pi + theta_k) - 0.05)
        pose = geometry.entry_pose(beam, rng.uniform(5.0, 60.0),
                                   heading=theta_hat, speed=10.0)
        closed = average_caching_rate(pose, beam, budget, params)
        quad = quadrature_rate(pose, beam, budget, params)
        worst = max(worst, abs(closed - quad) / abs(quad))
    return worst < 1e-6, f"max relative closed-form error = {worst:.2e}"


def _verify_stability(config: ScenarioConfig):
    from .testutil import random_game_instance
    rng = np.random.default_rng(config.seed)
    for i in range(200):
        game = random_game_instance(rng)
        prefs = matching.build_preferences(game)
        result = matching.dynamic_match(game, preferences=prefs)
        report = oracle.scan_all_blockings(result.matching, game)
        if not report.stable:
            return False, f"instance {i}: {report.lines()[0]}"
        mu, _ = matching.deferred_acceptance(game, preferences=prefs)
        pairs = matching.find_single_period_blocking(mu, game,
                                                     preferences=prefs)
        if pairs:
            return False, f"instance {i}: single-period blocking {pairs[0]}"
    return True, "200 random instances stable (both algorithms)"


def _verify_ilp(config: ScenarioConfig):
    from .testutil import random_game_instance
    rng = np.random.default_rng(config.seed)
    for i in range(100):
        game = random_game_instance(rng, max_mues=5, max_sbss=3)
        result = matching.dynamic_match(game)
        ilp = oracle.ilp_from_game(game)
        best = oracle.solve_offload_bruteforce(ilp)
        assignment = oracle.assignment_from_period1(result.matching, game)
        if not oracle.check_assignment(ilp, assignment):
            return False, f"instance {i}: infeasible period-1 assignment"
        mbs_count = sum(1 for c in assignment if c == oracle.MBS_CHOICE)
        if mbs_count < best.objective:
            return False, f"instance {i}: beat the exhaustive optimum"
    return True, "100 instances: feasible and never below the optimum"


def cmd_reproduce(args) -> int:
    config = _load(args, require_seed=True)
    if args.replications is not None:
        config = replace(config, replications=args.replications)
    for name in EXPERIMENT_NAMES:
        experiments.check_run(name, config, config.replications, args.threads)
    out = _outdir(args)
    manifest = [f"config_digest = {config.digest()}",
                f"seed = {config.seed}",
                f"package = mmwcache {__version__}",
                f"numpy = {np.__version__}"]
    for name in EXPERIMENT_NAMES:
        result = run_experiment(name, config, threads=args.threads)
        path = os.path.join(out, f"{name}.csv")
        _write(path, result.to_csv())
        manifest.append(f"{name}.csv runtime_s = {result.runtime_s:.3f}")
        print(f"wrote {path} ({result.runtime_s:.1f} s)")
    _write(os.path.join(out, "run-manifest.txt"), "\n".join(manifest) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmwcache",
        description="cache-enabled mobility management simulator")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key")
        p.add_argument("--out", default=None, help="output directory "
                       f"(default ${DEFAULT_OUT_ENV} or cwd)")

    p = sub.add_parser("analyze", help="closed-form sweeps to CSV")
    common(p)
    p.add_argument("--op", required=True,
                   choices=("coverage", "cdf", "rate", "hof"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--radius", type=float, default=None)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("simulate", help="single-user trajectory simulation")
    common(p)
    p.add_argument("--speed", type=float, default=None)
    p.add_argument("--no-caching", action="store_true")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("match", help="run one dynamic matching instance")
    common(p)
    p.add_argument("--users", type=int, default=20)
    p.add_argument("--speed", type=float, default=8.0)
    p.set_defaults(fn=cmd_match)

    p = sub.add_parser("verify", help="oracle verification suites")
    common(p)
    p.add_argument("--suite", default="all",
                   choices=("all", "geometry", "rate", "stability", "ilp"))
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("reproduce", help="regenerate all experiment CSVs")
    common(p)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--replications", type=int, default=None)
    p.set_defaults(fn=cmd_reproduce)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PackingFailure as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
