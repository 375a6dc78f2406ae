"""Print the per-experiment time table of ROADMAP's baseline.

    python3 perfbench/table.py [--reps 20] [--seed 1] [--runs 3]

Runs the six experiments of `mmwcache reproduce` with threads=1, untraced,
and reads each one's `experiments.run_experiment.<experiment>.time_s`: the
`runtime_s` that `run_experiment` measures itself, as the traced run
records it. Each row is the median of --runs runs. The times are raw
wall seconds, not calibrated; the reference loop's median time over the
runs is printed beside them, to tell how fast the machine was (see
`run.reference`).
"""

from __future__ import annotations

import argparse
import statistics
import sys

from run import REF_S, import_program, reference

ORDER = ("hof_vs_speed", "hof_multiuser", "load_vs_users", "energy_vs_users",
         "overhead_vs_users", "rate_vs_distance")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args(argv)
    if args.reps < 2 or args.runs < 1:
        parser.error("--reps must be at least 2 and --runs at least 1")

    prog = import_program()
    cfg = prog.config.ScenarioConfig(seed=args.seed)
    samples = {name: [] for name in ORDER}
    refs = [reference()]
    for _ in range(args.runs):
        for name in ORDER:
            samples[name].append(prog.experiments.run_experiment(
                name, cfg, args.reps, 1).runtime_s)
            refs.append(reference())

    print(f"Per experiment at {args.reps} reps, seed {args.seed}, threads=1, "
          f"median of {args.runs} runs (reference loop "
          f"{statistics.median(refs):.4f} s; REF_S {REF_S} s):\n")
    print("| experiment | time |")
    print("|---|---|")
    for name in ORDER:
        print(f"| {name} | {statistics.median(samples[name]):.2f} s |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
