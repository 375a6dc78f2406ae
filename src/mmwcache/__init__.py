"""Cache-enabled mobility management for dual-mode mmW/microwave networks.

Subpackages: geometry (beams, chords, coverage), radio (path loss and
caching rate), caching (device cache accounting), matching (two-period
dynamic matching game), oracle (brute-force and Monte Carlo verification),
scenario/experiments (deployment generation and result reproduction), cli
(command-line front end).
"""

__version__ = "0.1.0"

from .geometry import (BeamGeometry, CellDisk, Pose,
                       beam_coverage_probability, beam_traverse_distance,
                       caching_duration_cdf, chord_length_pdf,
                       expected_cache_traverse_distance, hof_probability,
                       min_exit_distance)
from .radio import (AntennaPattern, ChannelParams, LinkBudget,
                    antenna_gain_db, average_caching_rate,
                    instantaneous_rate, path_loss_db, quadrature_rate)
from .caching import (CacheState, EnergyModel, cache_fill, coast_distance,
                      next_scan_interval, scan_energy, skipped_sbs_count)
from .matching import (GameInstance, MueState, Plan, PlayerId, SbsState,
                       build_preferences, deferred_acceptance, dynamic_match,
                       find_blocking_pairs, mue_utility, sbs_utility,
                       signaling_overhead)
from .oracle import (IlpInstance, mc_caching_duration, mc_coverage_probability,
                     scan_all_blockings, solve_offload_bruteforce)
from .scenario import Scenario, generate_scenario
from .experiments import ExperimentResult, run_experiment
from .config import ScenarioConfig, load_config
