"""Energy-efficient uplink power control in a two-tier network.

A massive-MIMO macro cell and K small cells share N OFDMA subcarriers;
every user picks a discrete transmit power level.  The package provides
the link-level machinery (geometry, fading, combining, SINR, energy
efficiency), a distributed evolutionary power-control algorithm with
replicator-dynamics analysis, exhaustive-search and best-response
baselines, and a seeded experiment harness with a CSV-emitting CLI.
"""

from .config import ConfigError, DEFAULT_POWER_LEVELS, NetworkConfig, \
    format_config, load_config, parse_config
from .topology import ChannelRealization, PlacementError, \
    Topology, draw_shadowing, large_scale_gain, sample_channels, \
    sample_large_scale_fading, sample_topology
from .linklevel import LinkContext, LinkMetrics, \
    build_combiners, compute_link_metrics, mrc_combiner, \
    sample_link_context, sinr, validate_power_profile
from .egt import EgtResult, GameState, egt_step, new_games, run_algorithm1
from .replicator import Trajectory, equilibrium_stability, integrate_replicator, \
    replicator_rhs
from .baselines import NgtResult, OracleResult, SizeGuardError, \
    brute_force_global, brute_force_group, ngt_best_response
from .harness import ALGORITHMS, ExperimentSpec, RunRecord, SWEEP_PARAMETERS, \
    SweepRow, SweepSpec, child_seed, emit_results, emit_sweep, jain_index, \
    parse_results, run_drops, sweep

__version__ = "0.1.0"
