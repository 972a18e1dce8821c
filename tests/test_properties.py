"""Properties of the algorithms and metrics over small random scenarios.

Each test draws a small config (at most 4 cells in a co-channel group and 4
power levels, so the exhaustive searches stay at desk scale) and a drop
seed from derandomized Hypothesis, so every run checks the same examples.
Two more properties run whole drops: a config at the edge of the float
range is refused, or each of its drops gives a finite row or an error that
names the quantity at fault, with no numpy warning; and scaling every
power and the bandwidth by 2^k divides every EE by exactly 2^k and changes
nothing else.
"""

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from twotier_ee.baselines import brute_force_group, ngt_best_response
from twotier_ee.config import ConfigError, DEFAULT_POWER_LEVELS, NetworkConfig, load_config
from twotier_ee.egt import new_games, run_algorithm1
from twotier_ee.harness import ExperimentSpec, run_drops
from twotier_ee.linklevel import compute_link_metrics, ordered_sum, sample_link_context

SETTINGS = settings(derandomize=True, max_examples=100, deadline=None)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@st.composite
def small_configs(draw):
    n_subcarriers = draw(st.integers(1, 3))
    return NetworkConfig(
        n_small_cells=draw(st.integers(0, 3)),
        n_subcarriers=n_subcarriers,
        n_users_per_cell=draw(st.integers(1, n_subcarriers)),
        n_antennas_mbs=draw(st.sampled_from([4, 16, 128])),
        noise_psd_dbm_per_hz=draw(st.floats(-204.0, -154.0)),
        power_levels=DEFAULT_POWER_LEVELS[::2][:draw(st.integers(2, 4))],
    )


def drop(config, seed):
    return sample_link_context(config, np.random.default_rng(seed))


@SETTINGS
@given(config=small_configs(), seed=st.integers(0, 2**32))
def test_converged_ngt_profile_is_a_nash_equilibrium(config, seed):
    ctx = drop(config, seed)
    res = ngt_best_response(ctx, np.random.default_rng(seed))
    assume(res.converged)
    held = compute_link_metrics(ctx, res.profile).ee
    for link in ctx.topology.links():
        for p in config.power_levels:
            moved = compute_link_metrics(ctx, {**res.profile, link: p}).ee[link]
            assert moved <= held[link] * (1 + 1e-12), (link, p)


@SETTINGS
@given(config=small_configs(), seed=st.integers(0, 2**32))
def test_group_oracle_dominates_egt_on_every_subcarrier(config, seed):
    ctx = drop(config, seed)
    rng = np.random.default_rng(seed)
    group_ee = compute_link_metrics(ctx, run_algorithm1(new_games(ctx, rng), ctx, rng).profile) \
        .group_ee
    for sc in ctx.topology.occupied_subcarriers():
        # the oracle enumerates EGT's choice on sc and sums it in the same order
        assert group_ee[sc] <= brute_force_group(sc, ctx).objective


@SETTINGS
@given(config=small_configs(), seed=st.integers(0, 2**32))
def test_network_ee_is_the_ordered_sum_of_group_ee(config, seed):
    ctx = drop(config, seed)
    rng = np.random.default_rng(seed)
    levels = config.power_levels
    profile = {link: levels[int(rng.integers(len(levels)))] for link in ctx.topology.links()}
    metrics = compute_link_metrics(ctx, profile)
    assert metrics.network_ee == ordered_sum(metrics.group_ee.values())
    assert math.isclose(sum(metrics.cell_totals(config.n_cells)), metrics.network_ee,
                        rel_tol=1e-12)


@SETTINGS
@given(config=small_configs(), seed=st.integers(0, 2**32))
def test_algorithm_profiles_give_finite_nonnegative_metrics(config, seed):
    ctx = drop(config, seed)
    rng = np.random.default_rng(seed)
    oracle = {}
    for sc in ctx.topology.occupied_subcarriers():
        oracle.update(brute_force_group(sc, ctx).profile)
    for profile in (run_algorithm1(new_games(ctx, rng), ctx, rng).profile,
                    ngt_best_response(ctx, rng).profile, oracle):
        metrics = compute_link_metrics(ctx, profile)
        for value in [*metrics.ee.values(), *metrics.group_ee.values(),
                      *metrics.cell_totals(config.n_cells), metrics.network_ee]:
            assert 0.0 <= value < math.inf


@SETTINGS
@given(config=small_configs(), seed=st.integers(0, 2**32))
def test_egt_converges_within_level_count(config, seed):
    ctx = drop(config, seed)
    rng = np.random.default_rng(seed)
    n_levels = config.n_power_levels
    result = run_algorithm1(new_games(ctx, rng), ctx, rng, max_iterations=n_levels)
    assert result.converged
    assert result.iterations <= n_levels
    assert all(len(trace) <= n_levels for trace in result.traces.values())


# the float fields a boundary config sets to extreme magnitudes, three at a time
_BOUNDARY_FIELDS = ("macro_radius", "small_radius", "path_loss_exponent", "shadowing_std_db",
                    "antenna_constant", "subcarrier_bandwidth_hz", "circuit_power")
# what a failed drop's error must name: a config field, a metric, or the channel
# or placement at fault, never a bare Python or numpy exception text
_QUANTITY = re.compile("|".join([*(f.name for f in dataclasses.fields(NetworkConfig)),
                                 "network_ee", "cell_ee", "jain", "channel", "small cells",
                                 "group EE", "network EE"]))


@st.composite
def boundary_configs(draw):
    """Keyword arguments of a K <= 3, N = 2 config with three float fields and the
    noise PSD drawn across the float range; NetworkConfig may refuse them."""
    kw = dict(n_small_cells=draw(st.integers(0, 3)), n_subcarriers=2,
              n_users_per_cell=draw(st.integers(1, 2)),
              noise_psd_dbm_per_hz=draw(st.floats(-3000.0, 3000.0)))
    for name in draw(st.permutations(_BOUNDARY_FIELDS))[:3]:
        # log-uniform magnitudes from 5e-324 (subnormal) to 1.7e308
        kw[name] = 10.0 ** draw(st.floats(-323.3, 308.23))
    return kw


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, max_examples=300, deadline=None)
@given(kw=boundary_configs())
def test_boundary_config_is_refused_or_each_drop_names_its_outcome(kw):
    try:
        config = NetworkConfig(**kw)
    except ConfigError:
        return
    for algorithm in ("egt", "ngt", "brute-group"):
        for r in run_drops(ExperimentSpec(config=config, algorithm=algorithm, n_drops=2)):
            if r.error is None:
                assert all(map(math.isfinite, [r.network_ee, r.jain, *r.cell_ee])), r
            else:
                assert _QUANTITY.search(r.error), r.error


def _scaled(config, k):
    """`config` with every power level, circuit_power and the bandwidth times 2^k."""
    return dataclasses.replace(
        config, power_levels=tuple(math.ldexp(p, k) for p in config.power_levels),
        circuit_power=math.ldexp(config.circuit_power, k),
        subcarrier_bandwidth_hz=math.ldexp(config.subcarrier_bandwidth_hz, k))


@pytest.mark.bitexact
@settings(derandomize=True, max_examples=40, deadline=None)
@given(k=st.integers(-8, 8), case=st.sampled_from(
    [(name, algorithm) for name in ("tiny", "two_cell_reference", "sparse_load")
     for algorithm in ("egt", "ngt", "brute-group")] + [("tiny", "brute-global")]))
def test_power_scaling_divides_every_ee_exactly(k, case):
    # the noise power's last factor is the bandwidth, so every SINR is the same
    # float, each EE is divided by exactly 2^k, and no decision changes
    name, algorithm = case
    config = load_config(CONFIGS / f"{name}.cfg")
    spec = ExperimentSpec(config=config, algorithm=algorithm, n_drops=3)
    base = run_drops(spec)
    moved = run_drops(dataclasses.replace(spec, config=_scaled(config, k)))
    for a, b in zip(base, moved, strict=True):
        assert a.error is None and b.error is None
        assert (b.jain, b.iterations, b.evaluations, b.converged) == \
            (a.jain, a.iterations, a.evaluations, a.converged)
        assert b.network_ee == math.ldexp(a.network_ee, -k)
        assert b.cell_ee == [math.ldexp(v, -k) for v in a.cell_ee]
        assert b.traces == {sc: [math.ldexp(v, -k) for v in trace]
                            for sc, trace in a.traces.items()}
