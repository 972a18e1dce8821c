"""Properties of the algorithms and metrics over small random scenarios.

Each test draws a small config (at most 4 cells in a co-channel group and 4
power levels, so the exhaustive searches stay at desk scale) and a drop
seed from derandomized Hypothesis, so every run checks the same examples.
"""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from twotier_ee.baselines import brute_force_group, ngt_best_response
from twotier_ee.config import DEFAULT_POWER_LEVELS, NetworkConfig
from twotier_ee.egt import new_games, run_algorithm1
from twotier_ee.linklevel import compute_link_metrics, ordered_sum, sample_link_context

SETTINGS = settings(derandomize=True, max_examples=100, deadline=None)


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
