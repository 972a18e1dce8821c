"""The exhaustive oracles and the selfish best response on hand-built instances,
ties included.
"""

import numpy as np
import pytest

from twotier_ee import baselines
from twotier_ee.baselines import (
    SizeGuardError, brute_force_global, brute_force_group, ngt_best_response,
)
from twotier_ee.config import NetworkConfig
from twotier_ee.linklevel import compute_link_metrics, sample_link_context


def cfg(**kw):
    base = dict(n_small_cells=1, n_subcarriers=2, n_users_per_cell=2)
    base.update(kw)
    return NetworkConfig(**base)


def make_context(seed=0, **kw):
    return sample_link_context(cfg(**kw), np.random.default_rng(seed))


class TestGroupOracle:
    def test_empty_subcarrier_rejected(self):
        ctx = make_context(4, n_subcarriers=6, n_users_per_cell=1)
        occupied = set(ctx.topology.occupied_subcarriers())
        free = [sc for sc in range(6) if sc not in occupied]
        assert free
        with pytest.raises(ValueError, match=f"subcarrier {free[0]} has no users"):
            brute_force_group(free[0], ctx)

    def test_size_guard_trips_on_wide_level_grid(self):
        # three co-channel players with 2048 levels is 2^33 joint choices
        levels = tuple(1e-4 * (k + 1) for k in range(2048))
        ctx = make_context(5, n_small_cells=2, n_subcarriers=1,
                           n_users_per_cell=1, power_levels=levels)
        with pytest.raises(SizeGuardError):
            brute_force_group(0, ctx)
        # exactly 2^30 profiles pass
        baselines._guard("group", 2, 30, baselines._GROUP_GUARD_BITS)


def test_all_tied_levels_break_toward_the_lowest():
    # every EE underflows to 0.0, so every level ties: ngt and both oracles keep the first
    config = NetworkConfig(n_small_cells=2, n_subcarriers=3, n_users_per_cell=3,
                           antenna_constant=1e-30, power_levels=(0.001, 0.01, 0.1))
    ctx = sample_link_context(config, np.random.default_rng(0))
    assert set(compute_link_metrics(ctx, {link: 0.1 for link in ctx.topology.links()})
               .ee.values()) == {0.0}
    profiles = [ngt_best_response(ctx, np.random.default_rng(1)).profile,
                brute_force_global(ctx).profile]
    profiles += [brute_force_group(sc, ctx).profile for sc in ctx.topology.occupied_subcarriers()]
    assert sum(map(len, profiles)) == 3 * len(ctx.topology.links())
    assert {p for profile in profiles for p in profile.values()} == {0.001}


class TestBestResponseDynamics:
    def test_single_player_lands_on_own_argmax(self):
        ctx = make_context(10, n_small_cells=0, n_subcarriers=1, n_users_per_cell=1)
        res = ngt_best_response(ctx, np.random.default_rng(10))
        assert res.converged
        assert res.rounds <= 1
        (link,) = ctx.topology.links()
        values = [compute_link_metrics(ctx, {link: p}).ee[link]
                  for p in ctx.config.power_levels]
        assert res.profile[link] == ctx.config.power_levels[int(np.argmax(values))]

    def test_fixed_point_is_nash_equilibrium(self):
        for seed in range(5):
            ctx = make_context(seed, n_small_cells=2, n_subcarriers=3,
                               n_users_per_cell=3)
            res = ngt_best_response(ctx, np.random.default_rng(seed))
            assert res.converged
            base = compute_link_metrics(ctx, res.profile).ee
            for link in ctx.topology.links():
                held = res.profile[link]
                for p in ctx.config.power_levels:
                    trial = dict(res.profile)
                    trial[link] = p
                    assert compute_link_metrics(ctx, trial).ee[link] <= \
                        base[link] * (1 + 1e-12)
                assert res.profile[link] == held

    def test_evaluation_count_per_pass(self):
        ctx = make_context(11)
        res = ngt_best_response(ctx, np.random.default_rng(11))
        passes = res.rounds + (1 if res.converged else 0)
        n_links = len(ctx.topology.links())
        assert res.evaluations == 8 * n_links * passes

    def test_round_cap_reports_non_convergence(self, monkeypatch):
        ctx = make_context(12, n_small_cells=2, n_subcarriers=3, n_users_per_cell=3)
        full = ngt_best_response(ctx, np.random.default_rng(12))
        assert full.rounds >= 1      # the cap below actually binds
        monkeypatch.setattr(baselines, "_MAX_ROUNDS", 1)
        capped = ngt_best_response(ctx, np.random.default_rng(12))
        assert not capped.converged
        assert capped.rounds == 1

    def test_profile_covers_every_link(self):
        ctx = make_context(14)
        res = ngt_best_response(ctx, np.random.default_rng(14))
        assert set(res.profile) == set(ctx.topology.links())
        assert all(p in ctx.config.power_levels for p in res.profile.values())
