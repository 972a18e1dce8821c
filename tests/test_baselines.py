import math
import re

import numpy as np
import pytest

from twotier_ee.baselines import (
    NgtResult, OracleResult, SizeGuardError,
    brute_force_global, brute_force_group, ngt_best_response,
)
from twotier_ee.config import NetworkConfig
from twotier_ee.egt import new_games, run_algorithm1
from twotier_ee.linklevel import compute_link_metrics, sample_link_context


def cfg(**kw):
    base = dict(n_small_cells=1, n_subcarriers=2, n_users_per_cell=2)
    base.update(kw)
    return NetworkConfig(**base)


def make_context(seed=0, **kw):
    return sample_link_context(cfg(**kw), np.random.default_rng(seed))


class TestGroupOracle:
    def test_single_level_is_forced(self):
        ctx = make_context(0, power_levels=(0.02,))
        res = brute_force_group(0, ctx)
        assert res.evaluations == 1
        assert all(p == 0.02 for p in res.profile.values())

    def test_evaluations_cover_whole_grid(self):
        ctx = make_context(3)
        for sc in ctx.topology.occupied_subcarriers():
            m = len(ctx.topology.cells_on(sc))
            res = brute_force_group(sc, ctx)
            assert res.evaluations == 8 ** m

    def test_objective_dominates_game_outcomes(self):
        for seed in range(5):
            ctx = make_context(seed, n_small_cells=2, n_subcarriers=3,
                               n_users_per_cell=3, power_levels=(0.001, 0.01, 0.1, 0.5))
            rng = np.random.default_rng(seed + 50)
            egt = run_algorithm1(new_games(ctx, rng), ctx, rng)
            ngt = ngt_best_response(ctx, np.random.default_rng(seed + 90))
            egt_ee = compute_link_metrics(ctx, egt.profile).group_ee
            ngt_ee = compute_link_metrics(ctx, ngt.profile).group_ee
            for sc in ctx.topology.occupied_subcarriers():
                cap = brute_force_group(sc, ctx).objective
                assert egt_ee[sc] <= cap * (1 + 1e-12)
                assert ngt_ee[sc] <= cap * (1 + 1e-12)

    def test_empty_subcarrier_rejected(self):
        ctx = make_context(4, n_subcarriers=6, n_users_per_cell=1)
        occupied = set(ctx.topology.occupied_subcarriers())
        free = [sc for sc in range(6) if sc not in occupied]
        assert free
        with pytest.raises(ValueError):
            brute_force_group(free[0], ctx)

    def test_size_guard_trips_on_wide_level_grid(self):
        # three co-channel players with 2048 levels is 2^33 joint choices
        levels = tuple(1e-4 * (k + 1) for k in range(2048))
        ctx = make_context(5, n_small_cells=2, n_subcarriers=1,
                           n_users_per_cell=1, power_levels=levels)
        with pytest.raises(SizeGuardError):
            brute_force_group(0, ctx)


class TestGlobalOracle:
    def test_single_subcarrier_reduces_to_group_search(self):
        ctx = make_context(6, n_subcarriers=1, n_users_per_cell=1,
                           power_levels=(0.001, 0.01, 0.1, 0.5))
        top = brute_force_global(ctx)
        grp = brute_force_group(0, ctx)
        assert top.profile == grp.profile
        assert top.objective == pytest.approx(grp.objective, rel=1e-12)
        assert top.evaluations == grp.evaluations == 4 ** 2

    def test_objective_decomposes_across_subcarriers(self):
        # the network EE is a sum of per-subcarrier terms, so the global
        # maximizer must consist of the per-group maximizers
        for seed in range(20):
            ctx = make_context(seed, power_levels=(0.01, 0.1))
            top = brute_force_global(ctx)
            merged = {}
            total = 0.0
            for sc in ctx.topology.occupied_subcarriers():
                res = brute_force_group(sc, ctx)
                merged.update(res.profile)
                total += res.objective
            assert top.profile == merged
            assert top.objective == pytest.approx(total, rel=1e-9)

    def test_evaluations_exponential_in_link_count(self):
        ctx = make_context(7, power_levels=(0.01, 0.1))
        res = brute_force_global(ctx)
        assert res.evaluations == 2 ** len(ctx.topology.links())

    def test_reported_objective_matches_profile(self):
        ctx = make_context(8, power_levels=(0.01, 0.1))
        res = brute_force_global(ctx)
        assert res.objective == pytest.approx(
            compute_link_metrics(ctx, res.profile).network_ee, rel=1e-12)

    def test_size_guard_trips_beyond_desk_scale(self):
        # 12 links with 4 levels each is 2^24 joint profiles
        ctx = make_context(9, n_small_cells=2, n_subcarriers=4,
                           n_users_per_cell=4, power_levels=(0.001, 0.01, 0.1, 0.5))
        with pytest.raises(SizeGuardError):
            brute_force_global(ctx)


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

    def test_round_cap_reports_non_convergence(self):
        ctx = make_context(12, n_small_cells=2, n_subcarriers=3, n_users_per_cell=3)
        full = ngt_best_response(ctx, np.random.default_rng(12))
        assert full.rounds >= 1      # the cap below actually binds
        capped = ngt_best_response(ctx, np.random.default_rng(12), max_rounds=1)
        assert not capped.converged
        assert capped.rounds == 1

    def test_profile_covers_every_link(self):
        ctx = make_context(14)
        res = ngt_best_response(ctx, np.random.default_rng(14))
        assert set(res.profile) == set(ctx.topology.links())
        assert all(p in ctx.config.power_levels for p in res.profile.values())

    @pytest.mark.parametrize("value, message", [
        (0, "max_rounds must be >= 1"),
        *((value, f"max_rounds must be an integer, got {value!r}") for value in (True, 2.5, "3")),
    ])
    def test_round_cap_must_be_positive(self, value, message):
        ctx = make_context(15)
        with pytest.raises(ValueError, match=re.escape(message)):
            ngt_best_response(ctx, np.random.default_rng(0), max_rounds=value)
