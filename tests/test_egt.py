import math

import numpy as np
import pytest

from twotier_ee.config import NetworkConfig
from twotier_ee.egt import (
    GameState, average_payoff, egt_step, new_games, player_payoff,
    population_share, run_algorithm1, strategy_payoff, unexplored_levels,
)
from twotier_ee.linklevel import (
    LinkContext, build_combiners, sample_link_context, user_ee,
)
from twotier_ee.topology import ChannelRealization, LargeScaleFading, Topology, User


def cfg(**kw):
    base = dict(n_small_cells=2, n_subcarriers=4, n_users_per_cell=4)
    base.update(kw)
    return NetworkConfig(**base)


def make_context(seed=0, **kw):
    return sample_link_context(cfg(**kw), np.random.default_rng(seed))


def manual_two_player_context(channels, config):
    """Context with injected channel vectors for one shared subcarrier.

    channels maps (receiver, cell) to a vector; the large-scale table is a
    placeholder because the link-level math reads only the channels.
    """
    users = [User(cell=0, subcarrier=0, position=(100.0, 0.0)),
             User(cell=1, subcarrier=0, position=(520.0, 0.0))]
    topo = Topology(mbs_position=np.zeros(2),
                    sbs_positions=np.array([[500.0, 0.0]]),
                    users=users, n_subcarriers=1)
    g = {(rx, c, 0): np.asarray(v, dtype=complex) for (rx, c), v in channels.items()}
    ch = ChannelRealization(g=g)
    fading = LargeScaleFading(beta={k: 1.0 for k in g}, shadow={k: 1.0 for k in g})
    return LinkContext(config=config, topology=topo, fading=fading,
                       channels=ch, gains=build_combiners(topo, ch))


def hand_trace_context():
    config = NetworkConfig(
        n_small_cells=1, n_subcarriers=1, n_users_per_cell=1,
        n_antennas_mbs=2, n_antennas_sbs=1,
        power_levels=(0.01, 0.1),
    )
    channels = {
        (0, 0): [1.0, 0.0],     # macro user at the MBS
        (0, 1): [0.3, 0.4],     # small-cell user leaking into the MBS
        (1, 1): [0.8],          # small-cell user at its SBS
        (1, 0): [0.2],          # macro user leaking into the SBS
    }
    return manual_two_player_context(channels, config)


def hand_payoffs(context, p0, p1):
    """Payoffs of the hand-built instance from first principles."""
    n0 = context.config.noise_power
    pc = context.config.circuit_power
    gamma0 = p0 * 1.0 / (p1 * 0.09 + n0)
    gamma1 = p1 * 0.64 / (p0 * 0.04 + n0)
    return (math.log2(1.0 + gamma0) / (p0 + pc),
            math.log2(1.0 + gamma1) / (p1 + pc))


def fresh_game(players, strategy, subcarrier=0):
    return GameState(subcarrier=subcarrier, players=list(players),
                     strategy=dict(strategy),
                     tried={p: {strategy[p]} for p in players})


class TestPayoffs:
    def test_average_payoff_arithmetic(self):
        assert average_payoff({0: 5.0}) == 5.0
        assert average_payoff({0: 2.0, 1: 4.0}) == pytest.approx(3.0, rel=1e-12)

    def test_average_payoff_empty_rejected(self):
        with pytest.raises(ValueError):
            average_payoff({})

    def test_player_payoff_matches_link_layer(self):
        ctx = make_context(1)
        games = new_games(ctx, np.random.default_rng(2))
        for game in games:
            payoffs = player_payoff(game, ctx)
            profile = {(c, game.subcarrier): ctx.config.power_levels[game.strategy[c]]
                       for c in game.players}
            for c in game.players:
                assert payoffs[c] == pytest.approx(
                    user_ee(ctx, profile, c, game.subcarrier), rel=1e-12)

    def test_single_player_interference_free_payoff(self):
        ctx = make_context(3, n_small_cells=0, n_subcarriers=2, n_users_per_cell=1)
        (cell, sc), = ctx.topology.links()
        game = fresh_game([cell], {cell: 2}, subcarrier=sc)
        p = ctx.config.power_levels[2]
        g = ctx.channels.vector(cell, cell, sc)
        expected = math.log2(1.0 + p * np.linalg.norm(g) ** 2 / ctx.config.noise_power) \
            / (p + ctx.config.circuit_power)
        assert player_payoff(game, ctx)[cell] == pytest.approx(expected, rel=1e-12)


class TestShares:
    def test_counts_and_fractions(self):
        game = fresh_game([0, 1, 2], {0: 1, 1: 1, 2: 4})
        shares = population_share(game, n_levels=8)
        assert shares.counts == {0: 0, 1: 2, 2: 0, 3: 0, 4: 1, 5: 0, 6: 0, 7: 0}
        assert shares.x[1] == pytest.approx(2 / 3, rel=1e-12)
        assert sum(shares.x.values()) == pytest.approx(1.0, abs=1e-12)

    def test_strategy_payoff_all_players_same_strategy(self):
        ctx = make_context(5)
        game = [g for g in new_games(ctx, np.random.default_rng(5))
                if len(g.players) >= 2][0]
        for c in game.players:
            game.strategy[c] = 3
        shares = population_share(game, ctx.config.n_power_levels)
        spay = strategy_payoff(game, shares, ctx)
        assert set(spay) == {3}
        assert spay[3] == pytest.approx(
            average_payoff(player_payoff(game, ctx)), rel=1e-12)

    def test_strategy_payoff_singleton_adopter(self):
        ctx = make_context(6)
        game = [g for g in new_games(ctx, np.random.default_rng(6))
                if len(g.players) >= 2][0]
        cells = game.players
        game.strategy = {c: (0 if c == cells[0] else 5) for c in cells}
        shares = population_share(game, ctx.config.n_power_levels)
        spay = strategy_payoff(game, shares, ctx)
        assert spay[0] == pytest.approx(player_payoff(game, ctx)[cells[0]], rel=1e-12)

    def test_share_weighted_strategy_payoff_equals_player_average(self):
        # the two average-payoff formulations must agree on every state
        for seed in range(10):
            ctx = make_context(seed)
            rng = np.random.default_rng(seed + 100)
            for game in new_games(ctx, rng):
                shares = population_share(game, ctx.config.n_power_levels)
                spay = strategy_payoff(game, shares, ctx)
                weighted = sum(spay[a] * shares.x[a] for a in spay)
                assert weighted == pytest.approx(
                    average_payoff(player_payoff(game, ctx)), rel=1e-12)

    def test_unexplored_levels(self):
        game = fresh_game([0, 1], {0: 2, 1: 5})
        assert unexplored_levels(game, 8) == [0, 1, 3, 4, 6, 7]
        game.tried[0] |= {0, 1, 3, 4, 6, 7}
        assert unexplored_levels(game, 8) == []


class TestHandTrace:
    """Step-by-step trajectory checked against from-scratch arithmetic."""

    def test_distinct_initial_strategies_converge_immediately(self):
        ctx = hand_trace_context()
        for s0, s1 in [(0, 1), (1, 0)]:
            game = fresh_game([0, 1], {0: s0, 1: s1})
            stepped = egt_step(game, ctx, np.random.default_rng(0))
            pi0, pi1 = hand_payoffs(ctx, ctx.config.power_levels[s0],
                                    ctx.config.power_levels[s1])
            assert stepped.payoffs[0] == pytest.approx(pi0, rel=1e-12)
            assert stepped.payoffs[1] == pytest.approx(pi1, rel=1e-12)
            assert stepped.average_payoff == pytest.approx((pi0 + pi1) / 2, rel=1e-12)
            # both levels already explored: nobody can move
            assert stepped.converged
            assert stepped.iteration == 1
            assert stepped.strategy == {0: s0, 1: s1}

    @pytest.mark.parametrize("start", [0, 1])
    def test_equal_initial_strategies_low_player_switches(self, start):
        ctx = hand_trace_context()
        levels = ctx.config.power_levels
        game = fresh_game([0, 1], {0: start, 1: start})
        pi0, pi1 = hand_payoffs(ctx, levels[start], levels[start])
        # the macro player is the weak one in this instance at both levels
        assert pi0 < pi1
        other = 1 - start

        first = egt_step(game, ctx, np.random.default_rng(0))
        assert first.payoffs[0] == pytest.approx(pi0, rel=1e-12)
        assert not first.converged
        assert first.iteration == 1
        assert first.strategy == {0: other, 1: start}
        assert first.tried == {0: {0, 1}, 1: {start}}

        second = egt_step(first, ctx, np.random.default_rng(0))
        pi0b, pi1b = hand_payoffs(ctx, levels[other], levels[start])
        assert second.payoffs[0] == pytest.approx(pi0b, rel=1e-12)
        assert second.payoffs[1] == pytest.approx(pi1b, rel=1e-12)
        assert second.converged
        assert second.iteration == 2
        assert second.strategy == first.strategy

    def test_payoff_tie_makes_both_players_switch(self):
        # perfectly symmetric instance: both payoffs equal the average, and
        # the tie rule sends both to the single unexplored level
        config = NetworkConfig(
            n_small_cells=1, n_subcarriers=1, n_users_per_cell=1,
            n_antennas_mbs=2, n_antennas_sbs=2, power_levels=(0.01, 0.1),
        )
        channels = {
            (0, 0): [1.0, 0.0], (0, 1): [0.3, 0.0],
            (1, 1): [1.0, 0.0], (1, 0): [0.3, 0.0],
        }
        ctx = manual_two_player_context(channels, config)
        game = fresh_game([0, 1], {0: 0, 1: 0})
        stepped = egt_step(game, ctx, np.random.default_rng(0))
        assert stepped.payoffs[0] == pytest.approx(stepped.payoffs[1], rel=1e-12)
        assert stepped.strategy == {0: 1, 1: 1}
        assert not stepped.converged
        final = egt_step(stepped, ctx, np.random.default_rng(0))
        assert final.converged


class TestStepMechanics:
    def test_step_leaves_input_untouched(self):
        ctx = make_context(7)
        game = new_games(ctx, np.random.default_rng(7))[0]
        strategy = dict(game.strategy)
        tried = {c: set(s) for c, s in game.tried.items()}
        egt_step(game, ctx, np.random.default_rng(8))
        assert game.strategy == strategy
        assert game.tried == tried
        assert game.iteration == 0

    def test_step_on_converged_game_rejected(self):
        ctx = make_context(8)
        game = new_games(ctx, np.random.default_rng(8))[0]
        game.converged = True
        with pytest.raises(ValueError):
            egt_step(game, ctx, np.random.default_rng(0))

    def test_unknown_schedule_rejected(self):
        ctx = make_context(9)
        game = new_games(ctx, np.random.default_rng(9))[0]
        with pytest.raises(ValueError):
            egt_step(game, ctx, np.random.default_rng(0), schedule="random")

    def test_tried_contains_current_strategy_along_run(self):
        ctx = make_context(10)
        rng = np.random.default_rng(10)
        for game in new_games(ctx, rng):
            while not game.converged:
                game = egt_step(game, ctx, rng)
                for c in game.players:
                    assert game.strategy[c] in game.tried[c]

    def test_switchers_draw_from_group_unexplored_pool(self):
        ctx = make_context(11)
        rng = np.random.default_rng(11)
        for game in new_games(ctx, rng):
            explored = set()
            for s in game.tried.values():
                explored |= s
            stepped = egt_step(game, ctx, rng)
            for c in game.players:
                if stepped.strategy[c] != game.strategy[c]:
                    assert stepped.strategy[c] not in explored


class TestNewGames:
    def test_one_game_per_occupied_subcarrier(self):
        ctx = make_context(12, n_users_per_cell=2)
        games = new_games(ctx, np.random.default_rng(12))
        assert [g.subcarrier for g in games] == ctx.topology.occupied_subcarriers()
        for g in games:
            assert g.players == ctx.topology.cells_on(g.subcarrier)
            for c in g.players:
                assert g.tried[c] == {g.strategy[c]}
            assert not g.converged
            assert g.iteration == 0

    def test_initial_strategies_in_range_and_seeded(self):
        ctx = make_context(13)
        a = new_games(ctx, np.random.default_rng(5))
        b = new_games(ctx, np.random.default_rng(5))
        assert [g.strategy for g in a] == [g.strategy for g in b]
        for g in a:
            assert all(0 <= s < 8 for s in g.strategy.values())


class TestRunAlgorithm:
    def test_single_player_cycles_through_all_levels(self):
        ctx = make_context(14, n_small_cells=0, n_subcarriers=1, n_users_per_cell=1,
                           power_levels=(0.001, 0.01, 0.1))
        rng = np.random.default_rng(14)
        game = new_games(ctx, rng)[0]
        (cell,) = game.players
        seen = [game.strategy[cell]]
        while not game.converged:
            prev = game.strategy[cell]
            game = egt_step(game, ctx, rng)
            if game.strategy[cell] != prev:
                seen.append(game.strategy[cell])
        assert sorted(seen) == [0, 1, 2]          # each level tried exactly once
        assert game.iteration == 3                # L rounds, the last one quiet
        assert game.strategy[cell] == seen[-1]    # freezes on the last tried

    def test_single_level_converges_in_one_iteration(self):
        ctx = make_context(15, power_levels=(0.01,))
        rng = np.random.default_rng(15)
        result = run_algorithm1(new_games(ctx, rng), ctx, rng)
        assert result.iterations == 1
        assert result.converged
        assert all(p == 0.01 for p in result.profile.values())

    def test_iteration_cap_flags_non_convergence(self):
        ctx = make_context(16, n_small_cells=0, n_subcarriers=1, n_users_per_cell=1,
                           power_levels=(0.001, 0.01, 0.1))
        rng = np.random.default_rng(16)
        result = run_algorithm1(new_games(ctx, rng), ctx, rng, max_iterations=1)
        assert result.iterations == 1
        assert not result.converged

    def test_every_game_settles_within_level_count(self):
        # group exploration adds at least one new level per active round,
        # so no game can run longer than L rounds
        shapes = [dict(n_small_cells=k, n_subcarriers=n, n_users_per_cell=u)
                  for k, n, u in [(0, 3, 2), (1, 2, 2), (2, 6, 6), (3, 4, 2), (2, 5, 3)]]
        for seed, shape in enumerate(shapes * 20):
            ctx = make_context(seed, **shape)
            rng = np.random.default_rng(seed + 1000)
            result = run_algorithm1(new_games(ctx, rng), ctx, rng)
            assert result.converged
            n_levels = ctx.config.n_power_levels
            for trace in result.traces.values():
                assert 1 <= len(trace) <= n_levels
            assert result.iterations == max(len(t) for t in result.traces.values())

    def test_evaluation_count_is_players_times_rounds(self):
        ctx = make_context(17)
        rng = np.random.default_rng(17)
        games = new_games(ctx, rng)
        players = {g.subcarrier: len(g.players) for g in games}
        result = run_algorithm1(games, ctx, rng)
        expected = sum(players[sc] * len(trace) for sc, trace in result.traces.items())
        assert result.evaluations == expected

    def test_profile_covers_every_link(self):
        ctx = make_context(18)
        rng = np.random.default_rng(18)
        result = run_algorithm1(new_games(ctx, rng), ctx, rng)
        assert set(result.profile) == set(ctx.topology.links())
        assert all(p in ctx.config.power_levels for p in result.profile.values())

    def test_fixed_seed_reproduces_run_exactly(self):
        ctx = make_context(19)

        def run():
            rng = np.random.default_rng(99)
            return run_algorithm1(new_games(ctx, rng), ctx, rng)

        a, b = run(), run()
        assert a.profile == b.profile
        assert a.traces == b.traces
        assert a.iterations == b.iterations
        assert a.evaluations == b.evaluations

    def test_average_payoff_trace_recorded_per_round(self):
        ctx = make_context(20)
        rng = np.random.default_rng(20)
        games = new_games(ctx, rng)
        result = run_algorithm1(games, ctx, rng)
        assert set(result.traces) == {g.subcarrier for g in games}
        for trace in result.traces.values():
            assert all(np.isfinite(v) and v > 0 for v in trace)

    def test_sequential_schedule_also_terminates_within_bound(self):
        ctx = make_context(21)
        rng = np.random.default_rng(21)
        result = run_algorithm1(new_games(ctx, rng), ctx, rng, schedule="sequential")
        assert result.converged
        assert result.iterations <= ctx.config.n_power_levels

    def test_max_iterations_must_be_positive(self):
        ctx = make_context(22)
        rng = np.random.default_rng(22)
        with pytest.raises(ValueError):
            run_algorithm1(new_games(ctx, rng), ctx, rng, max_iterations=0)
