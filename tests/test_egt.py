"""The per-subcarrier EGT games: hand-traced rounds, the step rules, convergence
within L rounds, and whole runs against `tests/reference.py`, round by round.
"""

import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from twotier_ee import egt, linklevel
from twotier_ee.config import DEFAULT_POWER_LEVELS, NetworkConfig, load_config
from twotier_ee.egt import GameState, egt_step, new_games, run_algorithm1
from twotier_ee.linklevel import LinkContext, build_combiners, sample_link_context
from twotier_ee.topology import ChannelRealization, Topology


def cfg(**kw):
    base = dict(n_small_cells=2, n_subcarriers=4, n_users_per_cell=4)
    base.update(kw)
    return NetworkConfig(**base)


def make_context(seed=0, **kw):
    return sample_link_context(cfg(**kw), np.random.default_rng(seed))


def manual_two_player_context(channels, config):
    """Context with injected channel vectors for one shared subcarrier.

    channels maps (receiver, cell) to a vector, stacked into one block per
    receiver in link order; no large-scale gain is drawn because the gain
    table reads only the channels.
    """
    topo = Topology(bs_positions=np.array([[0.0, 0.0], [500.0, 0.0]]),
                    users={(0, 0): (100.0, 0.0), (1, 0): (520.0, 0.0)})
    links = topo.links()
    ch = ChannelRealization(links=links, blocks=[
        np.array([channels[(rx, c)] for c, _ in links], dtype=complex) for rx in (0, 1)])
    return LinkContext(config=config, topology=topo,
                       gains=build_combiners(topo, ch, config.noise_power))


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


def fresh_game(strategy, subcarrier=0):
    return GameState(subcarrier=subcarrier, strategy=dict(strategy),
                     explored=set(strategy.values()))


class TestHandTrace:
    """Step-by-step trajectory checked against from-scratch arithmetic."""

    def test_distinct_initial_strategies_converge_immediately(self):
        ctx = hand_trace_context()
        for s0, s1 in [(0, 1), (1, 0)]:
            game = fresh_game({0: s0, 1: s1})
            [(payoffs, average)] = egt_step([game], ctx, np.random.default_rng(0))
            pi0, pi1 = hand_payoffs(ctx, ctx.config.power_levels[s0],
                                    ctx.config.power_levels[s1])
            assert payoffs[0] == pytest.approx(pi0, rel=1e-12)
            assert payoffs[1] == pytest.approx(pi1, rel=1e-12)
            assert average == pytest.approx((pi0 + pi1) / 2, rel=1e-12)
            # both levels already explored: nobody can move, so one round settles it
            assert game.converged
            assert game.strategy == {0: s0, 1: s1}
            assert game.explored == {0, 1}

    @pytest.mark.parametrize("start", [0, 1])
    def test_equal_initial_strategies_low_player_switches(self, start):
        ctx = hand_trace_context()
        levels = ctx.config.power_levels
        game = fresh_game({0: start, 1: start})
        pi0, pi1 = hand_payoffs(ctx, levels[start], levels[start])
        # the macro player is the weak one in this instance at both levels
        assert pi0 < pi1
        other = 1 - start

        [(payoffs, average)] = egt_step([game], ctx, np.random.default_rng(0))
        rounds = 1
        assert payoffs[0] == pytest.approx(pi0, rel=1e-12)
        assert average == pytest.approx((pi0 + pi1) / 2, rel=1e-12)
        assert not game.converged
        assert game.strategy == {0: other, 1: start}
        assert game.explored == {0, 1}

        [(payoffs, _)] = egt_step([game], ctx, np.random.default_rng(0))
        rounds += 1
        pi0b, pi1b = hand_payoffs(ctx, levels[other], levels[start])
        assert payoffs[0] == pytest.approx(pi0b, rel=1e-12)
        assert payoffs[1] == pytest.approx(pi1b, rel=1e-12)
        assert game.converged
        assert rounds == 2
        assert game.strategy == {0: other, 1: start}
        assert game.explored == {0, 1}

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
        game = fresh_game({0: 0, 1: 0})
        [(payoffs, _)] = egt_step([game], ctx, np.random.default_rng(0))
        assert payoffs[0] == pytest.approx(payoffs[1], rel=1e-12)
        assert game.strategy == {0: 1, 1: 1}
        assert game.explored == {0, 1}
        assert not game.converged
        egt_step([game], ctx, np.random.default_rng(0))
        assert game.converged


class TestStepMechanics:
    def test_step_on_converged_game_rejected(self):
        ctx = make_context(8)
        games = new_games(ctx, np.random.default_rng(8))
        games[0].converged = True
        for stepped in ([games[0]], games):   # alone, and among active games
            with pytest.raises(ValueError, match="cannot step a converged game"):
                egt_step(stepped, ctx, np.random.default_rng(0))

    def test_games_sharing_a_subcarrier_rejected(self, monkeypatch):
        ctx = make_context(9)
        game = new_games(ctx, np.random.default_rng(9))[0]
        twin = fresh_game(game.strategy, subcarrier=game.subcarrier)
        calls, original = [], linklevel.sinr
        monkeypatch.setattr(linklevel, "sinr", lambda *args: calls.append(args) or original(*args))
        for run in (egt_step, run_algorithm1):
            with pytest.raises(ValueError, match="distinct subcarriers"):
                run([game, twin], ctx, np.random.default_rng(0))
        assert calls == []

    def test_tried_contains_current_strategy_along_run(self):
        ctx = make_context(10)
        rng = np.random.default_rng(10)
        for game in new_games(ctx, rng):
            rounds = 0
            while not game.converged:
                assert rounds <= ctx.config.n_power_levels, "still stepping past L + 1 rounds"
                egt_step([game], ctx, rng)
                rounds += 1
                for c in game.strategy:
                    assert game.strategy[c] in game.explored

    def test_switchers_draw_from_group_unexplored_pool(self):
        ctx = make_context(11)
        rng = np.random.default_rng(11)
        for game in new_games(ctx, rng):
            strategy, explored = dict(game.strategy), set(game.explored)
            egt_step([game], ctx, rng)
            for c in game.strategy:
                if game.strategy[c] != strategy[c]:
                    assert game.strategy[c] not in explored
            assert game.explored == explored | set(game.strategy.values())


class TestRunAlgorithm:
    def test_single_player_cycles_through_all_levels(self):
        ctx = make_context(14, n_small_cells=0, n_subcarriers=1, n_users_per_cell=1,
                           power_levels=(0.001, 0.01, 0.1))
        rng = np.random.default_rng(14)
        game = new_games(ctx, rng)[0]
        (cell,) = game.strategy
        seen = [game.strategy[cell]]
        rounds = 0
        while not game.converged:
            assert rounds <= 3, "still stepping past L + 1 rounds"
            prev = game.strategy[cell]
            egt_step([game], ctx, rng)
            rounds += 1
            if game.strategy[cell] != prev:
                seen.append(game.strategy[cell])
        assert sorted(seen) == [0, 1, 2]          # each level tried exactly once
        assert game.explored == {0, 1, 2}
        assert rounds == 3                        # L rounds, the last one quiet
        assert game.strategy[cell] == seen[-1]    # freezes on the last tried

    def test_single_level_converges_in_one_iteration(self):
        ctx = make_context(15, power_levels=(0.01,))
        rng = np.random.default_rng(15)
        result = run_algorithm1(new_games(ctx, rng), ctx, rng)
        assert result.iterations == 1
        assert result.converged
        assert all(p == 0.01 for p in result.profile.values())

    def test_iteration_cap_flags_non_convergence(self):
        # a round that never converges its game, as a broken exploration rule
        # would: the run stops after round L and reports it, rather than hang
        ctx = make_context(16, n_small_cells=0, n_subcarriers=1, n_users_per_cell=1,
                           power_levels=(0.001, 0.01, 0.1))
        rng = np.random.default_rng(16)

        def never_settles(games, context, step_rng):
            stepped = egt_step(games, context, step_rng)
            for game in games:
                game.converged = False
            return stepped

        with mock.patch.object(egt, "egt_step", never_settles):
            result = run_algorithm1(new_games(ctx, rng), ctx, rng)
        assert result.iterations == 3
        assert not result.converged

    def test_more_than_64_levels_converge(self):
        # a lone player explores one new level a round: L rounds, the last quiet
        levels = tuple(1e-3 * (k + 1) for k in range(70))
        ctx = make_context(17, n_small_cells=0, n_subcarriers=1, n_users_per_cell=1,
                           power_levels=levels)
        rng = np.random.default_rng(17)
        result = run_algorithm1(new_games(ctx, rng), ctx, rng)
        assert result.converged
        assert result.iterations == len(result.traces[0]) == 70


def assert_egt_matches_reference(config, seed):
    """`run_algorithm1` against the reference's run, and each `egt_step` round it
    takes, game by game, against the reference's copying step."""
    ctx = sample_link_context(config, np.random.default_rng(seed))
    ref = reference.sample_drop(config, np.random.default_rng(seed))
    rng, ref_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    games, ref_games = new_games(ctx, rng), reference.new_games(ref, ref_rng)

    def checked_step(active, context, step_rng):
        stepped = egt_step(active, context, step_rng)
        ref_active = [i for i, game in enumerate(ref_games) if not game.converged]
        assert [game.subcarrier for game in active] == \
            [ref_games[i].subcarrier for i in ref_active]
        for game, (payoffs, average), i in zip(active, stepped, ref_active):
            ref_games[i], ref_payoffs, ref_average = reference.egt_step(ref_games[i], ref,
                                                                        ref_rng)
            assert list(payoffs.items()) == list(ref_payoffs.items())
            assert average == ref_average
            assert game.strategy == ref_games[i].strategy
            assert game.explored == ref_games[i].explored()
            assert game.converged == ref_games[i].converged
        assert step_rng.bit_generator.state == ref_rng.bit_generator.state
        return stepped

    with mock.patch.object(egt, "egt_step", checked_step):
        result = run_algorithm1(games, ctx, rng)
    # the reference's 64-round cap never binds: every run here has at most 8 levels
    expected, _ = reference.run_egt(ref, np.random.default_rng(seed + 1))
    assert list(result.profile.items()) == list(expected.profile.items())
    assert list(result.traces.items()) == list(expected.traces.items())
    assert result.iterations == expected.iterations
    assert result.evaluations == expected.evaluations
    assert result.converged == expected.converged
    assert rng.random() == ref_rng.random()


@st.composite
def small_configs(draw):
    n_subcarriers = draw(st.integers(1, 6))
    n_antennas_sbs = draw(st.integers(1, 4))
    n_levels = draw(st.integers(1, 8))
    return NetworkConfig(
        n_small_cells=draw(st.integers(0, 3)),
        n_subcarriers=n_subcarriers,
        n_users_per_cell=draw(st.integers(1, n_subcarriers)),
        n_antennas_mbs=draw(st.sampled_from([n_antennas_sbs, 128])),
        n_antennas_sbs=n_antennas_sbs,
        power_levels=DEFAULT_POWER_LEVELS[:n_levels],
    )


@pytest.mark.bitexact
class TestTrajectoryPreservation:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(config=small_configs(), seed=st.integers(0, 2**32))
    def test_rounds_and_run_match_reference(self, config, seed):
        assert_egt_matches_reference(config, seed)

    @pytest.mark.parametrize("seed", range(5))
    def test_rounds_and_run_match_reference_on_reference_config(self, seed):
        config = load_config(Path(__file__).resolve().parent.parent / "configs"
                             / "two_cell_reference.cfg")
        assert_egt_matches_reference(config, seed)


@pytest.mark.bitexact
class TestVectorDrawStream:
    """The numpy fact behind `new_games`, `egt_step` and `ngt_best_response`: one
    vector bounded draw gives the values of the scalar draws, in order, and leaves
    the generator in their state.  PCG64 hands out 32-bit halves from a buffer in
    the bit generator, so the odd number of scalar draws made first leaves half a
    word buffered for the draws under test."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(bounds=st.lists(st.integers(1, 16), max_size=500),
           n_first=st.integers(0, 10).map(lambda n: 2 * n + 1), seed=st.integers(0, 2**32))
    def test_vector_of_bounds_reads_the_scalar_stream(self, bounds, n_first, seed):
        scalar, vector = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (scalar, vector):
            for _ in range(n_first):
                rng.integers(7)
        expected = [int(scalar.integers(bound)) for bound in bounds]
        assert vector.integers(np.array(bounds, dtype=np.int64)).tolist() == expected
        assert scalar.random() == vector.random()

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(bound=st.integers(1, 16), size=st.integers(0, 500),
           n_first=st.integers(0, 10).map(lambda n: 2 * n + 1), seed=st.integers(0, 2**32))
    def test_sized_draw_reads_the_scalar_stream(self, bound, size, n_first, seed):
        scalar, vector = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (scalar, vector):
            for _ in range(n_first):
                rng.integers(7)
        expected = [int(scalar.integers(bound)) for _ in range(size)]
        assert vector.integers(bound, size=size).tolist() == expected
        assert scalar.random() == vector.random()
