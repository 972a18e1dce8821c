"""Per-subcarrier evolutionary power-control games.

Each occupied subcarrier hosts one game whose players are the co-channel
cells.  A player's payoff is the energy efficiency of its own uplink user,
so the games are mutually independent: nothing a player does on subcarrier
i affects any other subcarrier.

The adaptation loop is the distributed controller-feedback scheme: every
round, the controller publishes the group's average payoff and each player
at or below it abandons its current power level for one the population has
not explored yet.  Exploration is a group-level resource: once every level
has been tried by someone in the game, all players hold and the game is
converged.  Because every non-quiet round adds at least one new level to
the group's explored set, a game always settles within L rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linklevel
from .linklevel import LinkContext, batch_ee, ordered_sum

__all__ = ["GameState", "EgtResult", "new_games", "egt_step", "run_algorithm1"]


@dataclass
class GameState:
    """State of one subcarrier's power-control game, advanced in place."""

    subcarrier: int
    players: list                      # cell indices, ascending
    strategy: dict                     # cell -> power level index
    explored: set                      # level indices any player has held
    converged: bool = False


def _profile(games: list, levels: tuple) -> dict:
    """Power profile over the links of `games`, in game then player order."""
    return {(cell, game.subcarrier): levels[game.strategy[cell]]
            for game in games for cell in game.players}


def new_games(context: LinkContext, rng: np.random.Generator) -> list:
    """One game per occupied subcarrier, uniformly random initial strategies.

    Initialization order is fixed (subcarriers ascending, players ascending)
    so a given generator state always produces the same games.  That is
    `Topology.links()` order, so the levels are one vector draw: the values
    and generator state of one scalar draw per player (the same stream).
    """
    topology = context.topology
    draws = iter(rng.integers(context.config.n_power_levels, size=len(topology.users)).tolist())
    games = []
    for sc in topology.occupied_subcarriers():
        players = list(topology.cells_on(sc))
        strategy = dict(zip(players, draws))
        games.append(GameState(subcarrier=sc, players=players, strategy=strategy,
                               explored=set(strategy.values())))
    return games


def _with_positions(games: list, context: LinkContext) -> list:
    """(game, its link positions, players ascending) pairs of games on distinct subcarriers."""
    if len({game.subcarrier for game in games}) != len(games):
        raise ValueError("games stepped together must sit on distinct subcarriers")
    position = context.topology.position
    return [(game, [position((cell, game.subcarrier)) for cell in game.players])
            for game in games]


def _round(active: list, context: LinkContext, rng: np.random.Generator) -> list:
    """`egt_step` over (game, link positions) pairs: each game's (payoff list, average)."""
    levels = context.config.power_levels
    # one power list by link position; links outside the games are never read
    powers = [None] * len(context.gains)
    rows = []
    for game, game_rows in active:
        for cell, i in zip(game.players, game_rows):
            powers[i] = levels[game.strategy[cell]]
        rows += game_rows
    sinr = linklevel.sinr   # looked up per round, so a patched sinr is seen
    ee = batch_ee([sinr(context, powers, i) for i in rows], [powers[i] for i in rows],
                  context.config.circuit_power).tolist()
    stepped = []
    switches = []   # (game, cell, pool) of every switcher, games then players in order
    start = 0
    for game, game_rows in active:
        payoffs = ee[start:start + len(game_rows)]
        start += len(game_rows)
        average = ordered_sum(payoffs) / len(payoffs)
        pool = [a for a in range(len(levels)) if a not in game.explored]
        switchers = [cell for cell, v in zip(game.players, payoffs) if v <= average] \
            if pool else []
        switches += [(game, cell, pool) for cell in switchers]
        game.converged = not switchers
        stepped.append((payoffs, average))
    if switches:
        draws = rng.integers([len(pool) for _, _, pool in switches]).tolist()
        for (game, cell, pool), d in zip(switches, draws):
            game.strategy[cell] = pool[d]
            game.explored.add(pool[d])
    return stepped


def egt_step(games: list, context: LinkContext, rng: np.random.Generator) -> list:
    """One synchronous adaptation round of each game in `games`, in place.

    Within a game, payoffs, their average and the unexplored pool are fixed
    at the start of the round; then every player at or below the average
    (ties count as below) draws a level from that pool, so simultaneous
    switchers may land on the same level.  A round with no switch converges
    the game.  The games must sit on distinct subcarriers, so no game's
    payoffs read another's powers: every payoff of the round comes from
    one `sinr` call per player (games in the given order, players
    ascending) on one power list by link position and one `batch_ee`,
    before any game draws.  The draws are one vector draw over the round's
    switchers, games in order and players ascending, and none if nobody
    switches: the values and generator state of one scalar draw per switch
    (the same stream).  Returns the `(payoffs, average)` each game acted
    on, payoffs keyed by cell.
    """
    if any(game.converged for game in games):
        raise ValueError("cannot step a converged game")
    return [(dict(zip(game.players, payoffs)), average) for game, (payoffs, average)
            in zip(games, _round(_with_positions(games, context), context, rng))]


@dataclass
class EgtResult:
    """Outcome of one full adaptation run across all games."""

    profile: dict        # (cell, subcarrier) -> power, every active link
    traces: dict         # subcarrier -> [average payoff at each round played]
    iterations: int      # rounds until the slowest game settled
    converged: bool      # False when max_iterations cut the run short
    evaluations: int     # payoff evaluations consumed (one per player per round)


def run_algorithm1(games: list, context: LinkContext, rng: np.random.Generator,
                   max_iterations: int = 64) -> EgtResult:
    """Run every per-subcarrier game to convergence (or the iteration cap).

    Mutates `games`: each is stepped in place and ends in its final state.
    Games advance in lockstep rounds, ascending subcarrier order inside a
    round, so one seeded generator yields one reproducible trajectory.  A
    converged game drops out of later rounds; its trace keeps the average
    payoff of every round it actually played.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    traces = {g.subcarrier: [] for g in games}
    evaluations = iterations = 0
    pairs = _with_positions(games, context)   # once per run, not once per round
    for _ in range(max_iterations):
        active = [pair for pair in pairs if not pair[0].converged]
        if not active:
            break
        iterations += 1
        for (game, _), (payoffs, average) in zip(active, _round(active, context, rng)):
            evaluations += len(payoffs)
            traces[game.subcarrier].append(average)
    profile = _profile(games, context.config.power_levels)
    return EgtResult(profile=profile, traces=traces, iterations=iterations,
                     converged=all(g.converged for g in games),
                     evaluations=evaluations)
