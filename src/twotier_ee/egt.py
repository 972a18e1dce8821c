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
from .linklevel import LinkContext, batch_ee, interference, ordered_sum

__all__ = ["GameState", "EgtResult", "new_games", "egt_step", "run_algorithm1"]


@dataclass
class GameState:
    """State of one subcarrier's power-control game, advanced in place.

    The players are the keys of `strategy`, the co-channel cells ascending.
    """

    subcarrier: int
    strategy: dict                     # cell -> power level index, cells ascending
    explored: set                      # level indices any player has held
    converged: bool = False


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
        strategy = dict(zip(topology.cells_on(sc), draws))
        games.append(GameState(subcarrier=sc, strategy=strategy,
                               explored=set(strategy.values())))
    return games


def egt_step(games: list, context: LinkContext, rng: np.random.Generator) -> list:
    """One synchronous adaptation round of each game in `games`, in place.

    Within a game, payoffs, their average and the unexplored pool are fixed
    at the start of the round; then every player at or below the average
    (ties count as below) draws a level from that pool, so simultaneous
    switchers may land on the same level.  A round with no switch converges
    the game.  The games must sit on distinct subcarriers, so no game's
    payoffs read another's powers: every payoff of the round comes from
    one `interference` sum over one power array by link position, one
    `sinr` call per player (games in the given order, players ascending)
    and one `batch_ee`, before any game draws.  The draws are one vector
    draw over the round's switchers, games in order and players ascending,
    and none if nobody switches: the values and generator state of one
    scalar draw per switch (the same stream).  Returns the `(payoffs, average)` each game acted
    on, payoffs keyed by cell.
    """
    if any(game.converged for game in games):
        raise ValueError("cannot step a converged game")
    if len({game.subcarrier for game in games}) != len(games):
        raise ValueError("games stepped together must sit on distinct subcarriers")
    levels = context.config.power_levels
    position = context.topology.position
    rows = [position((cell, game.subcarrier)) for game in games for cell in game.strategy]
    powers = [levels[level] for game in games for level in game.strategy.values()]
    # one power array by link position: a link outside the games adds to no game's sum
    power = np.zeros(len(context.gains.own))
    power[rows] = powers
    acc = interference(power, context.gains.idx, context.gains.gain).tolist()
    sinr = linklevel.sinr   # looked up per round, so a patched sinr is seen
    ee = iter(batch_ee([sinr(context, i, p, acc[i]) for i, p in zip(rows, powers)], powers,
                       context.config.circuit_power).tolist())
    stepped = []
    switches = []   # (game, cell, pool) of every switcher, games then players in order
    for game in games:
        payoffs = dict(zip(game.strategy, ee))   # the game's run of `ee`, in player order
        average = ordered_sum(payoffs.values()) / len(payoffs)
        pool = [a for a in range(len(levels)) if a not in game.explored]
        switchers = [cell for cell, v in payoffs.items() if v <= average] if pool else []
        switches += [(game, cell, pool) for cell in switchers]
        game.converged = not switchers
        stepped.append((payoffs, average))
    if switches:
        draws = rng.integers([len(pool) for _, _, pool in switches]).tolist()
        for (game, cell, pool), d in zip(switches, draws):
            game.strategy[cell] = pool[d]
            game.explored.add(pool[d])
    return stepped


@dataclass
class EgtResult:
    """Outcome of one full adaptation run across all games."""

    profile: dict        # (cell, subcarrier) -> power, every active link
    traces: dict         # subcarrier -> [average payoff at each round played]
    iterations: int      # rounds until the slowest game settled
    converged: bool      # False only if a game still moved in round L
    evaluations: int     # payoff evaluations consumed (one per player per round)


def run_algorithm1(games: list, context: LinkContext, rng: np.random.Generator) -> EgtResult:
    """Run every per-subcarrier game to convergence, in at most L rounds.

    Mutates `games`: each is stepped in place and ends in its final state.
    Games advance in lockstep rounds, ascending subcarrier order inside a
    round, so one seeded generator yields one reproducible trajectory.  A
    converged game drops out of later rounds; its trace keeps the average
    payoff of every round it actually played.  Each round is one `egt_step`
    over the active games, which rejects games that share a subcarrier.
    """
    traces = {g.subcarrier: [] for g in games}
    evaluations = iterations = 0
    for _ in range(context.config.n_power_levels):
        active = [g for g in games if not g.converged]
        if not active:
            break
        iterations += 1
        for game, (payoffs, average) in zip(active, egt_step(active, context, rng)):
            evaluations += len(payoffs)
            traces[game.subcarrier].append(average)
    levels = context.config.power_levels
    profile = {(cell, game.subcarrier): levels[level]
               for game in games for cell, level in game.strategy.items()}
    return EgtResult(profile=profile, traces=traces, iterations=iterations,
                     converged=all(g.converged for g in games),
                     evaluations=evaluations)
