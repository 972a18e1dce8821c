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

from .linklevel import LinkContext, user_ee

__all__ = ["GameState", "EgtResult", "new_games", "egt_step", "run_algorithm1"]


@dataclass
class GameState:
    """State of one subcarrier's power-control game, advanced in place."""

    subcarrier: int
    players: list                      # cell indices, ascending
    strategy: dict                     # cell -> power level index
    explored: set                      # level indices any player has held
    converged: bool = False


def _profile(game: GameState, levels: tuple) -> dict:
    """Power profile for one game's links only."""
    return {(cell, game.subcarrier): levels[game.strategy[cell]]
            for cell in game.players}


def new_games(context: LinkContext, rng: np.random.Generator) -> list:
    """One game per occupied subcarrier, uniformly random initial strategies.

    Initialization order is fixed (subcarriers ascending, players ascending)
    so a given generator state always produces the same games.
    """
    n_levels = context.config.n_power_levels
    games = []
    for sc in context.topology.occupied_subcarriers():
        players = list(context.topology.cells_on(sc))
        strategy = {cell: int(rng.integers(n_levels)) for cell in players}
        games.append(GameState(subcarrier=sc, players=players, strategy=strategy,
                               explored=set(strategy.values())))
    return games


def egt_step(game: GameState, context: LinkContext, rng: np.random.Generator) -> tuple:
    """One synchronous adaptation round, applied to `game` in place.

    Payoffs, their average and the unexplored pool are fixed at the start of
    the round; then every player at or below the average (ties count as
    below) draws a level from that pool, so simultaneous switchers may land
    on the same level.  A round with no switch converges the game.  Returns
    the `(payoffs, average)` the round acted on, payoffs keyed by cell.
    """
    if game.converged:
        raise ValueError("cannot step a converged game")
    profile = _profile(game, context.config.power_levels)
    payoffs = {cell: user_ee(context, profile, cell, game.subcarrier)
               for cell in game.players}
    # left to right: builtin sum() of floats is compensated from Python 3.12
    total = 0.0
    for value in payoffs.values():
        total += value
    average = total / len(payoffs)
    pool = [a for a in range(context.config.n_power_levels) if a not in game.explored]
    switchers = [cell for cell in game.players if payoffs[cell] <= average] if pool else []
    for cell in switchers:
        choice = pool[int(rng.integers(len(pool)))]
        game.strategy[cell] = choice
        game.explored.add(choice)
    game.converged = not switchers
    return payoffs, average


@dataclass
class EgtResult:
    """Outcome of one full adaptation run across all games."""

    profile: dict        # joint PowerProfile over every active link
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
    for _ in range(max_iterations):
        active = [g for g in games if not g.converged]
        if not active:
            break
        iterations += 1
        for game in active:
            _, average = egt_step(game, context, rng)
            evaluations += len(game.players)
            traces[game.subcarrier].append(average)
    profile = {}
    for game in games:
        profile.update(_profile(game, context.config.power_levels))
    return EgtResult(profile=profile, traces=traces, iterations=iterations,
                     converged=all(g.converged for g in games),
                     evaluations=evaluations)
