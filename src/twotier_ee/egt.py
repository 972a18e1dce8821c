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

from dataclasses import dataclass, field

import numpy as np

from .linklevel import LinkContext, user_ee

__all__ = [
    "GameState", "PopulationShare", "EgtResult",
    "new_games", "player_payoff", "average_payoff", "population_share",
    "strategy_payoff", "unexplored_levels", "egt_step", "run_algorithm1",
]

_SCHEDULES = ("synchronous", "sequential")


@dataclass
class GameState:
    """State of one subcarrier's power-control game."""

    subcarrier: int
    players: list                      # cell indices, ascending
    strategy: dict                     # cell -> power level index
    tried: dict                        # cell -> set of indices already attempted
    payoffs: dict = field(default_factory=dict)   # cell -> EE, set by each step
    average_payoff: float = float("nan")
    iteration: int = 0
    converged: bool = False

    def profile(self, context: LinkContext) -> dict:
        """Power profile for this game's links only."""
        levels = context.config.power_levels
        return {(cell, self.subcarrier): levels[self.strategy[cell]]
                for cell in self.players}


def new_games(context: LinkContext, rng: np.random.Generator) -> list:
    """One game per occupied subcarrier, uniformly random initial strategies.

    Initialization order is fixed (subcarriers ascending, players ascending)
    so a given generator state always produces the same games.
    """
    n_levels = context.config.n_power_levels
    games = []
    for sc in context.topology.occupied_subcarriers():
        players = context.topology.cells_on(sc)
        strategy = {cell: int(rng.integers(n_levels)) for cell in players}
        tried = {cell: {strategy[cell]} for cell in players}
        games.append(GameState(subcarrier=sc, players=players,
                               strategy=strategy, tried=tried))
    return games


def player_payoff(game: GameState, context: LinkContext) -> dict:
    """Each player's payoff: the EE of its own user under the joint profile."""
    profile = game.profile(context)
    return {cell: user_ee(context, profile, cell, game.subcarrier)
            for cell in game.players}


def average_payoff(payoffs: dict) -> float:
    """Arithmetic mean payoff over the players actually present."""
    if not payoffs:
        raise ValueError("average payoff of an empty game is undefined")
    # left to right: builtin sum() of floats is compensated from Python 3.12
    total = 0.0
    for value in payoffs.values():
        total += value
    return total / len(payoffs)


@dataclass
class PopulationShare:
    """Strategy adoption counts and fractions for one game."""

    x: dict        # strategy index -> fraction of players using it
    counts: dict   # strategy index -> adopter count


def population_share(game: GameState, n_levels: int) -> PopulationShare:
    """Share of players on each of the n_levels power levels.

    Zero-adopter levels are kept with share 0 so the share vector always
    lives on the full action set.
    """
    m = len(game.players)
    counts = {a: 0 for a in range(n_levels)}
    for cell in game.players:
        counts[game.strategy[cell]] += 1
    x = {a: k / m for a, k in counts.items()}
    return PopulationShare(x=x, counts=counts)


def strategy_payoff(game: GameState, shares: PopulationShare, context: LinkContext) -> dict:
    """Mean payoff over the adopters of each strategy in play.

    Levels nobody uses are omitted; their payoff is undefined (querying the
    returned map for one raises KeyError, which is the intended signal).
    """
    payoffs = player_payoff(game, context)
    out = {}
    for a, k in shares.counts.items():
        if k == 0:
            continue
        total = 0.0   # left to right, as in average_payoff
        for cell in game.players:
            if game.strategy[cell] == a:
                total += payoffs[cell]
        out[a] = total / k
    return out


def unexplored_levels(game: GameState, n_levels: int) -> list:
    """Levels nobody in the game has tried yet, ascending."""
    explored = set()
    for tried in game.tried.values():
        explored |= tried
    return [a for a in range(n_levels) if a not in explored]


def _switch(game: GameState, cell: int, pool: list, rng: np.random.Generator) -> bool:
    """Move one player to a uniformly random level from the unexplored pool."""
    if not pool:
        return False
    choice = pool[int(rng.integers(len(pool)))]
    game.strategy[cell] = choice
    game.tried[cell].add(choice)
    return True


def egt_step(game: GameState, context: LinkContext, rng: np.random.Generator,
             schedule: str = "synchronous") -> GameState:
    """One adaptation round; returns a new state, leaving the input untouched.

    Synchronous: payoffs, the round average, and the unexplored pool are
    fixed once at the start of the round, then every player at or below the
    average switches (ties count as below); simultaneous switchers draw from
    the same pool and may land on the same level.  Sequential: players act
    one at a time in ascending order, each seeing payoffs and a pool that
    include the moves made earlier in the same round.
    """
    if game.converged:
        raise ValueError("cannot step a converged game")
    if schedule not in _SCHEDULES:
        raise ValueError(f"unknown schedule {schedule!r}, expected one of {_SCHEDULES}")
    n_levels = context.config.n_power_levels
    state = GameState(
        subcarrier=game.subcarrier,
        players=list(game.players),
        strategy=dict(game.strategy),
        tried={cell: set(s) for cell, s in game.tried.items()},
        iteration=game.iteration,
    )
    changed = False
    if schedule == "synchronous":
        state.payoffs = player_payoff(state, context)
        state.average_payoff = average_payoff(state.payoffs)
        pool = unexplored_levels(state, n_levels)
        for cell in state.players:
            if state.payoffs[cell] <= state.average_payoff:
                changed |= _switch(state, cell, pool, rng)
    else:
        for cell in state.players:
            payoffs = player_payoff(state, context)
            avg = average_payoff(payoffs)
            if payoffs[cell] <= avg:
                pool = unexplored_levels(state, n_levels)
                changed |= _switch(state, cell, pool, rng)
        state.payoffs = player_payoff(state, context)
        state.average_payoff = average_payoff(state.payoffs)
    state.converged = not changed
    state.iteration += 1
    return state


@dataclass
class EgtResult:
    """Outcome of one full adaptation run across all games."""

    profile: dict        # joint PowerProfile over every active link
    traces: dict         # subcarrier -> [average payoff at each round played]
    iterations: int      # rounds until the slowest game settled
    converged: bool      # False when max_iterations cut the run short
    evaluations: int     # payoff evaluations consumed (one per player per round)


def run_algorithm1(games: list, context: LinkContext, rng: np.random.Generator,
                   max_iterations: int = 64,
                   schedule: str = "synchronous") -> EgtResult:
    """Run every per-subcarrier game to convergence (or the iteration cap).

    Games advance in lockstep rounds, ascending subcarrier order inside a
    round, so one seeded generator yields one reproducible trajectory.  A
    game that converges drops out of later rounds; its trace keeps the
    average-payoff value of every round it actually played.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    games = list(games)
    traces = {g.subcarrier: [] for g in games}
    evaluations = 0
    iterations = 0
    for _ in range(max_iterations):
        active = [i for i, g in enumerate(games) if not g.converged]
        if not active:
            break
        iterations += 1
        for i in active:
            stepped = egt_step(games[i], context, rng, schedule=schedule)
            cost = len(stepped.players)
            if schedule == "sequential":
                cost *= len(stepped.players) + 1
            evaluations += cost
            traces[stepped.subcarrier].append(stepped.average_payoff)
            games[i] = stepped
    profile = {}
    for g in games:
        profile.update(g.profile(context))
    return EgtResult(
        profile=profile,
        traces=traces,
        iterations=iterations,
        converged=all(g.converged for g in games),
        evaluations=evaluations,
    )
