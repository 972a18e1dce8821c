"""Exhaustive-search oracles and the non-cooperative best-response baseline.

The oracles exist to measure optimality gaps, so they deliberately evaluate
every joint strategy instead of exploiting any structure; size guards keep
them at desk scale.  Each profile still gets one link-level `sinr` call per
link, but the objective after it (rate, EE, the group and network sums) and
the pick of the maximizer run batched in numpy over chunks of profiles,
bit for bit as the metrics' group and network sums compute them.  Ties are
broken toward the lexicographically smallest strategy-index tuple, which
makes the global and per-group searches agree on instances where the
objective decomposes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import cycle, groupby, repeat
from operator import itemgetter

import numpy as np

from . import linklevel
from .linklevel import LinkContext, batch_ee, interference, ordered_sum

__all__ = [
    "SizeGuardError", "OracleResult", "NgtResult",
    "brute_force_group", "brute_force_global", "ngt_best_response",
]

# per-group search refuses above 2^30 profiles, the global search above 2^20
_GROUP_GUARD_BITS = 30
_GLOBAL_GUARD_BITS = 20
# profiles per batched objective evaluation, which bounds the oracles' memory
_CHUNK_PROFILES = 4096
# best-response passes before ngt stops unconverged: the dynamics need not settle
_MAX_ROUNDS = 64


class SizeGuardError(ValueError):
    """Requested enumeration exceeds the desk-scale size guard."""


@dataclass
class OracleResult:
    """Outcome of one exhaustive search."""

    profile: dict        # (cell, subcarrier) -> power of the maximizer
    objective: float     # EE aggregate achieved by profile
    evaluations: int     # number of joint strategies enumerated


def _first_max_rows(values: np.ndarray) -> np.ndarray:
    """Index of the first strict maximum along the last axis of `values`.

    The same pick as scanning each row with `value > best` from best = -inf
    and index 0: the earliest of equal maxima wins, NaN is never chosen, and
    a row where no value exceeds -inf gives 0.
    """
    # fmax takes the non-NaN operand, so each NaN becomes -inf and all else stays
    return np.argmax(np.fmax(values, -math.inf), axis=-1)


def _first_max(chunks) -> tuple:
    """Flat index and value of the first strict maximum over non-empty chunks.

    The same winner as scanning every value with `value > best` from
    best = -inf: the earliest of equal maxima wins, NaN is never chosen, and
    (None, -inf) means that no value exceeds -inf.
    """
    best_index = None
    best_value = -math.inf
    offset = 0
    for values in chunks:
        i = int(_first_max_rows(values))
        if values[i] > best_value:   # False for NaN, as for the masked -inf
            best_index = offset + i
            best_value = float(values[i])
        offset += len(values)
    return best_index, best_value


def _guard(what: str, n_levels: int, n_links: int, bits: int) -> None:
    """Refuse a search of more than 2^bits profiles, exactly, in integers."""
    n_profiles = n_levels ** n_links
    if n_profiles > 2 ** bits:
        raise SizeGuardError(f"{what} search of {n_levels}^{n_links} = {n_profiles} "
                             f"profiles exceeds the 2^{bits} guard")


def _exhaustive(context: LinkContext, links: list, groups: list, what: str) -> OracleResult:
    """Enumerate every joint level choice of `links` in lexicographic order.

    The objective of a profile is the sum over `groups` (lists of positions
    in `links`) of each group's summed link EE, both sums the `ordered_sum`
    that `compute_link_metrics` takes; `what` names it in the error raised
    when every profile's objective is NaN.  A chunk is one flat index range
    of max(1, _CHUNK_PROFILES // L) runs of L profiles, its (profile, link)
    power matrix the level array at the range's `np.unravel_index`.  One
    `interference` sum over it, the slots mapped to its columns, then one
    `sinr` call per entry, row-major: the calls of a search that walks one
    profile at a time.  Rate, EE, the sums and the pick run in numpy.
    """
    sinr = linklevel.sinr   # looked up per search, so a patched sinr is seen
    levels = context.config.power_levels
    n_levels = len(levels)
    circuit_power = context.config.circuit_power
    grid_shape = (n_levels,) * len(links)
    n_profiles = math.prod(grid_shape)
    level_array = np.array(levels)
    rows = [context.topology.position(link) for link in links]
    # every interferer of a link in `links` is in `links`, rows ascending
    columns = np.searchsorted(rows, context.gains.idx[rows])
    gain = context.gains.gain[rows]
    step = max(1, _CHUNK_PROFILES // n_levels) * n_levels

    def objective(start: int) -> np.ndarray:
        flat = np.arange(start, min(start + step, n_profiles))
        power = level_array[np.stack(np.unravel_index(flat, grid_shape), axis=-1)]
        acc = interference(power, columns, gain)
        sinrs = np.fromiter(map(sinr, repeat(context), cycle(rows), power.ravel().tolist(),
                                acc.ravel().tolist()), float, power.size)
        ee = batch_ee(sinrs.reshape(power.shape), power, circuit_power)
        return ordered_sum(ordered_sum(ee[:, j] for j in group) for group in groups)

    best, value = _first_max(map(objective, range(0, n_profiles, step)))
    if best is None:   # an objective is a sum of EEs >= 0, so every one was NaN
        raise ValueError(f"every one of the {n_profiles} profiles gives a NaN {what}")
    best_profile = dict(zip(links, (levels[int(d)] for d in np.unravel_index(best, grid_shape))))
    return OracleResult(profile=best_profile, objective=value, evaluations=n_profiles)


def brute_force_group(subcarrier: int, context: LinkContext) -> OracleResult:
    """Maximize one subcarrier's group EE over all joint power choices."""
    players = context.topology.cells_on(subcarrier)
    if not players:
        raise ValueError(f"subcarrier {subcarrier} has no users")
    m = len(players)
    _guard("group", context.config.n_power_levels, m, _GROUP_GUARD_BITS)
    links = [(cell, subcarrier) for cell in players]
    return _exhaustive(context, links, [range(m)], f"group EE on subcarrier {subcarrier}")


def brute_force_global(context: LinkContext) -> OracleResult:
    """Maximize network EE over the joint strategy space of every link.

    Links are ordered subcarrier-major (then cell), so the lexicographic
    tie-break here matches the concatenation of per-group tie-breaks, and
    each subcarrier's group is a run of consecutive positions.
    """
    links = context.topology.links()
    _guard("global", context.config.n_power_levels, len(links), _GLOBAL_GUARD_BITS)
    groups = [[context.topology.position((cell, sc)) for cell in context.topology.cells_on(sc)]
              for sc in context.topology.occupied_subcarriers()]
    return _exhaustive(context, links, groups, "network EE")


@dataclass
class NgtResult:
    """Outcome of the selfish best-response dynamics."""

    profile: dict        # (cell, subcarrier) -> final power
    rounds: int          # passes in which at least one player moved
    converged: bool      # a full quiet pass came within _MAX_ROUNDS passes
    evaluations: int     # candidate EE evaluations consumed


def ngt_best_response(context: LinkContext, rng: np.random.Generator):
    """Round-robin selfish power adaptation from a random starting profile.

    Each pass visits every link in cell-major order (macro cell's users
    first) and moves it to the power level that maximizes its own EE given
    everyone else's current choice, ties to the lowest level.  The dynamics
    stop at the first pass with no change, a Nash equilibrium of the
    discrete game, or after _MAX_ROUNDS passes.

    A cell's links sit on distinct subcarriers, so none of them reads
    another's power: their best responses are one batch per cell, the
    batch's `interference` summed once from the held powers, one `sinr`
    call per link and level (links, then levels, ascending), then
    `batch_ee`, the row-wise first maximum and the cell's moves.  That is
    the link-by-link pass, move for move.  The start levels are one vector
    draw, cell-major: the values and generator state of one scalar draw per
    link (the same stream).  The result profile keys the links cell-major.
    """
    sinr = linklevel.sinr   # looked up per run, so a patched sinr is seen
    levels = context.config.power_levels
    n_levels = len(levels)
    level_array = np.array(levels)
    circuit_power = context.config.circuit_power
    links = sorted(context.topology.links())
    rows = [context.topology.position(link) for link in links]
    # one power array by link position, drawn in cell-major order
    power = np.empty(len(rows))
    power[rows] = level_array[rng.integers(n_levels, size=len(rows))]
    batches = []   # per cell: its link positions, as a list and an array, and their slots
    for _, cell_links in groupby(links, key=itemgetter(0)):
        at = np.array([context.topology.position(link) for link in cell_links])
        batches.append((at.tolist(), at, context.gains.idx[at], context.gains.gain[at]))
    rounds = evaluations = 0
    converged = False
    for _ in range(_MAX_ROUNDS):
        changed = False
        for batch, at, idx, gain in batches:
            acc = interference(power, idx, gain).tolist()
            # each link's own power steps through the levels, its interferers held
            sinrs = [sinr(context, i, p, a) for i, a in zip(batch, acc) for p in levels]
            ee = batch_ee(np.fromiter(sinrs, float, len(sinrs)).reshape(len(batch), n_levels),
                          level_array, circuit_power)
            evaluations += len(sinrs)
            moved = level_array[_first_max_rows(ee)]
            changed = changed or (moved != power[at]).any()
            power[at] = moved
        if changed:
            rounds += 1
        else:
            converged = True
            break
    return NgtResult(profile=dict(zip(links, power[rows].tolist())),
                     rounds=rounds, converged=converged, evaluations=evaluations)
