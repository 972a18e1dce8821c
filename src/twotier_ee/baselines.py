"""Exhaustive-search oracles and the non-cooperative best-response baseline.

The oracles exist to measure optimality gaps, so they deliberately evaluate
every joint strategy instead of exploiting any structure; size guards keep
them at desk scale.  Each profile still gets one link-level `sinr` call per
link, but the objective after it (rate, EE, the group and network sums) and
the pick of the maximizer run batched in numpy over chunks of profiles,
bit for bit as `group_ee` and the metrics' network sum compute them.  Ties are
broken toward the lexicographically smallest strategy-index tuple, which
makes the global and per-group searches agree on instances where the
objective decomposes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linklevel
from .linklevel import LinkContext, user_ee

__all__ = [
    "SizeGuardError", "OracleResult", "NgtResult",
    "brute_force_group", "brute_force_global", "ngt_best_response",
]

# per-group search refuses above 2^30 profiles, the global search above 2^20
_GROUP_GUARD_BITS = 30.0
_GLOBAL_GUARD = 2 ** 20
# profiles per batched objective evaluation, which bounds the oracles' memory
_CHUNK_PROFILES = 4096


class SizeGuardError(ValueError):
    """Requested enumeration exceeds the desk-scale size guard."""


@dataclass
class OracleResult:
    """Outcome of one exhaustive search."""

    profile: dict        # PowerProfile of the maximizer
    objective: float     # EE aggregate achieved by profile
    evaluations: int     # number of joint strategies enumerated


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
        masked = np.where(np.isnan(values), -math.inf, values)
        i = int(np.argmax(masked))   # first maximum of the chunk
        if masked[i] > best_value:
            best_index = offset + i
            best_value = float(masked[i])
        offset += len(values)
    return best_index, best_value


def _exhaustive(context: LinkContext, links: list, groups: list) -> OracleResult:
    """Enumerate every joint level choice of `links` in lexicographic order.

    The objective of a profile is the sum over `groups` (lists of positions
    in `links`) of each group's summed link EE, added left to right from 0.0
    exactly as `group_ee` and `compute_link_metrics` add them.  Profiles go in chunks
    of _CHUNK_PROFILES: `sinr` is called once per link per profile, in link
    order, on one profile dict updated in place; rate, EE, the sums and the
    first-maximum pick then run on the whole chunk in numpy.
    """
    sinr = linklevel.sinr   # looked up per search, so a patched sinr is seen
    levels = context.config.power_levels
    circuit_power = context.config.circuit_power
    grid_shape = (len(levels),) * len(links)
    n_profiles = math.prod(grid_shape)
    level_array = np.array(levels)
    profile = dict.fromkeys(links)

    def objective(start: int) -> np.ndarray:
        stop = min(start + _CHUNK_PROFILES, n_profiles)
        # profile x link powers of the chunk, from its lexicographic indices
        power = level_array[np.stack(np.unravel_index(np.arange(start, stop), grid_shape),
                                     axis=1)]
        sinrs = []
        for row in power.tolist():
            profile.update(zip(links, row))
            for cell, sc in links:
                sinrs.append(sinr(context, profile, cell, sc))
        ee = np.log2(1.0 + np.array(sinrs).reshape(power.shape)) / (power + circuit_power)
        total = np.zeros(len(power))   # 0.0 + x, elementwise
        for group in groups:
            group_total = 0.0
            for j in group:
                group_total = group_total + ee[:, j]
            total = total + group_total
        return total

    best, value = _first_max(objective(start)
                             for start in range(0, n_profiles, _CHUNK_PROFILES))
    best_profile = None
    if best is not None:
        best_profile = dict(zip(links, (levels[int(d)]
                                        for d in np.unravel_index(best, grid_shape))))
    return OracleResult(profile=best_profile, objective=value, evaluations=n_profiles)


def brute_force_group(subcarrier: int, context: LinkContext) -> OracleResult:
    """Maximize one subcarrier's group EE over all joint power choices."""
    players = context.topology.cells_on(subcarrier)
    if not players:
        raise ValueError(f"subcarrier {subcarrier} has no users")
    levels = context.config.power_levels
    n_levels = len(levels)
    m = len(players)
    if m * math.log2(n_levels) > _GROUP_GUARD_BITS:
        raise SizeGuardError(
            f"group search of {n_levels}^{m} profiles exceeds the 2^30 guard"
        )
    links = [(cell, subcarrier) for cell in players]
    return _exhaustive(context, links, [range(m)])


def brute_force_global(context: LinkContext) -> OracleResult:
    """Maximize network EE over the joint strategy space of every link.

    Links are ordered subcarrier-major (then cell), so the lexicographic
    tie-break here matches the concatenation of per-group tie-breaks, and
    each subcarrier's group is a run of consecutive positions.
    """
    links = context.topology.links()
    levels = context.config.power_levels
    n_levels = len(levels)
    total = n_levels ** len(links)
    if total > _GLOBAL_GUARD:
        raise SizeGuardError(
            f"global search of {n_levels}^{len(links)} = {total} profiles "
            f"exceeds the 2^20 guard"
        )
    groups = {}
    for j, (_, sc) in enumerate(links):
        groups.setdefault(sc, []).append(j)
    return _exhaustive(context, links, list(groups.values()))


@dataclass
class NgtResult:
    """Outcome of the selfish best-response dynamics."""

    profile: dict        # final PowerProfile
    rounds: int          # passes in which at least one player moved
    converged: bool      # a full quiet pass was observed before the cap
    evaluations: int     # candidate EE evaluations consumed


def _best_response(context: LinkContext, profile: dict, link: tuple) -> int:
    """Index of the level maximizing this link's own EE, others held fixed.

    Scans levels in ascending order with a strict improvement test, so ties
    resolve to the smallest index.
    """
    levels = context.config.power_levels
    best_idx = 0
    best_ee = -math.inf
    saved = profile[link]
    for a, p in enumerate(levels):
        profile[link] = p
        value = user_ee(context, profile, link[0], link[1])
        if value > best_ee:
            best_ee = value
            best_idx = a
    profile[link] = saved
    return best_idx


def ngt_best_response(context: LinkContext, rng: np.random.Generator,
                      max_rounds: int = 64):
    """Round-robin selfish power adaptation from a random starting profile.

    Each pass visits every link in cell-major order (macro cell's users
    first) and moves it to the power level that maximizes its own EE given
    everyone else's current choice.  The dynamics stop at the first pass
    with no change, a Nash equilibrium of the discrete game.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    levels = context.config.power_levels
    n_levels = len(levels)
    links = sorted(context.topology.links(), key=lambda ks: (ks[0], ks[1]))
    profile = {link: levels[int(rng.integers(n_levels))] for link in links}
    rounds = 0
    converged = False
    evaluations = 0
    for _ in range(max_rounds):
        changed = False
        for link in links:
            idx = _best_response(context, profile, link)
            evaluations += n_levels
            if levels[idx] != profile[link]:
                profile[link] = levels[idx]
                changed = True
        if changed:
            rounds += 1
        else:
            converged = True
            break
    return NgtResult(profile=profile, rounds=rounds, converged=converged,
                     evaluations=evaluations)
