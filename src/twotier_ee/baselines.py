"""Exhaustive-search oracles and the non-cooperative best-response baseline.

The oracles exist to measure optimality gaps, so they deliberately evaluate
every joint strategy with the plain link-level code instead of exploiting
any structure; size guards keep them at desk scale.  Ties are broken toward
the lexicographically smallest strategy-index tuple, which makes the global
and per-group searches agree on instances where the objective decomposes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linklevel import LinkContext, group_ee, network_ee, user_ee

__all__ = [
    "SizeGuardError", "OracleResult", "NgtResult",
    "brute_force_group", "brute_force_global", "ngt_best_response",
]

# per-group search refuses above 2^30 profiles, the global search above 2^20
_GROUP_GUARD_BITS = 30.0
_GLOBAL_GUARD = 2 ** 20


class SizeGuardError(ValueError):
    """Requested enumeration exceeds the desk-scale size guard."""


@dataclass
class OracleResult:
    """Outcome of one exhaustive search."""

    profile: dict        # PowerProfile of the maximizer
    objective: float     # EE aggregate achieved by profile
    evaluations: int     # number of joint strategies enumerated


def _exhaustive(links: list, levels: tuple, objective) -> OracleResult:
    """Enumerate every joint level choice of `links` in lexicographic order.

    The strict `>` keeps the first maximizer: the smallest index tuple.
    One profile is updated in place and copied only on a new best, so
    `objective` must not keep the dict it is given.
    """
    best_objective = -math.inf
    best_profile = None
    count = 0
    profile = dict.fromkeys(links)
    for combo in itertools.product(levels, repeat=len(links)):
        profile.update(zip(links, combo))
        value = objective(profile)
        count += 1
        if value > best_objective:
            best_objective = value
            best_profile = dict(profile)
    return OracleResult(profile=best_profile, objective=best_objective, evaluations=count)


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
    return _exhaustive(links, levels, lambda profile: group_ee(context, profile, subcarrier))


def brute_force_global(context: LinkContext) -> OracleResult:
    """Maximize network EE over the joint strategy space of every link.

    Links are ordered subcarrier-major (then cell), so the lexicographic
    tie-break here matches the concatenation of per-group tie-breaks.
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
    return _exhaustive(links, levels, lambda profile: network_ee(context, profile))


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
