"""Receive combining, SINR, rate, and energy-efficiency evaluation.

A link is a (cell, subcarrier) pair carrying one uplink user.  Each BS
applies maximum-ratio combining matched to its own user's channel, so
co-channel users of other cells enter as residual interference after
combining.  Energy efficiency is spectral efficiency per watt of total
(transmit + circuit) power.

Within a drop only the transmit powers change, so every evaluation reads
one per-drop table of post-combining gains built once from the channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .config import NetworkConfig
from .topology import ChannelRealization, LargeScaleFading, Topology, sample_topology, \
    sample_large_scale_fading, sample_channels

__all__ = [
    "PowerProfile", "LinkMetrics", "LinkContext",
    "mrc_combiner", "build_combiners", "sinr", "user_ee", "group_ee",
    "compute_link_metrics", "sample_link_context", "validate_power_profile",
]

# mapping (cell, subcarrier) -> transmit power in watts, one entry per active link
PowerProfile = dict


def mrc_combiner(g: np.ndarray) -> np.ndarray:
    """Unit-norm maximum-ratio combiner matched to the desired channel.

    `g` is one channel vector or a stack of them, one per row; each row is
    normalized on its own.  The norm is the one `np.linalg.norm` computes,
    sqrt(re . re + im . im), bit for bit.
    """
    norm = np.sqrt(np.vecdot(g.real, g.real) + np.vecdot(g.imag, g.imag))
    if np.any(norm == 0):
        raise ValueError("cannot build a combiner for an all-zero channel")
    return g / norm[..., None]


def _abs2(z: np.ndarray) -> list:
    """|z|^2 of each element as Python floats: a vector abs, then a scalar power.

    Vector `np.abs` rounds as the scalar one does; vector `** 2` and
    `np.square` do not, while a Python float power is the C `pow` that the
    numpy-scalar `** 2` calls.
    """
    magnitudes = np.abs(z)
    try:
        return [x ** 2 for x in magnitudes.tolist()]
    except OverflowError:  # above 1.34e154 a Python float power raises; numpy's gives inf
        return [float(x ** 2) for x in magnitudes]


def build_combiners(topology: Topology, channels: ChannelRealization) -> dict:
    """Post-combining gain table of one drop.

    Maps each link (cell, subcarrier) to (own, interference, a_norm2) for
    its MRC combiner a, built once: own = |a^H g_own|^2, interference =
    ((other link, |a^H g_other|^2), ...) over the co-channel cells in
    ascending order, each keyed by the interferer's (cell, subcarrier) as a
    power profile is, and a_norm2 = ||a||^2, the combiner's gain on noise.
    Every gain is a Python float.

    The links are grouped by serving cell, whose receiver sees them all.
    The channel block rows follow `topology.links()`, sorted by (subcarrier,
    cell), so one mask picks a cell's interfering rows already in table
    order.  The rows are gathered from the receiver's block by index and
    every product a^H g is one `np.vecdot` row, the BLAS dot `np.vdot` uses,
    so the table is bit-identical to one built link by link.  A matrix-vector
    product (`G @ a.conj()`) or `einsum` sums in another order and is not.
    """
    links = topology.links()
    cells = np.array([cell for cell, _ in links])
    subcarriers = np.array([sc for _, sc in links])
    entries = {}
    for cell in sorted({cell for cell, _ in links}):
        own_rows = np.flatnonzero(cells == cell)
        served = subcarriers[own_rows]
        block = channels.blocks[cell]
        own_vectors = block[own_rows]
        a = mrc_combiner(own_vectors)
        own = _abs2(np.vecdot(a, own_vectors))
        a_norm2 = np.vecdot(a, a).real.tolist()
        # the served row on each subcarrier, -1 where the cell has no user
        slot = np.full(subcarriers.max() + 1, -1)
        slot[served] = np.arange(len(served))
        into = slot[subcarriers]
        # (subcarrier, other cell) ascending, and the served row each one leaks into
        leak_rows = np.flatnonzero((into >= 0) & (cells != cell))
        into = into[leak_rows]
        leaked = zip([links[i] for i in leak_rows.tolist()],
                     _abs2(np.vecdot(a[into], block[leak_rows])))
        counts = np.bincount(into, minlength=len(served)).tolist()
        for i, (row, n) in enumerate(zip(own_rows.tolist(), counts)):
            entries[links[row]] = (own[i], tuple(islice(leaked, n)), a_norm2[i])
    return {link: entries[link] for link in links}


@dataclass
class LinkContext:
    """Everything static about one drop: geometry, fading, channels, gains.

    Transmit powers are the only free variable on top of a context, so all
    algorithms evaluating the same drop share exactly these realizations.
    """

    config: NetworkConfig
    topology: Topology
    fading: LargeScaleFading
    channels: ChannelRealization
    gains: dict           # (cell, subcarrier) -> post-combining gains, see build_combiners


def sample_link_context(config: NetworkConfig, rng: np.random.Generator) -> LinkContext:
    """Sample one full drop: topology, then shadowing, then fast fading."""
    topology = sample_topology(config, rng)
    fading = sample_large_scale_fading(topology, config, rng)
    channels = sample_channels(topology, fading, config, rng)
    return LinkContext(config=config, topology=topology, fading=fading,
                       channels=channels, gains=build_combiners(topology, channels))


def sinr(context: LinkContext, profile: PowerProfile, cell: int, subcarrier: int) -> float:
    """Post-combining SINR of the user served by `cell` on `subcarrier`.

    Interference comes only from co-channel users of other cells; OFDMA
    keeps a cell's own users orthogonal.  Interferers are summed in
    ascending cell order, so the result is bit-reproducible.
    """
    link = (cell, subcarrier)
    own, interferers, a_norm2 = context.gains[link]
    # one by one: a vector sum reorders the additions, and total minus signal
    # cancels under massive-MIMO gain; either changes the emitted digits
    interference = 0.0
    for other, gain in interferers:
        interference += profile[other] * gain
    # the config rejects a noise power that is not finite and > 0, so the
    # denominator cannot be 0
    noise = a_norm2 * context.config.noise_power
    return profile[link] * own / (interference + noise)


def user_ee(context: LinkContext, profile: PowerProfile, cell: int, subcarrier: int) -> float:
    """Energy efficiency of one link: bit/s/Hz over transmit plus circuit watts.

    The package's one scalar EE, read by the metrics and every algorithm.
    np.log2, not math.log2, which rounds differently on some inputs.
    """
    r = float(np.log2(1.0 + sinr(context, profile, cell, subcarrier)))
    return r / (profile[(cell, subcarrier)] + context.config.circuit_power)


def group_ee(context: LinkContext, profile: PowerProfile, subcarrier: int) -> float:
    """Sum energy efficiency of the co-channel group on one subcarrier."""
    total = 0.0
    for cell in context.topology.cells_on(subcarrier):
        total += user_ee(context, profile, cell, subcarrier)
    return total


@dataclass
class LinkMetrics:
    """Per-link and aggregate metrics for one power profile on one drop."""

    ee: dict            # (cell, subcarrier) -> user_ee, bit/s/Hz/W
    network_ee: float   # sum over subcarriers of each co-channel group's EE

    def cell_ee(self, cell: int) -> float:
        """Sum EE over one cell's links, subcarriers ascending (insertion order)."""
        total = 0.0   # left to right: builtin sum() of floats is compensated from 3.12
        for (c, _), v in self.ee.items():
            if c == cell:
                total += v
        return total


def compute_link_metrics(context: LinkContext, profile: PowerProfile) -> LinkMetrics:
    """Every link's `user_ee`, and their sum in the fixed order the oracles use:
    each group's cells ascending, then the group totals, subcarriers ascending.
    """
    validate_power_profile(context, profile)
    ee = {}
    total = 0.0
    for sc in context.topology.occupied_subcarriers():
        group = 0.0
        for cell in context.topology.cells_on(sc):
            ee[(cell, sc)] = e = user_ee(context, profile, cell, sc)
            group += e
        total += group
    return LinkMetrics(ee=ee, network_ee=total)


def validate_power_profile(context: LinkContext, profile: PowerProfile) -> None:
    """Profile must cover exactly the active links with positive powers."""
    links = set(context.topology.links())
    keys = set(profile)
    if keys != links:
        missing = sorted(links - keys)
        extra = sorted(keys - links)
        raise ValueError(f"power profile mismatch: missing {missing}, extra {extra}")
    for link, p in profile.items():
        if p <= 0:
            raise ValueError(f"non-positive power {p} on link {link}")
