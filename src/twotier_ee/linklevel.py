"""Receive combining, SINR, rate, and energy-efficiency evaluation.

A link is a (cell, subcarrier) pair carrying one uplink user.  Each BS
applies maximum-ratio combining matched to its own user's channel, so
co-channel users of other cells enter as residual interference after
combining.  Energy efficiency is spectral efficiency per watt of total
(transmit + circuit) power.

Within a drop only the transmit powers change, so every evaluation reads
one per-drop table of post-combining gains built once from the channels.
The table and the evaluators' power lists are indexed by link position,
the index in `Topology.links()`; a power profile dict keyed by (cell,
subcarrier) appears only at the boundary of the algorithms and metrics.
A caller that steps one link through the levels with every interferer held
sums that link's `interference` once and passes it to each `sinr` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, islice

import numpy as np

from .config import NetworkConfig
from .topology import _TEMP_BYTES, ChannelRealization, Topology, \
    sample_topology, sample_large_scale_fading, sample_channels

__all__ = [
    "LinkMetrics", "LinkContext", "mrc_combiner", "build_combiners", "sinr", "interference",
    "batch_ee", "ordered_sum", "compute_link_metrics", "sample_link_context",
    "validate_power_profile",
]


def mrc_combiner(g: np.ndarray) -> np.ndarray:
    """Unit-norm maximum-ratio combiner matched to the desired channel.

    `g` is one channel vector or a stack of them, one per row; each row is
    normalized on its own.  The norm is the one `np.linalg.norm` computes,
    sqrt(re . re + im . im), bit for bit.  numpy divides complex by real via
    the reciprocal (Smith's method), so `g * (1 / norm)` is `g / norm` bit for
    bit but for the sign of a 0 part, and about 3x faster.
    """
    with np.errstate(over="ignore"):   # the finite check below reports an overflow
        norm = np.sqrt(np.vecdot(g.real, g.real) + np.vecdot(g.imag, g.imag))
    if np.any(norm == 0):
        raise ValueError("cannot build a combiner for an all-zero channel")
    if not np.isfinite(norm).all():
        # g * (1 / inf) is a zero combiner, and every gain after it 0.0
        raise ValueError(f"cannot build a combiner: a channel norm overflows to "
                         f"{float(norm.max())!r}")
    return g * (1.0 / norm)[..., None]


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


def build_combiners(topology: Topology, channels: ChannelRealization,
                    noise_power: float) -> list:
    """Post-combining gain table of one drop, indexed by link position.

    Entry i belongs to link i of `topology.links()` and holds (own,
    interference, noise) for its MRC combiner a, built once: own =
    |a^H g_own|^2, interference = ((position, |a^H g_other|^2), ...) over the
    co-channel cells in ascending order, each keyed by the interferer's
    position in `links()`, and noise = ||a||^2 * noise_power, the noise after
    combining.  Every gain is a Python float.

    The links are grouped by serving cell, whose receiver sees them all.
    The channel block rows follow `topology.links()`, sorted by (subcarrier,
    cell), so one mask picks a cell's interfering rows already in table
    order.  The rows are gathered from the receiver's block by index, in runs
    under _TEMP_BYTES, and every product a^H g is one `np.vecdot` row, the
    BLAS dot `np.vdot` uses, so the table is bit-identical to one built link
    by link.  A matrix-vector product (`G @ a.conj()`) or `einsum` sums in
    another order and is not.
    """
    links = topology.links()
    cells = np.array([cell for cell, _ in links])
    subcarriers = np.array([sc for _, sc in links])
    table = [None] * len(links)
    for cell in sorted({cell for cell, _ in links}):
        own_rows = np.flatnonzero(cells == cell)
        served = subcarriers[own_rows]
        block = channels.blocks[cell]
        own_vectors = block[own_rows]
        a = mrc_combiner(own_vectors)
        own = _abs2(np.vecdot(a, own_vectors))
        # elementwise, the product of each ||a||^2 float with noise_power
        noise = (np.vecdot(a, a).real * noise_power).tolist()
        # the served row on each subcarrier, -1 where the cell has no user
        slot = np.full(subcarriers.max() + 1, -1)
        slot[served] = np.arange(len(served))
        into = slot[subcarriers]
        # (subcarrier, other cell) ascending, and the served row each one leaks into
        leak_rows = np.flatnonzero((into >= 0) & (cells != cell))
        into = into[leak_rows]
        step = max(1, _TEMP_BYTES // block.itemsize // block.shape[1])
        leaked = list(zip(leak_rows.tolist(), [
            gain for start in range(0, len(leak_rows), step)
            for gain in _abs2(np.vecdot(a[into[start:start + step]],
                                        block[leak_rows[start:start + step]]))]))
        ends = list(accumulate(np.bincount(into, minlength=len(served)).tolist()))
        for row, own_gain, start, end, noise_gain in zip(own_rows.tolist(), own, [0] + ends,
                                                         ends, noise):
            table[row] = (own_gain, tuple(leaked[start:end]), noise_gain)
    return table


@dataclass
class LinkContext:
    """What the algorithms and metrics read of one drop: its config, its
    geometry and the post-combining gain table built from its channels.

    Transmit powers are the only free variable on top of a context, so all
    algorithms evaluating the same drop share exactly these gains.  The
    large-scale gains and channel vectors are not kept: a caller that wants
    them calls the three samplers in `sample_link_context`'s order.
    """

    config: NetworkConfig
    topology: Topology
    gains: list           # link position -> post-combining gains, see build_combiners


def sample_link_context(config: NetworkConfig, rng: np.random.Generator) -> LinkContext:
    """Sample one full drop: topology, then shadowing, then fast fading.

    Every value comes from `rng`, one block draw per step, in this order:
    1. small-cell centres, a (1, 2) uniform block per candidate (radius,
       then angle), redrawn until the spacing holds;
    2. per cell, ascending: `rng.choice` of its subcarriers, then one
       (users, 2) uniform block, a radius and an angle per user in
       subcarrier order;
    3. shadowing, one (cells, links) normal block, receivers ascending and
       links in `Topology.links()` order;
    4. per receiver, ascending: one (links, 2, antennas) standard-normal
       block, each link's real parts, then its imaginary parts.
    That is the stream of the one-value-at-a-time walk in
    `tests/reference.py`; a change of order changes every output.
    """
    topology = sample_topology(config, rng)
    fading = sample_large_scale_fading(topology, config, rng)
    channels = sample_channels(topology, fading, config, rng)
    return LinkContext(config=config, topology=topology,
                       gains=build_combiners(topology, channels, config.noise_power))


def sinr(context: LinkContext, powers: list, i: int, interference: float | None = None) -> float:
    """Post-combining SINR of the user on the link at position `i`.

    `powers` holds transmit powers by link position, as `gains` does.
    Interference comes only from co-channel users of other cells; OFDMA
    keeps a cell's own users orthogonal.  Interferers are summed in
    ascending cell order, so the result is bit-reproducible.  A caller may
    pass the link's `interference(context, powers, i)`, which skips the sum.

    Every evaluator makes exactly one call per link it evaluates, through
    the module attribute `linklevel.sinr`; the benchmark pins that count
    (`linklevel.sinr.calls`), so inlining `sinr` or skipping a call changes
    a pinned number.
    """
    own, interferers, noise = context.gains[i]
    if interference is None:
        # one by one: a vector sum or math.fsum rounds otherwise, and total minus
        # signal cancels under massive-MIMO gain; each changes the emitted digits.
        # Inline, not interference(): a second call per evaluation slows the oracles
        interference = 0.0
        for j, gain in interferers:
            interference += powers[j] * gain
    # the config and mrc_combiner reject a noise power and a norm that are not finite
    # and > 0, so the combiner has unit norm and the denominator cannot be 0
    return powers[i] * own / (interference + noise)


def interference(context: LinkContext, powers: list, i: int) -> float:
    """The interference that `sinr` sums for link `i`, in the same order."""
    total = 0.0
    for j, gain in context.gains[i][1]:
        total += powers[j] * gain
    return total


def batch_ee(sinrs, powers, circuit_power: float) -> np.ndarray:
    """Energy efficiency of many links at once, from their `sinr` values and
    powers: bit/s/Hz over transmit plus circuit watts.

    Elementwise `+` and `/` are exact IEEE operations, and vector np.log2
    equals the scalar call bit for bit on the pinned numpy, so every value
    is the one the scalar arithmetic gives for the same SINR and power.
    The rate is never `math.log2`, which rounds some inputs differently.
    """
    return np.log2(1.0 + np.asarray(sinrs)) / (np.asarray(powers) + circuit_power)


def ordered_sum(terms):
    """`terms` added left to right from 0.0, floats or arrays elementwise: the
    one order of every EE total, so the metrics equal the oracles' objective
    bit for bit.  Builtin sum() of floats is compensated from Python 3.12.
    """
    total = 0.0
    for term in terms:
        total = total + term
    return total


@dataclass
class LinkMetrics:
    """Per-link and aggregate metrics for one power profile on one drop."""

    ee: dict            # (cell, subcarrier) -> the link's EE, bit/s/Hz/W
    group_ee: dict      # subcarrier -> its co-channel group's EE, cells ascending
    network_ee: float   # the group EEs summed, subcarriers ascending

    def cell_totals(self, n_cells: int) -> list:
        """Summed EE of each cell 0..n_cells-1, in one pass over `ee`.

        Insertion order puts each cell's links subcarriers ascending, so each
        total is the `ordered_sum` of its links, interleaved by cell.
        """
        totals = [0.0] * n_cells
        for (cell, _), v in self.ee.items():
            totals[cell] += v
        return totals


def compute_link_metrics(context: LinkContext, profile: dict) -> LinkMetrics:
    """Every link's EE, each co-channel group's and the network's, each an
    `ordered_sum` as the oracles take it: a group's cells ascending, then the
    group totals, subcarriers ascending.

    `profile` maps each (cell, subcarrier) link to its transmit power in
    watts.  One `sinr` call per link position, then one `batch_ee` over all.
    """
    validate_power_profile(context, profile)
    topology = context.topology
    links = topology.links()
    powers = [profile[link] for link in links]
    sinrs = [sinr(context, powers, i) for i in range(len(links))]
    values = batch_ee(sinrs, powers, context.config.circuit_power).tolist()
    # links() runs by subcarrier, cells ascending: each group is the next run of values
    runs = iter(values)
    groups = {sc: ordered_sum(islice(runs, len(topology.cells_on(sc))))
              for sc in topology.occupied_subcarriers()}
    return LinkMetrics(ee=dict(zip(links, values)), group_ee=groups,
                       network_ee=ordered_sum(groups.values()))


def validate_power_profile(context: LinkContext, profile: dict) -> None:
    """Profile must cover exactly the active links with finite positive powers."""
    links = context.topology.users.keys()
    if profile.keys() != links:
        missing = sorted(links - profile.keys())
        extra = sorted(profile.keys() - links)
        raise ValueError(f"power profile mismatch: missing {missing}, extra {extra}")
    inf = np.inf
    for link, p in profile.items():
        if not 0.0 < p < inf:
            raise ValueError(f"power {p} on link {link} is not finite and > 0")
