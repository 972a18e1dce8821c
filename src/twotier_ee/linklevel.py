"""Receive combining, SINR, rate, and energy-efficiency evaluation.

A link is a (cell, subcarrier) pair carrying one uplink user.  Each BS
applies maximum-ratio combining matched to its own user's channel, so
co-channel users of other cells enter as residual interference after
combining.  Energy efficiency is spectral efficiency per watt of total
(transmit + circuit) power.

Within a drop only the transmit powers change, so every evaluation reads
one per-drop table of post-combining gains built once from the channels.
The table and the evaluators' power arrays are indexed by link position,
the index in `Topology.links()`; a power profile dict keyed by (cell,
subcarrier) appears only at the boundary of the algorithms and metrics.
Every evaluator sums the interference of a batch of links in one
`interference` call over its power array, then passes each link's sum to
its `sinr` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, repeat

import numpy as np

from .config import NetworkConfig, _real
from .topology import _TEMP_BYTES, ChannelRealization, Topology, _power, \
    sample_topology, sample_large_scale_fading, sample_channels

__all__ = [
    "LinkMetrics", "LinkContext", "GainTable", "mrc_combiner", "build_combiners",
    "interference", "sinr", "batch_ee", "ordered_sum", "compute_link_metrics",
    "sample_link_context",
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
        if np.isnan(norm).any():   # only a NaN entry makes the sum of squares NaN
            raise ValueError("cannot build a combiner: a channel vector is not finite")
        # g * (1 / inf) is a zero combiner, and every gain after it 0.0
        raise ValueError("cannot build a combiner: a channel norm overflows to inf")
    return g * (1.0 / norm)[..., None]


@dataclass
class GainTable:
    """Post-combining gains of one drop by link position i, for the MRC
    combiner a of link i: `own[i]` = |a^H g_own|^2 and `noise[i]` = ||a||^2 *
    noise_power, Python floats, and row i of the (n_links, m) slot arrays:
    slot k's `idx` is the position of the link's k-th interferer (another
    cell on its subcarrier, cells ascending) and its `gain` |a^H g_other|^2.
    m is the largest interferer count, 0 included; shorter rows are padded
    with slots that point at the link itself, with gain 0.0.
    """

    own: list
    noise: list
    idx: np.ndarray
    gain: np.ndarray


def build_combiners(topology: Topology, channels: ChannelRealization,
                    noise_power: float) -> GainTable:
    """The `GainTable` of one drop, built once from its channels.

    `topology.links()`, and so each channel block, runs by (subcarrier,
    cell): a co-channel group is a run of rows, and a link's slots are the
    others in it.  Per serving cell, its interferer rows are gathered from
    its receiver's block by index, in runs under _TEMP_BYTES, and every
    product a^H g is one `np.vecdot` row, the BLAS dot `np.vdot` uses, so
    the table is bit-identical to one built link by link.  A matrix-vector
    product (`G @ a.conj()`) or `einsum` sums in another order and is not.
    Vector `np.abs` rounds as the scalar one does; `topology._power` squares it.
    """
    links = topology.links()
    cells = np.array([cell for cell, _ in links])
    subcarriers = np.array([sc for _, sc in links])
    # each link's position, and the start and size of its group's run
    position = np.arange(len(links))[:, None]
    first = np.searchsorted(subcarriers, subcarriers)[:, None]
    size = np.searchsorted(subcarriers, subcarriers, side="right")[:, None] - first
    slots = np.arange(size.max() - 1)
    valid = slots < size - 1
    # slot k holds the group's k-th link but the link itself; padding points at the link
    idx = np.where(valid, first + slots + (slots >= position - first), position)
    own, noise = np.empty(len(links)), np.empty(len(links))
    gain = np.zeros(idx.shape)
    for cell in sorted(set(cells.tolist())):
        own_rows = np.flatnonzero(cells == cell)
        block = channels.blocks[cell]
        own_vectors = block[own_rows]
        a = mrc_combiner(own_vectors)
        own[own_rows] = np.abs(np.vecdot(a, own_vectors))
        # elementwise, the product of each ||a||^2 float with noise_power
        noise[own_rows] = np.vecdot(a, a).real * noise_power
        # every (served row, slot) with an interferer, rows then slots ascending
        into, k = np.nonzero(valid[own_rows])
        rows = own_rows[into]
        leak_rows = idx[rows, k]
        step = max(1, _TEMP_BYTES // block.itemsize // block.shape[1])
        for start in range(0, len(leak_rows), step):
            run = slice(start, start + step)
            gain[rows[run], k[run]] = np.abs(np.vecdot(a[into[run]], block[leak_rows[run]]))
    return GainTable(own=_power(own, 2).tolist(), noise=noise.tolist(), idx=idx,
                     gain=_power(gain, 2))


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
    gains: GainTable


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


@np.errstate(over="ignore")   # as a float product or sum, inf without a warning
def interference(power: np.ndarray, idx: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """Each link's interference under `power`, summed slot by slot.

    `idx` and `gain` are slot rows of a `GainTable`, `idx` perhaps mapped
    to other columns, and the last axis of `power`, under any leading shape,
    holds the power of each column.  The products and the in-order adds are
    the IEEE operations of a scalar `+=` loop from 0.0 over the interferers:
    0.0 + x is x for x >= +0, and a padding slot adds an exact +0.0.  A
    vector reduction, math.fsum or total minus signal rounds otherwise.
    """
    terms = power[..., idx] * gain
    acc = terms[..., 0] if gain.shape[1] else np.zeros(terms.shape[:-1])
    for k in range(1, gain.shape[1]):
        acc = acc + terms[..., k]
    return acc


def sinr(context: LinkContext, i: int, power: float, interference: float) -> float:
    """Post-combining SINR of the user on the link at position `i`, at
    transmit power `power`, given its `interference` from the co-channel
    users of other cells (OFDMA keeps a cell's own users orthogonal).

    Every evaluator makes exactly one call per link it evaluates, through
    the module attribute `linklevel.sinr`; the benchmark pins that count
    (`linklevel.sinr.calls`), so inlining `sinr` or skipping a call changes
    a pinned number.
    """
    # the config and mrc_combiner reject a noise power and a norm that are not finite
    # and > 0, so the combiner has unit norm and the denominator cannot be 0
    return power * context.gains.own[i] / (interference + context.gains.noise[i])


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
    cell_ee: list       # index k = cell k's EE summed, its subcarriers ascending


def compute_link_metrics(context: LinkContext, profile: dict) -> LinkMetrics:
    """Every link's EE, each co-channel group's and the network's, each an
    `ordered_sum` as the oracles take it: a group's cells ascending, then the
    group totals, subcarriers ascending; and each cell's EE, summed over its
    links.

    `profile` maps exactly the active (cell, subcarrier) links to transmit
    powers in watts, real (not bool), finite and > 0, each taken once as a
    Python float in link order.  One `interference` sum over the drop, one
    `sinr` call per link position, then one `batch_ee` over all.
    """
    topology = context.topology
    users = topology.users.keys()
    if profile.keys() != users:
        missing = sorted(users - profile.keys())
        extra = sorted(profile.keys() - users)
        raise ValueError(f"power profile mismatch: missing {missing}, extra {extra}")
    links = topology.links()
    powers = []
    for link in links:
        p = profile[link]
        # the algorithms pass Python floats
        value = p if type(p) is float else _real(f"power on link {link}", p)
        if not 0.0 < value < np.inf:
            raise ValueError(f"power {p} on link {link} is not finite and > 0")
        powers.append(value)
    acc = interference(np.array(powers), context.gains.idx, context.gains.gain)
    sinrs = list(map(sinr, repeat(context), range(len(links)), powers, acc.tolist()))
    values = batch_ee(sinrs, powers, context.config.circuit_power).tolist()
    # links() runs by subcarrier, cells ascending: each group is the next run of values
    runs = iter(values)
    groups = {sc: ordered_sum(islice(runs, len(topology.cells_on(sc))))
              for sc in topology.occupied_subcarriers()}
    # links() puts each cell's links subcarriers ascending, so each total is
    # the `ordered_sum` of its links, interleaved by cell
    cell_ee = [0.0] * context.config.n_cells
    for (cell, _), v in zip(links, values):
        cell_ee[cell] += v
    return LinkMetrics(ee=dict(zip(links, values)), group_ee=groups, cell_ee=cell_ee,
                       network_ee=ordered_sum(groups.values()))
