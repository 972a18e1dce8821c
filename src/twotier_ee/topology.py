"""Network geometry, large-scale fading, and Rayleigh channel realizations.

Everything here is driven by an explicit numpy Generator, so a fixed
(config, seed) pair reproduces the exact same drop.  Cell 0 is the macro
cell; users are identified by their (serving cell, subcarrier) pair since
OFDMA allows at most one user per subcarrier per cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from operator import itemgetter

import numpy as np

from .config import NetworkConfig

__all__ = [
    "PlacementError", "Topology", "LargeScaleFading", "ChannelRealization",
    "sample_topology", "large_scale_gain", "draw_shadowing",
    "sample_large_scale_fading", "sample_channels",
]

# BS-user distances are clamped below this to keep the path-loss gain finite
MIN_DISTANCE_M = 1.0

# attempts for the non-overlapping SBS placement before giving up
_PLACEMENT_RETRY_CAP = 10_000

# largest temporary per step of the channel draws and gain-table gathers: under the
# 128 KiB above which glibc maps, and page-faults, fresh memory for every allocation
_TEMP_BYTES = 1 << 16


class PlacementError(RuntimeError):
    """Geometry could not be sampled (overconstrained configuration)."""


@dataclass
class Topology:
    """One placement of base stations and users.

    `bs_positions` is (K+1, 2): row c is cell c's BS, row 0 the macro BS.
    `users` maps each (cell, subcarrier) link to its user's (x, y) in meters.
    Treated as read-only after construction; lookup tables are built once.
    """

    bs_positions: np.ndarray
    users: dict
    _cells_on: dict = field(init=False, repr=False)
    _links: list = field(init=False, repr=False)
    _positions: dict = field(init=False, repr=False)

    def __post_init__(self):
        # by (subcarrier, cell): a stable int-keyed sort of the (cell, subcarrier) order
        self._links = sorted(sorted(self.users), key=itemgetter(1))
        self._positions = dict(zip(self._links, range(len(self._links))))
        self._cells_on = {sc: tuple(cell for cell, _ in group)
                          for sc, group in groupby(self._links, key=itemgetter(1))}

    @property
    def n_cells(self) -> int:
        return len(self.bs_positions)

    def has_user(self, cell: int, subcarrier: int) -> bool:
        return (cell, subcarrier) in self.users

    def cells_on(self, subcarrier: int) -> tuple:
        """Cells with a user on this subcarrier, ascending: the co-channel group, shared."""
        return self._cells_on.get(subcarrier, ())

    def occupied_subcarriers(self) -> list:
        """Subcarriers carrying at least one user, ascending."""
        return list(self._cells_on)

    def links(self) -> list:
        """All (cell, subcarrier) pairs carrying a user, sorted by (subcarrier, cell).

        Sorted once at construction; each call returns a fresh list.
        """
        return list(self._links)

    def position(self, link: tuple) -> int:
        """Index of a (cell, subcarrier) link in `links()`: its row in the gain table."""
        return self._positions[link]


def _uniform_in_disc(center, radius: float, n: int, rng: np.random.Generator) -> np.ndarray:
    u = rng.uniform(size=(n, 2))
    r = radius * np.sqrt(u[:, 0])
    theta = 2.0 * np.pi * u[:, 1]
    return center + r[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)


def sample_topology(config: NetworkConfig, rng: np.random.Generator) -> Topology:
    """Drop SBS centers and users for one realization.

    SBS centers are uniform in the macro disc, re-drawn until all pairwise
    distances are at least twice the small-cell radius (non-overlapping
    cells).  Users are uniform in their serving cell's disc, and each cell
    assigns its users to distinct subcarriers chosen uniformly without
    replacement.
    """
    mbs = np.zeros(2)
    sbs = np.zeros((0, 2))
    attempts = 0
    while len(sbs) < config.n_small_cells:
        if attempts >= _PLACEMENT_RETRY_CAP:
            raise PlacementError(
                f"could not place {config.n_small_cells} non-overlapping small cells "
                f"in the macro disc after {_PLACEMENT_RETRY_CAP} attempts"
            )
        attempts += 1
        candidate = _uniform_in_disc(mbs, config.macro_radius, 1, rng)
        # distances to every placed centre: stacked (1, 2) @ (2, 1) rounds as np.linalg.norm
        offset = (candidate - sbs)[:, None, :]
        if (np.sqrt(offset @ offset.swapaxes(1, 2)) >= 2.0 * config.small_radius).all():
            sbs = np.vstack([sbs, candidate])

    bs_positions = np.vstack([mbs, sbs])
    users = {}
    for cell, center in enumerate(bs_positions):
        radius = config.macro_radius if cell == 0 else config.small_radius
        subcarriers = rng.choice(config.n_subcarriers, size=config.n_users_per_cell, replace=False)
        positions = _uniform_in_disc(center, radius, config.n_users_per_cell, rng)
        # Python ints and floats, the same values as the array elements
        for sc, (x, y) in zip(np.sort(subcarriers).tolist(), positions.tolist()):
            users[(cell, sc)] = (x, y)
    return Topology(bs_positions=bs_positions, users=users)


def large_scale_gain(distance: float, config: NetworkConfig, shadow_draw: float) -> float:
    """Large-scale channel gain: antenna constant times shadowing over d^alpha.

    Distances below MIN_DISTANCE_M are clamped so the gain stays finite.
    """
    if distance <= 0:
        raise ValueError(f"distance must be > 0, got {distance}")
    if shadow_draw <= 0:
        raise ValueError(f"shadow draw must be > 0, got {shadow_draw}")
    d = max(distance, MIN_DISTANCE_M)
    return config.antenna_constant * shadow_draw / d ** config.path_loss_exponent


def draw_shadowing(config: NetworkConfig, rng: np.random.Generator, size) -> np.ndarray:
    """Log-normal shadowing: 10*log10(value) is N(0, shadowing_std_db^2)."""
    draws = rng.normal(0.0, config.shadowing_std_db, size=size)
    # a Python float power per value: numpy's vector power (not / 10) rounds some differently
    try:
        values = np.fromiter([10.0 ** x for x in (draws / 10.0).ravel().tolist()], float,
                             draws.size).reshape(draws.shape)
    except OverflowError:
        raise ValueError(
            f"a shadowing draw of {float(draws.max())!r} dB overflows 10 ** (x / 10); "
            f"shadowing_std_db = {config.shadowing_std_db!r} is too large") from None
    if (values == 0.0).any():
        raise ValueError(
            f"a shadowing draw of {float(draws.min())!r} dB underflows 10 ** (x / 10) "
            f"to 0; shadowing_std_db = {config.shadowing_std_db!r} is too large")
    return values


@dataclass
class LargeScaleFading:
    """Per-link large-scale gains of one drop, as (receiver cell, link) arrays.

    Row r is receiver cell r, column i the link at position i in
    `Topology.links()`.  `gain` holds beta; `shadowing` holds the
    sampled shadowing values, kept so a drop can be reproduced or re-derived
    exactly.
    """

    gain: np.ndarray
    shadowing: np.ndarray


def sample_large_scale_fading(
    topology: Topology, config: NetworkConfig, rng: np.random.Generator
) -> LargeScaleFading:
    """Draw shadowing and compute the gain from every user to every BS.

    One independent shadowing draw per (receiver BS, user) link, fixed for
    the lifetime of the drop, drawn as one (receiver, link) block: receivers
    ascending, links in `Topology.links()` order.  The gains are
    `large_scale_gain` over the whole block, bit for bit: the clamp and the
    products run as array operations, `d ** alpha` as a Python float power
    per value (numpy's vector power rounds some values differently).
    """
    users = np.array([topology.users[link] for link in topology.links()])
    offset = (topology.bs_positions[:, None, :] - users[None, :, :])[:, :, None, :]
    # stacked (1, 2) @ (2, 1) rounds like a 1-D norm; hypot and norm(axis=) do not
    distance = np.maximum(np.sqrt(offset @ offset.swapaxes(2, 3))[:, :, 0, 0],
                          MIN_DISTANCE_M)
    # large_scale_gain's conditions hold: every distance is clamped to >= MIN_DISTANCE_M,
    # and draw_shadowing rejects a draw that under- or overflows, so every value is > 0
    varsigma = draw_shadowing(config, rng, size=distance.shape)
    alpha = config.path_loss_exponent
    path_loss = np.fromiter([d ** alpha for d in distance.ravel().tolist()], float,
                            distance.size).reshape(distance.shape)
    gain = config.antenna_constant * varsigma / path_loss
    return LargeScaleFading(gain=gain, shadowing=varsigma)


@dataclass
class ChannelRealization:
    """Complex channel vectors g = sqrt(beta) * h, h ~ CN(0, I), of one drop.

    `blocks[r]` is receiver cell r's (link, antennas) array, one row per
    entry of `links` (`Topology.links()` order): every tx user is drawn at
    every receiver.  `g` is a view keyed by (receiver cell, tx cell,
    subcarrier), built the first time it is read; its values are the block
    rows themselves, so an in-place change to one (`g[key] *= x`) reaches
    the block.
    """

    links: list
    blocks: list

    @cached_property
    def g(self) -> dict:
        return {(receiver, cell, sc): row for receiver, block in enumerate(self.blocks)
                for (cell, sc), row in zip(self.links, block)}


def sample_channels(
    topology: Topology,
    fading: LargeScaleFading,
    config: NetworkConfig,
    rng: np.random.Generator,
) -> ChannelRealization:
    """Draw one Rayleigh realization for every (receiver, user) link.

    Per receiver, one standard-normal block (links(), 2, antennas): real, then
    imaginary parts, drawn in runs of rows under _TEMP_BYTES (the same stream).
    Each part x becomes (x * (1 / sqrt(2))) * sqrt(beta): numpy's complex
    `/= sqrt(2)` and `*= sqrt(beta)` give those values but for the sign of a 0.
    """
    scale = 1.0 / np.sqrt(2.0)
    blocks = []
    for receiver, gain in enumerate(fading.gain):
        n_rx = config.n_antennas_mbs if receiver == 0 else config.n_antennas_sbs
        amplitude = np.sqrt(gain)[:, None]
        h = np.empty((len(gain), n_rx), complex)
        step = max(1, _TEMP_BYTES // h.itemsize // n_rx)
        for start in range(0, len(gain), step):
            rows = slice(start, start + step)
            z = rng.standard_normal((len(h[rows]), 2, n_rx))
            z *= scale
            np.multiply(z[:, 0], amplitude[rows], out=h[rows].real)
            np.multiply(z[:, 1], amplitude[rows], out=h[rows].imag)
        blocks.append(h)
    return ChannelRealization(links=topology.links(), blocks=blocks)
