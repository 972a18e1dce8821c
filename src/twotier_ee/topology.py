"""Network geometry, large-scale fading, and Rayleigh channel realizations.

Everything here is driven by an explicit numpy Generator, so a fixed
(config, seed) pair reproduces the exact same drop.  Cell 0 is the macro
cell; users are identified by their (serving cell, subcarrier) pair since
OFDMA allows at most one user per subcarrier per cell.  A drop's large-scale
fading is one (receiver cell, link) array of `large_scale_gain` values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby, repeat
from operator import itemgetter

import numpy as np

from .config import NetworkConfig

__all__ = [
    "PlacementError", "Topology", "ChannelRealization",
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


def _power(base, exponent) -> np.ndarray:
    """`base ** exponent` per element, each one value or an array of one shape,
    by a Python float power: the C `pow` the pinned outputs rest on.  numpy's
    vector power rounds about 5% of `d ** 3.8` and `10 ** x` otherwise.  A
    power that overflows is inf, without a warning."""
    grid = np.broadcast(base, exponent)
    x = base.ravel().tolist() if isinstance(base, np.ndarray) else repeat(float(base))
    y = exponent.ravel().tolist() if isinstance(exponent, np.ndarray) else repeat(float(exponent))
    try:
        values = np.fromiter(map(pow, x, y), float, grid.size)
    except OverflowError:   # where a Python float power raises, numpy's scalar pow gives inf
        with np.errstate(over="ignore"):
            values = np.fromiter(map(pow, map(np.float64, x), y), float, grid.size)
    return values.reshape(grid.shape)


# a norm that overflows is inf, farther apart than any spacing, without numpy's warning
@np.errstate(over="ignore")
def _norm(offset: np.ndarray) -> np.ndarray:
    """The length of each (x, y) row of `offset`, bit for bit np.linalg.norm's:
    a stacked (1, 2) @ (2, 1) product does; hypot and norm(axis=) do not."""
    offset = offset[..., None, :]
    return np.sqrt(offset @ offset.swapaxes(-1, -2))[..., 0, 0]


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
        if (_norm(candidate - sbs) >= 2.0 * config.small_radius).all():
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


@np.errstate(over="ignore", invalid="ignore")   # the finite check below reports these
def large_scale_gain(distance, config: NetworkConfig, shadow_draw):
    """Large-scale channel gain: antenna constant times shadowing over d^alpha.

    Takes one distance and shadow draw, or same-shaped arrays of them.
    Distances below MIN_DISTANCE_M are clamped so the gain stays finite; a
    distance whose `d ** alpha` overflows gets gain 0.
    """
    # `not all(x > 0)` and not `any(x <= 0)`, so a NaN is refused here too
    if not np.greater(distance, 0).all():
        raise ValueError(f"distance must be > 0, got {np.min(distance)}")
    if not np.greater(shadow_draw, 0).all():
        raise ValueError(f"shadow draw must be > 0, got {np.min(shadow_draw)}")
    path_loss = _power(np.maximum(distance, MIN_DISTANCE_M), config.path_loss_exponent)
    gain = config.antenna_constant * shadow_draw / path_loss
    if not np.isfinite(gain).all():
        raise ValueError(f"the large-scale gain antenna_constant * shadowing / d ** "
                         f"path_loss_exponent overflows: antenna_constant = "
                         f"{config.antenna_constant!r} is too large")
    return gain


def draw_shadowing(config: NetworkConfig, rng: np.random.Generator, size) -> np.ndarray:
    """Log-normal shadowing: 10*log10(value) is N(0, shadowing_std_db^2)."""
    draws = rng.normal(0.0, config.shadowing_std_db, size=size)
    values = _power(10.0, draws / 10.0)
    if (values == np.inf).any():
        raise ValueError(
            f"a shadowing draw of {float(draws.max())!r} dB overflows 10 ** (x / 10); "
            f"shadowing_std_db = {config.shadowing_std_db!r} is too large")
    if (values == 0.0).any():
        raise ValueError(
            f"a shadowing draw of {float(draws.min())!r} dB underflows 10 ** (x / 10) "
            f"to 0; shadowing_std_db = {config.shadowing_std_db!r} is too large")
    return values


def sample_large_scale_fading(
    topology: Topology, config: NetworkConfig, rng: np.random.Generator
) -> np.ndarray:
    """Draw shadowing and return the gain from every user to every BS.

    One independent shadowing draw per (receiver BS, user) link, fixed for
    the lifetime of the drop, drawn as one (receiver, link) block: row r is
    receiver cell r, column i the link at position i in `Topology.links()`.
    The block's gains are one `large_scale_gain` call.
    """
    users = np.array([topology.users[link] for link in topology.links()])
    # clamped here too, so a user at its BS (distance 0) gets MIN_DISTANCE_M's gain
    distance = np.maximum(_norm(topology.bs_positions[:, None, :] - users[None, :, :]),
                          MIN_DISTANCE_M)
    # draw_shadowing rejects a draw that under- or overflows, so every value is > 0
    return large_scale_gain(distance, config, draw_shadowing(config, rng, size=distance.shape))


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
    fading: np.ndarray,
    config: NetworkConfig,
    rng: np.random.Generator,
) -> ChannelRealization:
    """Draw one Rayleigh realization for every (receiver, user) link.

    `fading` is the (receiver, link) gain block of `sample_large_scale_fading`.
    Per receiver, one standard-normal block (links(), 2, antennas): real, then
    imaginary parts, drawn in runs of rows under _TEMP_BYTES (the same stream).
    Each part x becomes (x * (1 / sqrt(2))) * sqrt(beta): numpy's complex
    `/= sqrt(2)` and `*= sqrt(beta)` give those values but for the sign of a 0.
    """
    scale = 1.0 / np.sqrt(2.0)
    blocks = []
    for receiver, gain in enumerate(fading):
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
