"""Scenario parameters for the two-tier uplink simulator."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

__all__ = ["NetworkConfig", "ConfigError", "DEFAULT_POWER_LEVELS", "load_config",
           "parse_config", "format_config"]


class ConfigError(ValueError):
    """Invalid scenario parameters or malformed config file."""


# L=8 levels, log-spaced 1 mW .. 100 mW (typical UE uplink range)
DEFAULT_POWER_LEVELS = tuple(10.0 ** (-3.0 + 2.0 * k / 7.0) for k in range(8))


@dataclass(frozen=True)
class NetworkConfig:
    """All scenario parameters for one two-tier network drop.

    Cell index 0 is the macro cell; 1..n_small_cells are the small cells.
    Shadowing is parameterized by the dB standard deviation, so a dB
    variance of 10 corresponds to shadowing_std_db = sqrt(10).
    """

    n_small_cells: int                    # K
    n_subcarriers: int                    # N
    n_users_per_cell: int                 # N_u, identical in every cell
    macro_radius: float = 1000.0          # m
    small_radius: float = 100.0           # m
    n_antennas_mbs: int = 128
    n_antennas_sbs: int = 4
    path_loss_exponent: float = 3.8
    shadowing_std_db: float = math.sqrt(10.0)
    antenna_constant: float = 1.0
    noise_psd_dbm_per_hz: float = -194.0
    subcarrier_bandwidth_hz: float = 180e3
    power_levels: tuple = DEFAULT_POWER_LEVELS
    circuit_power: float = 0.01           # W, per-user static circuit power
    rng_seed: int = 0

    def __post_init__(self):
        # Each field is stored as a Python int, float or tuple of floats, so
        # format_config writes text that parse_config reads back.  bool is an
        # Integral and a Real, and neither kind of field takes it.  NaN slips
        # past the range checks below, and inf or a fractional count
        # (n_cells == 2.5) fails only deep in a drop.
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in _INT_FIELDS:
                typed = _integer(f.name, value)
            elif f.name in _LIST_FIELDS:
                try:
                    items = list(enumerate(value))
                except TypeError:
                    raise ConfigError(f"{f.name} must be a sequence of real numbers, "
                                      f"got {value!r}") from None
                typed = tuple(_real(f"{f.name}[{i}]", v) for i, v in items)
            else:
                typed = _real(f.name, value)
            if not all(map(math.isfinite, typed if f.name in _LIST_FIELDS else (typed,))):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
            object.__setattr__(self, f.name, typed)
        if not self.macro_radius > self.small_radius > 0:
            raise ConfigError("radii must satisfy macro_radius > small_radius > 0")
        if self.n_small_cells < 0:
            raise ConfigError("n_small_cells must be >= 0")
        if self.n_subcarriers < 1:
            raise ConfigError("n_subcarriers must be >= 1")
        if self.n_users_per_cell < 1:
            raise ConfigError("n_users_per_cell must be >= 1")
        if self.n_users_per_cell > self.n_subcarriers:
            raise ConfigError(
                "n_users_per_cell must be <= n_subcarriers (one user per subcarrier per cell)"
            )
        if self.n_antennas_sbs < 1 or self.n_antennas_mbs < self.n_antennas_sbs:
            raise ConfigError("antenna counts must satisfy n_antennas_mbs >= n_antennas_sbs >= 1")
        if self.antenna_constant <= 0:
            raise ConfigError("antenna_constant must be > 0")
        if self.path_loss_exponent <= 0:
            raise ConfigError("path_loss_exponent must be > 0")
        # the path loss d ** path_loss_exponent at the largest BS-to-user
        # distance: an SBS on the macro edge, a user of another small cell
        # across the macro disc
        reach = 2.0 * self.macro_radius + self.small_radius
        try:
            path_loss = reach ** self.path_loss_exponent
        except OverflowError:
            path_loss = math.inf
        if not math.isfinite(path_loss):
            raise ConfigError(
                f"path_loss_exponent = {self.path_loss_exponent!r} overflows the path loss "
                f"d ** path_loss_exponent at the largest BS-to-user distance, "
                f"2 * macro_radius + small_radius = {reach!r} m")
        if self.shadowing_std_db < 0:
            raise ConfigError("shadowing_std_db must be >= 0")
        if self.subcarrier_bandwidth_hz <= 0:
            raise ConfigError("subcarrier_bandwidth_hz must be > 0")
        # a finite PSD can still overflow 10**x or underflow it to 0 W, and
        # either fails every drop or turns its rows into inf/NaN
        try:
            noise = self.noise_power
        except OverflowError:
            noise = math.inf
        if not (math.isfinite(noise) and noise > 0):
            raise ConfigError(
                f"noise_psd_dbm_per_hz = {self.noise_psd_dbm_per_hz!r} over "
                f"subcarrier_bandwidth_hz = {self.subcarrier_bandwidth_hz!r} gives a "
                f"noise power of {noise!r} W; it must be finite and > 0"
            )
        if len(self.power_levels) < 1:
            raise ConfigError("power_levels must contain at least one level")
        if any(p <= 0 for p in self.power_levels):
            raise ConfigError("power levels must all be > 0")
        if any(b <= a for a, b in zip(self.power_levels, self.power_levels[1:])):
            raise ConfigError("power levels must be strictly increasing")
        if self.circuit_power <= 0:
            raise ConfigError("circuit_power must be > 0")
        # every EE divides by a level plus the circuit power, the largest sum
        # at the last level; an infinite sum makes every EE 0
        if not math.isfinite(self.power_levels[-1] + self.circuit_power):
            raise ConfigError(
                f"power_levels[-1] = {self.power_levels[-1]!r} plus circuit_power = "
                f"{self.circuit_power!r} overflows the total power of a user")
        if self.rng_seed < 0:
            raise ConfigError("rng_seed must be a nonnegative integer")

    @property
    def n_cells(self) -> int:
        """Total number of cells, macro included (K+1)."""
        return self.n_small_cells + 1

    @property
    def n_power_levels(self) -> int:
        return len(self.power_levels)

    @property
    def noise_power(self) -> float:
        """Per-subcarrier noise power in watts (PSD in dBm/Hz times bandwidth).

        Read once per drop, by the gain table.  Not a field, so it stays out
        of ==, hashing and format_config.
        """
        return 10.0 ** ((self.noise_psd_dbm_per_hz - 30.0) / 10.0) * self.subcarrier_bandwidth_hz


def _real(name: str, value) -> float:
    """A real input as a Python float; bool, a Real, is refused, and so is an
    int beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:   # an int beyond the float range
        raise ConfigError(f"{name} must be finite, got {value!r}") from None


def _integer(name: str, value) -> int:
    """A count or seed as a Python int: numpy integers pass, bool (an Integral)
    does not, and an int beyond the float range is refused as `_real` refuses it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    _real(name, value)
    return int(value)


_INT_FIELDS = {f.name for f in fields(NetworkConfig) if f.type == "int"}
_LIST_FIELDS = {f.name for f in fields(NetworkConfig) if f.type == "tuple"}
_FIELD_NAMES = {f.name for f in fields(NetworkConfig)}


def _typed(name: str, value):
    """A scalar field's value, or its text, as the field's type; an int field
    also takes an integral float."""
    kind = int if name in _INT_FIELDS else float
    try:
        typed = value
        if isinstance(value, str):
            typed = kind(value)
        # np.bool_ converts to either kind, and neither kind of field takes it
        elif not isinstance(value, (numbers.Integral, np.bool_)):
            typed = float(value)
            if kind is int and typed.is_integer():
                typed = int(value)
        return (_integer if kind is int else _real)(name, typed)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} value {value!r} is not a valid {kind.__name__}") from None


def parse_config(text: str, source: str = "<string>") -> NetworkConfig:
    """Parse ``key = value`` lines into a NetworkConfig.

    Blank lines and ``#`` comments are ignored.  Keys must be exactly the
    NetworkConfig field names; anything else is rejected so typos do not
    silently fall back to defaults.  power_levels is a comma-separated list.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELD_NAMES:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            if key in _LIST_FIELDS:
                values[key] = tuple(float(tok) for tok in value.replace(",", " ").split())
            else:
                values[key] = _typed(key, value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {value!r}") from exc
    try:
        return NetworkConfig(**values)
    except TypeError as exc:
        # missing required fields
        raise ConfigError(f"{source}: {exc}") from exc


def load_config(path) -> NetworkConfig:
    """Load a NetworkConfig from a key-value text file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), source=str(path))


def format_config(config: NetworkConfig) -> str:
    """Render a config as key-value text that load_config reads back.

    Every field holds a Python int or float (see __post_init__), and repr
    of a float is its shortest exact text, so a format/parse round trip
    reproduces the config bit for bit.
    """
    lines = []
    for f in fields(NetworkConfig):
        value = getattr(config, f.name)
        if f.name in _LIST_FIELDS:
            lines.append(f"{f.name} = {', '.join(map(repr, value))}")
        else:
            lines.append(f"{f.name} = {value!r}")
    return "\n".join(lines) + "\n"
