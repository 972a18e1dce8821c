"""`NetworkConfig`'s validation and the config file format: each bad value or line
is refused with a diagnostic that names it, and `format_config` output parses back
equal.
"""

import dataclasses
import math
import re
from dataclasses import fields

import numpy as np
import pytest

from twotier_ee.config import (
    ConfigError, DEFAULT_POWER_LEVELS, NetworkConfig,
    format_config, parse_config,
)


FLOAT_FIELDS = [f.name for f in fields(NetworkConfig) if f.type in ("float", float)]
INT_FIELDS = [f.name for f in fields(NetworkConfig) if f.type in ("int", int)]


def small_config(**overrides):
    base = dict(n_small_cells=2, n_subcarriers=6, n_users_per_cell=6)
    base.update(overrides)
    return NetworkConfig(**base)


class TestValidation:
    def test_small_radius_must_be_below_macro_radius(self):
        with pytest.raises(ConfigError):
            small_config(small_radius=1000.0)

    def test_antenna_ordering(self):
        # equal counts are allowed; the MBS having fewer is not
        assert small_config(n_antennas_mbs=4, n_antennas_sbs=4).n_antennas_mbs == 4
        with pytest.raises(ConfigError):
            small_config(n_antennas_mbs=3, n_antennas_sbs=4)

    def test_users_cannot_exceed_subcarriers(self):
        with pytest.raises(ConfigError):
            small_config(n_users_per_cell=7)

    def test_power_levels_must_increase(self):
        with pytest.raises(ConfigError):
            small_config(power_levels=(0.01, 0.01))
        with pytest.raises(ConfigError):
            small_config(power_levels=(0.1, 0.01))
        with pytest.raises(ConfigError):
            small_config(power_levels=(-0.01, 0.1))
        with pytest.raises(ConfigError):
            small_config(power_levels=())

    def test_positive_scalars(self):
        for field, bad in [("macro_radius", 0.0), ("circuit_power", 0.0),
                           ("path_loss_exponent", -1.0), ("subcarrier_bandwidth_hz", 0.0),
                           ("n_subcarriers", 0), ("n_users_per_cell", 0)]:
            with pytest.raises(ConfigError):
                small_config(**{field: bad})

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError):
            small_config(rng_seed=-1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [*FLOAT_FIELDS, "power_levels"])
    def test_non_finite_values_rejected(self, field, bad):
        value = (*DEFAULT_POWER_LEVELS, bad) if field == "power_levels" else bad
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            small_config(**{field: value})

    @pytest.mark.parametrize("bad", [1.5, 2.0, True])
    @pytest.mark.parametrize("field", INT_FIELDS)
    def test_non_integer_counts_rejected(self, field, bad):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            small_config(**{field: bad})

    @pytest.mark.parametrize("field", INT_FIELDS)
    def test_int_beyond_float_range_rejected(self, field):
        # each raised a bare OverflowError from the finite check
        with pytest.raises(ConfigError, match=re.escape(f"{field} must be finite, got {10**400}")):
            small_config(**{field: 10 ** 400})

    def test_integer_fields_cover_every_count_and_the_seed(self):
        assert INT_FIELDS == ["n_small_cells", "n_subcarriers", "n_users_per_cell",
                              "n_antennas_mbs", "n_antennas_sbs", "rng_seed"]

    def test_numpy_and_python_integers_accepted(self):
        cfg = small_config(n_small_cells=np.int64(2), n_subcarriers=np.int32(6),
                           n_users_per_cell=np.uint8(6), n_antennas_mbs=np.int16(64),
                           n_antennas_sbs=4, rng_seed=np.int64(7))
        assert cfg.n_cells == 3
        assert parse_config(format_config(cfg)) == cfg

    @pytest.mark.parametrize("field, value, message", [
        ("circuit_power", True, "circuit_power must be a real number, got True"),
        ("circuit_power", np.True_, "circuit_power must be a real number, got np.True_"),
        ("circuit_power", "0.01", "circuit_power must be a real number, got '0.01'"),
        ("macro_radius", None, "macro_radius must be a real number, got None"),
        ("noise_psd_dbm_per_hz", 1 - 2j,
         "noise_psd_dbm_per_hz must be a real number, got (1-2j)"),
        ("power_levels", (True, 2.0), "power_levels[0] must be a real number, got True"),
        ("power_levels", (0.01, "0.1"), "power_levels[1] must be a real number, got '0.1'"),
        ("power_levels", 0.5, "power_levels must be a sequence of real numbers, got 0.5"),
        ("power_levels", None, "power_levels must be a sequence of real numbers, got None"),
        pytest.param("macro_radius", 10 ** 400, f"macro_radius must be finite, got {10 ** 400}",
                     id="int-beyond-float-range"),
        pytest.param("power_levels", (0.01, -10 ** 400), "power_levels[1] must be finite, got -1",
                     id="level-beyond-float-range"),
    ])
    def test_non_real_values_rejected(self, field, value, message):
        # True read as 1 W, '0.01' or None raised a bare TypeError and
        # 10 ** 400 a bare OverflowError
        with pytest.raises(ConfigError, match=re.escape(message)):
            small_config(**{field: value})

    @pytest.mark.parametrize("psd, shown", [(4000.0, "inf"), (-4000.0, "0.0")])
    def test_noise_power_must_be_finite_and_positive(self, psd, shown):
        # +4000 dBm/Hz overflows 10**x, -4000 underflows it to 0 W: both are
        # finite inputs that would fail or blow up every drop
        with pytest.raises(ConfigError, match=rf"noise_psd_dbm_per_hz = {psd!r} over "
                                              rf"subcarrier_bandwidth_hz = 180000\.0 gives "
                                              rf"a noise power of {shown} W"):
            small_config(noise_psd_dbm_per_hz=psd)

    def test_noise_power_overflowing_through_bandwidth_rejected(self):
        with pytest.raises(ConfigError, match="noise power of inf W"):
            small_config(noise_psd_dbm_per_hz=3000.0, subcarrier_bandwidth_hz=1e300)

    def test_path_loss_overflowing_at_the_largest_distance_rejected(self):
        # 2100 m ** 120 overflows a float: every drop would fail
        with pytest.raises(ConfigError, match=r"path_loss_exponent = 120\.0 overflows .* "
                                              r"2 \* macro_radius \+ small_radius = 2100\.0 m"):
            small_config(path_loss_exponent=120.0)
        # 2100 m ** 90 is about 1e299: still finite
        assert small_config(path_loss_exponent=90.0).path_loss_exponent == 90.0

    @pytest.mark.parametrize("levels", [(1e308,), (1.0, 1e308)])
    def test_largest_level_plus_circuit_power_overflowing_rejected(self, levels):
        # every EE divides by p + circuit_power: inf made each one 0
        with pytest.raises(ConfigError, match=re.escape(
                "power_levels[-1] = 1e+308 plus circuit_power = 1e+308 overflows")):
            small_config(power_levels=levels, circuit_power=1e308)
        # 1.7e308 + 0.01 rounds to 1.7e308: still finite
        assert small_config(power_levels=levels[:-1] + (1.7e308,)).circuit_power == 0.01

    def test_noise_power_is_not_a_field(self):
        cfg = small_config(noise_psd_dbm_per_hz=-174.0)
        assert "noise_power" not in {f.name for f in fields(NetworkConfig)}
        assert "noise_power" not in format_config(cfg)
        assert cfg == small_config(noise_psd_dbm_per_hz=-174.0)

    def test_zero_small_cells_allowed(self):
        assert small_config(n_small_cells=0).n_cells == 1

    def test_small_cells_beyond_the_packing_bound_rejected(self):
        # K discs of 100 m, pairwise 200 m apart with centres in the 1000 m disc,
        # cover K * 100^2 of the 1100^2 disc around it: K <= 121
        with pytest.raises(ConfigError, match=re.escape(
                "n_small_cells = 1000000000000 discs of small_radius = 100.0 m cannot fit, "
                "non-overlapping, in the macro disc: their area exceeds that of the disc of "
                "macro_radius + small_radius = 1100.0 m")):
            small_config(n_small_cells=10**12)
        with pytest.raises(ConfigError, match="n_small_cells = 122 discs"):
            small_config(n_small_cells=122)
        assert small_config(n_small_cells=121).n_cells == 122
        # both areas overflow to inf, and nothing is refused
        assert small_config(n_small_cells=10**12, macro_radius=1e200, small_radius=1e160,
                            path_loss_exponent=1e-3).n_small_cells == 10**12


class TestParsing:
    def test_parse_minimal(self):
        cfg = parse_config("n_small_cells = 2\nn_subcarriers = 6\nn_users_per_cell = 6\n")
        assert cfg == small_config()

    def test_comments_and_blank_lines_skipped(self):
        text = """
        # scenario
        n_small_cells = 1   # one SBS

        n_subcarriers = 4
        n_users_per_cell = 2
        """
        cfg = parse_config(text)
        assert cfg.n_small_cells == 1
        assert cfg.n_subcarriers == 4

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_config("n_small_cells = 2\nn_subcarriers = 6\n"
                         "n_users_per_cell = 6\nbandwidth = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("n_small_cells = 2\nn_small_cells = 3\n"
                         "n_subcarriers = 6\nn_users_per_cell = 6\n")

    def test_missing_required_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("n_small_cells = 2\nn_subcarriers = 6\n")

    def test_seed_beyond_float_range_names_the_line_and_key(self):
        text = "n_small_cells = 1\nn_subcarriers = 2\nn_users_per_cell = 1\n"
        with pytest.raises(ConfigError, match=re.escape(
                f"s.cfg:4: bad value for 'rng_seed': '{10**400}'")):
            parse_config(text + f"rng_seed = {10**400}\n", source="s.cfg")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("n_small_cells 2\n")

    def test_bad_number_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("n_small_cells = two\nn_subcarriers = 6\nn_users_per_cell = 6\n")

    def test_power_levels_list(self):
        cfg = parse_config("n_small_cells = 1\nn_subcarriers = 2\nn_users_per_cell = 1\n"
                           "power_levels = 0.001, 0.01, 0.1\n")
        assert cfg.power_levels == (0.001, 0.01, 0.1)

    def test_round_trip_through_format(self):
        cfg = small_config(noise_psd_dbm_per_hz=-184.0, rng_seed=17,
                           power_levels=(0.002, 0.02, 0.2))
        assert parse_config(format_config(cfg)) == cfg

    def test_round_trip_of_defaults(self):
        cfg = small_config()
        assert parse_config(format_config(cfg)) == cfg

    def test_round_trip_of_numpy_and_int_inputs(self):
        # each field is stored as its Python type, so the text is plain
        # numbers (np.float64(-180.0) once failed parse_config)
        cfg = dataclasses.replace(
            small_config(n_small_cells=np.int64(2)), noise_psd_dbm_per_hz=np.float64(-180),
            path_loss_exponent=np.float32(3.5), macro_radius=900, small_radius=np.int64(50),
            power_levels=np.array([0.002, 0.02, 0.2]))
        assert all(type(getattr(cfg, name)) is float for name in FLOAT_FIELDS)
        assert all(type(getattr(cfg, name)) is int for name in INT_FIELDS)
        assert cfg.power_levels == (0.002, 0.02, 0.2)
        assert all(type(p) is float for p in cfg.power_levels)
        text = format_config(cfg)
        assert "np." not in text and "macro_radius = 900.0\n" in text
        assert parse_config(text) == cfg

