"""The MRC combiner and the per-drop metrics, on hand-built and sampled drops."""

import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from twotier_ee.config import NetworkConfig
from twotier_ee.linklevel import (
    compute_link_metrics, interference, mrc_combiner, sample_link_context, sinr,
)


def cfg(**kw):
    base = dict(n_small_cells=2, n_subcarriers=4, n_users_per_cell=4)
    base.update(kw)
    return NetworkConfig(**base)


def make_context(seed=0, **kw):
    return sample_link_context(cfg(**kw), np.random.default_rng(seed))


def uniform_profile(context, power):
    return {link: power for link in context.topology.links()}


def power_list(context, profile):
    """`profile` by link position, the layout of the power arrays."""
    return [profile[link] for link in context.topology.links()]


class TestCombiner:
    def test_unit_norm_and_direction(self):
        g = np.array([3.0 + 4.0j, 0.0])
        a = mrc_combiner(g)
        assert np.linalg.norm(a) == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(a, g / 5.0)

    def test_zero_channel_rejected(self):
        with pytest.raises(ValueError):
            mrc_combiner(np.zeros(4, dtype=complex))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("g", [np.array([1e200, 1e200j]), np.array([math.inf, 1.0])],
                             ids=["squared-norm-overflows", "inf-entry"])
    def test_overflowing_norm_rejected(self, g):
        # 1 / inf would give a zero combiner, and the link a 0 / 0 SINR
        with pytest.raises(ValueError, match=re.escape(
                "cannot build a combiner: a channel norm overflows to inf")):
            mrc_combiner(np.stack([np.array([3.0 + 4.0j, 0.0]), g]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_channel_rejected(self):
        with pytest.raises(ValueError, match=re.escape(
                "cannot build a combiner: a channel vector is not finite")):
            mrc_combiner(np.stack([np.array([3.0 + 4.0j, 0.0]), np.array([math.nan, 1.0])]))

    def test_build_covers_links(self):
        ctx = make_context(1)
        links = ctx.topology.links()
        gains = ctx.gains
        assert len(gains.own) == len(gains.noise) == len(links)
        assert gains.idx.shape == gains.gain.shape == (len(links), gains.idx.shape[1])
        for i, (cell, sc) in enumerate(links):
            assert ctx.topology.position((cell, sc)) == i
            # the noise power times ||a||^2 = 1 of the unit-norm MRC combiner
            assert gains.noise[i] == pytest.approx(ctx.config.noise_power, rel=1e-12)
            # the interferers by link position, as the power array is, then the link itself
            others = [ctx.topology.position((c, sc))
                      for c in ctx.topology.cells_on(sc) if c != cell]
            padding = gains.idx.shape[1] - len(others)
            assert gains.idx[i].tolist() == others + [i] * padding
            assert (gains.gain[i, len(others):] == 0.0).all()
            assert (gains.gain[i, :len(others)] > 0.0).all()


class TestMetrics:
    def test_metrics_match_pointwise_arithmetic(self):
        ctx = make_context(12)
        profile = uniform_profile(ctx, 0.01)
        m = compute_link_metrics(ctx, profile)
        assert list(m.ee) == ctx.topology.links()
        acc = interference(np.array(power_list(ctx, profile)), ctx.gains.idx,
                           ctx.gains.gain).tolist()
        for i, link in enumerate(ctx.topology.links()):
            # the scalar EE: np.log2 of one SINR, over transmit plus circuit power
            rate = float(np.log2(1.0 + sinr(ctx, i, profile[link], acc[i])))
            assert m.ee[link] == rate / (profile[link] + ctx.config.circuit_power)
            assert type(m.ee[link]) is float
        for sc in ctx.topology.occupied_subcarriers():
            total = 0.0
            for cell in ctx.topology.cells_on(sc):
                total += m.ee[(cell, sc)]
            assert m.group_ee[sc] == total
            assert type(m.group_ee[sc]) is float
        total = 0.0
        for sc in ctx.topology.occupied_subcarriers():
            total += m.group_ee[sc]
        assert m.network_ee == total

    @pytest.mark.parametrize("seed, kw", [
        (18, {}),
        (19, dict(n_small_cells=4, n_subcarriers=8, n_users_per_cell=5)),
        (20, dict(n_small_cells=8, n_subcarriers=16, n_users_per_cell=12)),
    ])
    def test_cell_totals_equal_per_cell_scan(self, seed, kw):
        ctx = make_context(seed, **kw)
        rng = np.random.default_rng(seed)
        levels = ctx.config.power_levels
        m = compute_link_metrics(ctx, {link: levels[int(rng.integers(len(levels)))]
                                       for link in ctx.topology.links()})
        # one cell past the last holds no link, so its total is 0.0
        n_cells = ctx.config.n_cells + 1
        expected = []
        for cell in range(n_cells):
            total = 0.0
            for (c, _), v in m.ee.items():
                if c == cell:
                    total += v
            expected.append(total)
        assert m.cell_totals(n_cells) == expected
        assert m.cell_totals(n_cells)[-1] == 0.0

    def test_cell_decomposition_matches_network_total(self):
        ctx = make_context(13)
        m = compute_link_metrics(ctx, uniform_profile(ctx, 0.01))
        total = sum(m.cell_totals(ctx.config.n_cells))
        assert total == pytest.approx(m.network_ee, rel=1e-12)

    def test_profile_validation(self):
        ctx = make_context(14)
        profile = uniform_profile(ctx, 0.01)
        missing = dict(profile)
        missing.pop(ctx.topology.links()[0])
        with pytest.raises(ValueError, match="missing"):
            compute_link_metrics(ctx, missing)
        extra = dict(profile)
        extra[(99, 99)] = 0.01
        with pytest.raises(ValueError, match="extra"):
            compute_link_metrics(ctx, extra)
        # the metrics name a missing own power and a missing interferer's
        sc = next(sc for sc in ctx.topology.occupied_subcarriers()
                  if len(ctx.topology.cells_on(sc)) >= 2)
        for cell in ctx.topology.cells_on(sc)[:2]:
            missing = dict(profile)
            del missing[(cell, sc)]
            with pytest.raises(ValueError, match=re.escape(f"missing [{(cell, sc)}], extra []")):
                compute_link_metrics(ctx, missing)
        link = ctx.topology.links()[0]
        for p in (0.0, -0.01, math.nan, math.inf, -math.inf):
            bad = dict(profile)
            bad[link] = p
            message = re.escape(f"power {p} on link {link} is not finite and > 0")
            with pytest.raises(ValueError, match=message):
                compute_link_metrics(ctx, bad)
        # a bool is not a power, as NetworkConfig refuses it; a non-real is named, not a
        # TypeError; a real beyond the float range is named, not an OverflowError
        for p, rule in ((True, "a real number"), (np.True_, "a real number"),
                        ("0.01", "a real number"), (None, "a real number"),
                        (0.01 + 0j, "a real number"), (Decimal("0.01"), "a real number"),
                        (10**400, "finite"), (Fraction(10**400, 3), "finite")):
            bad = {**profile, link: p}
            message = re.escape(f"power on link {link} must be {rule}, got {p!r}")
            with pytest.raises(ValueError, match=message):
                compute_link_metrics(ctx, bad)
        for p in (np.float64(0.01), 1, np.int64(1)):
            compute_link_metrics(ctx, {**profile, link: p})

    @pytest.mark.parametrize("kind", [np.float32, np.float16, np.int64, Fraction])
    def test_powers_computed_as_the_python_floats_they_equal(self, kind):
        # a float32 profile was evaluated in float32: network_ee 7232.764650344849
        # where the same values as Python floats give 7232.764551894642
        ctx = make_context(21, n_small_cells=4, n_subcarriers=8, n_users_per_cell=6)
        rng = np.random.default_rng(21)
        levels = (1, 2, 3) if kind is np.int64 else ctx.config.power_levels
        profile = {link: kind(levels[int(rng.integers(len(levels)))])
                   for link in ctx.topology.links()}
        as_floats = {link: float(p) for link, p in profile.items()}

        def hexes(m):
            return ([float.hex(v) for v in m.ee.values()],
                    [float.hex(v) for v in m.group_ee.values()], float.hex(m.network_ee))
        assert hexes(compute_link_metrics(ctx, profile)) == \
            hexes(compute_link_metrics(ctx, as_floats))

