import dataclasses
import math
import re

import numpy as np
import pytest

from twotier_ee import linklevel
from twotier_ee.config import NetworkConfig
from twotier_ee.linklevel import (
    build_combiners, compute_link_metrics, mrc_combiner, sample_link_context, sinr,
    validate_power_profile,
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
    """`profile` by link position, the layout `sinr` reads."""
    return [profile[link] for link in context.topology.links()]


def position_sinr(context, profile, link):
    return sinr(context, power_list(context, profile), context.topology.position(link))


def channel(context, receiver, cell, sc):
    """The channel vector from the user on link (cell, sc) to `receiver`'s BS."""
    return context.channels.blocks[receiver][context.topology.position((cell, sc))]


def unnormalized_combiner_sinr(context, profile, cell, sc):
    """A physics check: the SINR with the unnormalized MRC combiner a = g, not
    g/||g||.  It must agree, because the SINR is invariant to combiner scaling.
    """
    a = channel(context, cell, cell, sc)
    num = profile[(cell, sc)] * abs(np.vdot(a, a)) ** 2
    den = float(np.vdot(a, a).real) * context.config.noise_power
    for other in context.topology.cells_on(sc):
        if other != cell:
            g = channel(context, cell, other, sc)
            den += profile[(other, sc)] * abs(np.vdot(a, g)) ** 2
    return num / den


class TestCombiner:
    def test_unit_norm_and_direction(self):
        g = np.array([3.0 + 4.0j, 0.0])
        a = mrc_combiner(g)
        assert np.linalg.norm(a) == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(a, g / 5.0)

    def test_zero_channel_rejected(self):
        with pytest.raises(ValueError):
            mrc_combiner(np.zeros(4, dtype=complex))

    def test_build_covers_links(self):
        ctx = make_context(1)
        links = ctx.topology.links()
        assert len(ctx.gains) == len(links)
        for i, ((cell, sc), (_, interferers, noise)) in enumerate(zip(links, ctx.gains)):
            assert ctx.topology.position((cell, sc)) == i
            # the noise power times ||a||^2 = 1 of the unit-norm MRC combiner
            assert noise == pytest.approx(ctx.config.noise_power, rel=1e-12)
            # keyed by the interferer's link position, as the power list is
            assert [j for j, _ in interferers] == \
                [ctx.topology.position((c, sc)) for c in ctx.topology.cells_on(sc) if c != cell]


class TestSinr:
    def test_matches_unnormalized_combiner_sinr(self):
        ctx = make_context(2)
        rng = np.random.default_rng(3)
        profile = {link: float(rng.choice(ctx.config.power_levels))
                   for link in ctx.topology.links()}
        powers = power_list(ctx, profile)
        for i, (cell, sc) in enumerate(ctx.topology.links()):
            assert sinr(ctx, powers, i) == pytest.approx(
                unnormalized_combiner_sinr(ctx, profile, cell, sc), rel=1e-12)

    def test_interference_free_closed_form(self):
        ctx = make_context(4, n_small_cells=0, n_subcarriers=2, n_users_per_cell=1)
        (cell, sc), = ctx.topology.links()
        p = 0.02
        g = channel(ctx, cell, cell, sc)
        expected = p * np.linalg.norm(g) ** 2 / ctx.config.noise_power
        assert sinr(ctx, [p], 0) == pytest.approx(expected, rel=1e-12)

    def test_scale_invariance_of_combiner(self, monkeypatch):
        ctx = make_context(5)
        profile = uniform_profile(ctx, 0.01)
        monkeypatch.setattr(linklevel, "mrc_combiner", lambda g: 7.3 * mrc_combiner(g))
        ctx_scaled = dataclasses.replace(
            ctx, gains=build_combiners(ctx.topology, ctx.channels, ctx.config.noise_power))
        assert ctx_scaled.gains[0][2] == pytest.approx(
            7.3 ** 2 * ctx.config.noise_power, rel=1e-12)
        powers = power_list(ctx, profile)
        for i in range(len(ctx.topology.links())):
            assert sinr(ctx_scaled, powers, i) == pytest.approx(
                sinr(ctx, powers, i), rel=1e-12)

    def test_more_interference_power_lowers_sinr(self):
        ctx = make_context(6)
        sc = ctx.topology.occupied_subcarriers()[0]
        cells = ctx.topology.cells_on(sc)
        assert len(cells) >= 2
        victim, bully = cells[0], cells[1]
        low = uniform_profile(ctx, 0.01)
        high = dict(low)
        high[(bully, sc)] = 0.1
        assert position_sinr(ctx, high, (victim, sc)) < position_sinr(ctx, low, (victim, sc))

    def test_own_power_scales_sinr_linearly(self):
        ctx = make_context(7)
        cell, sc = ctx.topology.links()[0]
        profile = uniform_profile(ctx, 0.01)
        boosted = dict(profile)
        boosted[(cell, sc)] = 0.03
        assert position_sinr(ctx, boosted, (cell, sc)) == pytest.approx(
            3.0 * position_sinr(ctx, profile, (cell, sc)), rel=1e-12)

    def test_cross_subcarrier_independence_is_exact(self):
        ctx = make_context(8)
        subs = ctx.topology.occupied_subcarriers()
        assert len(subs) >= 2
        profile = uniform_profile(ctx, 0.01)
        altered = dict(profile)
        for cell in ctx.topology.cells_on(subs[1]):
            altered[(cell, subs[1])] = 0.1
        for cell in ctx.topology.cells_on(subs[0]):
            assert position_sinr(ctx, altered, (cell, subs[0])) == \
                position_sinr(ctx, profile, (cell, subs[0]))


class TestRateAndEe:
    def test_link_ee_is_rate_over_total_power(self):
        ctx = make_context(9)
        profile = uniform_profile(ctx, 0.02)
        m = compute_link_metrics(ctx, profile)
        for cell, sc in ctx.topology.links():
            expected = float(np.log2(1 + position_sinr(ctx, profile, (cell, sc)))) / (0.02 + 0.01)
            assert m.ee[(cell, sc)] == pytest.approx(expected, rel=1e-12)

    def test_group_ee_is_plain_sum(self):
        ctx = make_context(10)
        m = compute_link_metrics(ctx, uniform_profile(ctx, 0.01))
        assert list(m.group_ee) == ctx.topology.occupied_subcarriers()
        for sc in ctx.topology.occupied_subcarriers():
            flat = sum(m.ee[(cell, sc)] for cell in ctx.topology.cells_on(sc))
            assert m.group_ee[sc] == pytest.approx(flat, rel=1e-12)

    def test_network_ee_is_sum_of_groups(self):
        ctx = make_context(11)
        m = compute_link_metrics(ctx, uniform_profile(ctx, 0.01))
        assert m.network_ee == pytest.approx(sum(m.group_ee.values()), rel=1e-12)


class TestMissingPower:
    """A profile without a power the evaluation reads is named, not a KeyError."""

    def co_channel_pair(self, ctx):
        sc = next(sc for sc in ctx.topology.occupied_subcarriers()
                  if len(ctx.topology.cells_on(sc)) >= 2)
        victim, other = ctx.topology.cells_on(sc)[:2]
        return (victim, sc), (other, sc)

    def test_missing_interferer_named_by_the_metrics(self):
        ctx = make_context(15)
        victim, other = self.co_channel_pair(ctx)
        profile = uniform_profile(ctx, 0.01)
        del profile[other]
        with pytest.raises(ValueError, match=re.escape(f"missing [{other}], extra []")):
            compute_link_metrics(ctx, profile)

    def test_missing_own_power_named_by_the_metrics(self):
        ctx = make_context(16)
        victim, _ = self.co_channel_pair(ctx)
        profile = uniform_profile(ctx, 0.01)
        del profile[victim]
        with pytest.raises(ValueError, match=re.escape(f"missing [{victim}], extra []")):
            compute_link_metrics(ctx, profile)


class TestMetrics:
    def test_metrics_match_pointwise_arithmetic(self):
        ctx = make_context(12)
        profile = uniform_profile(ctx, 0.01)
        m = compute_link_metrics(ctx, profile)
        assert list(m.ee) == ctx.topology.links()
        powers = power_list(ctx, profile)
        for i, link in enumerate(ctx.topology.links()):
            # the scalar EE: np.log2 of one SINR, over transmit plus circuit power
            rate = float(np.log2(1.0 + sinr(ctx, powers, i)))
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
            validate_power_profile(ctx, missing)
        extra = dict(profile)
        extra[(99, 99)] = 0.01
        with pytest.raises(ValueError, match="extra"):
            validate_power_profile(ctx, extra)
        link = ctx.topology.links()[0]
        for p in (0.0, -0.01, math.nan, math.inf, -math.inf):
            bad = dict(profile)
            bad[link] = p
            message = re.escape(f"power {p} on link {link} is not finite and > 0")
            with pytest.raises(ValueError, match=message):
                validate_power_profile(ctx, bad)
            with pytest.raises(ValueError, match=message):
                compute_link_metrics(ctx, bad)

