"""The drop sampler: geometry statistics, the large-scale gain and shadowing, each
refusal of a bad input by name, and the block sampler against the scalar walk of
`tests/reference.py`, value for value.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from twotier_ee.config import NetworkConfig
from twotier_ee.topology import (
    PlacementError, Topology, draw_shadowing, large_scale_gain,
    sample_channels, sample_large_scale_fading, sample_topology,
)


def cfg(**kw):
    base = dict(n_small_cells=2, n_subcarriers=6, n_users_per_cell=6)
    base.update(kw)
    return NetworkConfig(**base)


class TestSampleTopology:
    def test_counts_and_uniqueness(self):
        config = cfg()
        topo = sample_topology(config, np.random.default_rng(0))
        assert topo.bs_positions.shape == (3, 2)
        assert len(topo.bs_positions) == config.n_cells == 3
        assert len(topo.users) == 3 * 6
        links = topo.links()
        assert len(links) == len(set(links))
        # each cell uses distinct subcarriers
        for cell in range(3):
            subs = [sc for c, sc in links if c == cell]
            assert len(subs) == 6
            assert len(set(subs)) == 6

    def test_geometry_invariants_over_many_drops(self):
        config = cfg(n_small_cells=3, n_subcarriers=8, n_users_per_cell=4)
        for seed in range(300):
            topo = sample_topology(config, np.random.default_rng(seed))
            assert topo.bs_positions.shape == (4, 2)
            assert np.allclose(topo.bs_positions[0], 0.0)
            sbs = topo.bs_positions[1:]
            for p in sbs:
                assert np.linalg.norm(p) <= config.macro_radius + 1e-9
            for i in range(len(sbs)):
                for j in range(i + 1, len(sbs)):
                    d = np.linalg.norm(sbs[i] - sbs[j])
                    assert d >= 2.0 * config.small_radius - 1e-9
            for (cell, _), position in topo.users.items():
                center = topo.bs_positions[cell]
                radius = config.macro_radius if cell == 0 else config.small_radius
                assert np.linalg.norm(np.asarray(position) - center) <= radius + 1e-9

    def test_overconstrained_placement_raises(self):
        # five SBS discs pairwise >= 200 m apart cannot fit in a 150 m disc
        config = cfg(n_small_cells=5, macro_radius=150.0, small_radius=100.0)
        with pytest.raises(PlacementError):
            sample_topology(config, np.random.default_rng(0))

    def test_full_occupancy_when_users_equal_subcarriers(self):
        topo = sample_topology(cfg(), np.random.default_rng(1))
        for sc in range(6):
            assert topo.cells_on(sc) == (0, 1, 2)

    def test_single_cell_single_user(self):
        config = cfg(n_small_cells=0, n_subcarriers=1, n_users_per_cell=1)
        topo = sample_topology(config, np.random.default_rng(0))
        assert topo.links() == [(0, 0)]
        assert topo.cells_on(0) == (0,)
        assert topo.occupied_subcarriers() == [0]

    def test_co_channel_is_shared_tuple_of_cells_on(self):
        topo = sample_topology(cfg(n_users_per_cell=1), np.random.default_rng(2))
        for sc in range(6):
            group = topo.cells_on(sc)
            assert isinstance(group, tuple)
            assert group == tuple(sorted(cell for cell, s in topo.users if s == sc))
            assert topo.cells_on(sc) is group
        assert any(topo.cells_on(sc) == () for sc in range(6))

    def test_cochannel_occupancy_matches_uniform_sampling_rate(self):
        # with K=2 cells picking 3 of 6 subcarriers independently and
        # uniformly, a given subcarrier hosts all three cells w.p. (1/2)^3
        config = cfg(n_users_per_cell=3)
        rng = np.random.default_rng(7)
        n_drops = 3000
        hits = 0
        for _ in range(n_drops):
            topo = sample_topology(config, rng)
            hits += sum(1 for sc in range(6) if len(topo.cells_on(sc)) == 3)
        fraction = hits / (n_drops * 6)
        assert fraction == pytest.approx(0.125, abs=0.01)

    def test_has_user_is_membership_in_links(self):
        for seed, config in enumerate([cfg(), cfg(n_users_per_cell=2),
                                       cfg(n_small_cells=3, n_subcarriers=5, n_users_per_cell=3),
                                       cfg(n_small_cells=0, n_subcarriers=1, n_users_per_cell=1)]):
            topo = sample_topology(config, np.random.default_rng(seed))
            links = set(topo.links())
            for cell in range(config.n_cells + 1):
                for sc in range(config.n_subcarriers + 1):
                    assert topo.has_user(cell, sc) == ((cell, sc) in links)


class TestLargeScaleGain:
    def test_reference_values(self):
        config = cfg()
        assert large_scale_gain(1.0, config, 1.0) == pytest.approx(1.0, rel=1e-12)
        assert large_scale_gain(10.0, config, 1.0) == pytest.approx(10.0 ** -3.8, rel=1e-12)

    def test_shadow_scales_linearly(self):
        config = cfg()
        assert large_scale_gain(10.0, config, 2.5) == pytest.approx(
            2.5 * large_scale_gain(10.0, config, 1.0), rel=1e-12)

    def test_minimum_distance_clamp(self):
        config = cfg()
        assert large_scale_gain(0.25, config, 1.0) == large_scale_gain(1.0, config, 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_invalid_inputs(self):
        config = cfg()
        with pytest.raises(ValueError):
            large_scale_gain(0.0, config, 1.0)
        with pytest.raises(ValueError):
            large_scale_gain(-3.0, config, 1.0)
        with pytest.raises(ValueError):
            large_scale_gain(5.0, config, 0.0)
        # a block is refused for any one value
        with pytest.raises(ValueError, match="distance must be > 0, got 0.0"):
            large_scale_gain(np.array([5.0, 0.0]), config, np.ones(2))
        with pytest.raises(ValueError, match="shadow draw must be > 0, got 0.0"):
            large_scale_gain(np.array([5.0, 6.0]), config, np.array([1.0, 0.0]))
        # a gain that overflows, without numpy's warning
        for distance, shadow in [(1.0, 10.0), (np.array([5.0, 1.0]), np.array([1.0, 10.0]))]:
            with pytest.raises(ValueError, match=r"overflows: antenna_constant = 1e\+308 is "):
                large_scale_gain(distance, cfg(antenna_constant=1e308), shadow)


class TestShadowing:
    def test_log_domain_moments(self):
        config = cfg()
        draws = draw_shadowing(config, np.random.default_rng(3), size=100_000)
        db = 10.0 * np.log10(draws)
        assert abs(np.mean(db)) < 0.1
        assert np.var(db) == pytest.approx(10.0, rel=0.05)

    def test_all_positive(self):
        draws = draw_shadowing(cfg(), np.random.default_rng(5), size=10_000)
        assert np.all(draws > 0)

    def test_overflowing_draw_names_the_field(self):
        # at 1000 dB a draw above about 3083 dB overflows 10 ** (x / 10)
        config = cfg(shadowing_std_db=1000.0)
        with pytest.raises(ValueError, match=r"a shadowing draw of \d+\.\d+ dB overflows "
                                             r".*shadowing_std_db = 1000\.0 is too large"):
            draw_shadowing(config, np.random.default_rng(0), size=10_000)

    def test_underflowing_draw_names_the_field(self):
        # at 1000 dB a draw below about -3233 dB underflows 10 ** (x / 10) to 0;
        # seed 4 draws one at -3267 dB and none that overflows
        config = cfg(shadowing_std_db=1000.0)
        with pytest.raises(ValueError, match=r"a shadowing draw of -3266\.98\d* dB underflows "
                                             r"10 \*\* \(x / 10\) to 0; "
                                             r"shadowing_std_db = 1000\.0 is too large"):
            draw_shadowing(config, np.random.default_rng(4), size=1000)


def by_position(topology, keyed):
    """A reference dict keyed (receiver, cell, subcarrier) as (receiver, link position) rows."""
    return [[keyed[(rx, cell, sc)] for cell, sc in topology.links()]
            for rx in range(len(topology.bs_positions))]


def distances(topology):
    """(receiver, link position) BS-to-user distances, each a 1-D norm as the reference's."""
    return np.array([[float(np.linalg.norm(bs - np.asarray(topology.users[link])))
                      for link in topology.links()] for bs in topology.bs_positions])


def assert_matches_reference(config, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    topo = sample_topology(config, rng)
    fading = sample_large_scale_fading(topo, config, rng)
    channels = sample_channels(topo, fading, config, rng)
    ref = reference.sample_drop(config, ref_rng)
    assert list(topo.users.items()) == list(ref.users.items())
    assert np.array_equal(list(topo.users.values()), list(ref.users.values()))
    assert np.array_equal(topo.bs_positions, ref.bs_positions)
    links = topo.links()
    assert fading.shape == (config.n_cells, len(links))
    assert fading.tolist() == by_position(topo, ref.beta)
    assert fading.tolist() == large_scale_gain(
        distances(topo), config, np.array(by_position(topo, ref.shadow))).tolist()
    assert channels.links == links
    assert len(channels.blocks) == config.n_cells
    for rx, block in enumerate(channels.blocks):
        n_rx = config.n_antennas_mbs if rx == 0 else config.n_antennas_sbs
        assert block.shape == (len(links), n_rx) and block.dtype == np.complex128
        for i, (cell, sc) in enumerate(links):
            assert np.array_equal(block[i], ref.g[(rx, cell, sc)])
    assert rng.random() == ref_rng.random()


@st.composite
def small_configs(draw):
    n_subcarriers = draw(st.integers(1, 6))
    n_antennas_sbs = draw(st.integers(1, 8))
    return NetworkConfig(
        n_small_cells=draw(st.integers(0, 3)),
        n_subcarriers=n_subcarriers,
        n_users_per_cell=draw(st.integers(1, n_subcarriers)),
        n_antennas_mbs=draw(st.sampled_from([n_antennas_sbs, 16])),
        n_antennas_sbs=n_antennas_sbs,
        shadowing_std_db=draw(st.sampled_from([0.0, math.sqrt(10.0)])),
    )


@pytest.mark.bitexact
class TestStreamPreservation:
    """The block sampler against the one-vector-at-a-time walk of `tests/reference.py`."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(config=small_configs(), seed=st.integers(0, 2**32))
    def test_block_sampler_matches_scalar_reference(self, config, seed):
        assert_matches_reference(config, seed)

    @pytest.mark.parametrize("seed", range(5))
    def test_block_sampler_matches_scalar_reference_at_reference_scale(self, seed):
        assert_matches_reference(cfg(), seed)

    @pytest.mark.parametrize("seed", range(2))
    def test_block_sampler_matches_scalar_reference_across_draw_runs(self, seed):
        # 80 links at 128 macro antennas: the macro block comes in runs of 32, 32 and 16 rows
        assert_matches_reference(cfg(n_small_cells=3, n_subcarriers=24, n_users_per_cell=20),
                                 seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_gain_block_is_the_scalar_gain_per_value(self, seed):
        config = cfg(n_small_cells=3)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        topo = sample_topology(config, rng)
        distance = distances(topo)
        shadow = draw_shadowing(config, rng, size=distance.shape)
        block = large_scale_gain(distance, config, shadow)
        assert block.shape == distance.shape
        assert block.tolist() == [[large_scale_gain(d, config, x) for d, x in zip(*rows)]
                                  for rows in zip(distance.tolist(), shadow.tolist())]
        bs_positions, users = reference.sample_topology(config, ref_rng)
        ref_beta, _ = reference.sample_fading(config, bs_positions, users, ref_rng)
        assert block.tolist() == by_position(topo, ref_beta)

    def test_user_at_its_base_station(self):
        config = cfg(n_small_cells=1, n_subcarriers=1, n_users_per_cell=1)
        topo = Topology(bs_positions=np.array([[0.0, 0.0], [300.0, 400.0]]),
                        users={(0, 0): (0.0, 0.0), (1, 0): (300.0, 400.0)})
        fading = sample_large_scale_fading(topo, config, np.random.default_rng(3))
        assert topo.links() == [(0, 0), (1, 0)]   # cell c's user at position c
        ref_beta, ref_shadow = reference.sample_fading(config, topo.bs_positions, topo.users,
                                                       np.random.default_rng(3))
        shadowing = by_position(topo, ref_shadow)
        for cell in (0, 1):
            assert fading[cell, cell] == large_scale_gain(1.0, config, shadowing[cell][cell])
        assert fading[0, 1] == large_scale_gain(500.0, config, shadowing[0][1])
        assert fading.tolist() == by_position(topo, ref_beta)


class TestArrayDropState:
    """The keyed `g` view of the channel blocks, built on its first read and kept."""

    @staticmethod
    def sampled(config, seed):
        rng = np.random.default_rng(seed)
        topo = sample_topology(config, rng)
        fading = sample_large_scale_fading(topo, config, rng)
        return topo, fading, sample_channels(topo, fading, config, rng)

    def test_g_view_rows_are_the_block_rows(self):
        topo, _, channels = self.sampled(cfg(n_users_per_cell=4), 37)
        links = topo.links()
        assert "g" not in vars(channels)
        g = channels.g
        assert "g" in vars(channels)
        assert list(g) == [(rx, cell, sc) for rx in range(3) for cell, sc in links]
        for (rx, cell, sc), vector in g.items():
            row = channels.blocks[rx][links.index((cell, sc))]
            assert vector.tobytes() == row.tobytes()
            assert vector.nbytes == row.nbytes == 16 * (128 if rx == 0 else 4)
            assert np.shares_memory(vector, channels.blocks[rx])
        assert sum(v.nbytes for v in g.values()) == sum(b.nbytes for b in channels.blocks)
        assert channels.g is g
        key = (1, *links[2])
        before = channels.blocks[1][2].copy()
        g[key] *= 3.0
        assert np.array_equal(channels.blocks[1][2], before * 3.0)
