"""The evaluation kernel: bit-exact against the scalar reference, at a fixed call count.

`sinr` and the EE after it run once per evaluated profile, so they are
kept on plain float arithmetic.  TestKernelPreservation checks them, the
metrics' link, group and network EE, and the oracles and best-response
dynamics built on them, against `tests/reference.py`.  TestPaddedGainTable
checks the padded slot arrays of the gain table and the `interference`
slot sum against the reference's interferer lists and left-to-right sums,
float by float, on whole drops and on the oracles' chunks.
TestBatchedOracle checks the oracles' chunked numpy objective and
first-maximum pick against the reference search, with ngt's row-wise pick,
and the vector-equals-scalar `np.log2` it rests on.  TestBatchedEe checks
`batch_ee`, which egt, ngt and the metrics take after their `sinr` calls,
on short, strided and offset arrays and (links, levels) blocks.
TestStackedGainTable checks the per-receiver stacked gain table, built from
the channel blocks and laid out by link position, against the reference's
table, and the numpy rounding facts it rests on.
TestSinrCallSequence pins each `sinr` call's link, power and interference
against the dict-keyed evaluators' order, and the call count the benchmark
reports.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from twotier_ee import baselines, linklevel
from twotier_ee.baselines import brute_force_global, brute_force_group, ngt_best_response
from twotier_ee.config import DEFAULT_POWER_LEVELS, NetworkConfig
from twotier_ee.egt import egt_step, new_games
from twotier_ee.linklevel import (
    batch_ee, build_combiners, compute_link_metrics, interference, mrc_combiner,
    sample_link_context, sinr,
)
from twotier_ee.topology import ChannelRealization, Topology

# oracle runs in the property test are capped so that one example stays cheap
_ORACLE_CAP = 4096


def padded(topology, gains):
    """The reference's gain table in the package's layout: own and noise by
    link position as Python floats, and each link's row of slots, its
    interferers by link position and gain, cells ascending, then (the link
    itself, 0.0) up to the longest row."""
    links = topology.links()
    rows = [[(topology.position((other, sc)), float(gain)) for other, gain in gains[(cell, sc)][1]]
            for cell, sc in links]
    m = max(map(len, rows))
    rows = [row + [(i, 0.0)] * (m - len(row)) for i, row in enumerate(rows)]
    return ([float(gains[link][0]) for link in links], [gains[link][2] for link in links],
            [[j for j, _ in row] for row in rows], [[g for _, g in row] for row in rows])


def table_rows(table):
    """A `GainTable` as `padded` lays it out."""
    return table.own, table.noise, table.idx.tolist(), table.gain.tolist()


def power_list(context, profile):
    """`profile` by link position, the layout of the power arrays."""
    return [profile[link] for link in context.topology.links()]


def hexed(values):
    return [float.hex(v) for v in values]


def assert_oracle_matches(result, expected):
    profile, objective, count = expected
    assert list(result.profile.items()) == list(profile.items())
    assert result.objective == objective
    assert result.evaluations == count


def kernel_case(config, seed):
    """A drop, the reference's walk of the same drop, and a random level profile."""
    ctx = sample_link_context(config, np.random.default_rng(seed))
    ref = reference.sample_drop(config, np.random.default_rng(seed))
    levels = config.power_levels
    rng = np.random.default_rng(seed + 1)
    profile = {link: levels[int(rng.integers(len(levels)))] for link in ctx.topology.links()}
    return ctx, ref, profile


def assert_kernel_matches_reference(config, seed):
    ctx, ref, profile = kernel_case(config, seed)
    levels = config.power_levels
    links = ctx.topology.links()

    # every link at every level of its own power, the others held fixed
    for i, link in enumerate(links):
        trial = dict(profile)
        for p in levels:
            trial[link] = p
            acc = interference(np.array(power_list(ctx, trial)), ctx.gains.idx, ctx.gains.gain)
            assert sinr(ctx, i, p, acc.tolist()[i]) == reference.sinr(ref, trial, link)
            assert compute_link_metrics(ctx, trial).ee[link] == \
                reference.user_ee(ref, trial, link)
    metrics = compute_link_metrics(ctx, profile)
    assert list(metrics.ee.items()) == [(link, reference.user_ee(ref, profile, link))
                                        for link in links]
    assert list(metrics.group_ee.items()) == [(sc, reference.group_ee(ref, profile, sc))
                                              for sc in ref.occupied_subcarriers]
    assert metrics.network_ee == reference.network_ee(ref, profile)

    for sc in ctx.topology.occupied_subcarriers():
        if len(levels) ** len(ctx.topology.cells_on(sc)) <= _ORACLE_CAP:
            oracle = brute_force_group(sc, ctx)
            assert_oracle_matches(oracle, reference.group_oracle(ref, sc))
            # on the oracle's own profile, its objective is the metrics' group EE
            assert oracle.objective == \
                compute_link_metrics(ctx, {**profile, **oracle.profile}).group_ee[sc]
    if len(levels) ** len(links) <= _ORACLE_CAP:
        assert_oracle_matches(brute_force_global(ctx), reference.global_oracle(ref))

    rng, ref_rng = np.random.default_rng(seed + 2), np.random.default_rng(seed + 2)
    ngt = ngt_best_response(ctx, rng)
    expected = reference.ngt(ref, ref_rng)
    assert list(ngt.profile.items()) == list(expected.profile.items())
    assert [ngt.rounds, ngt.converged, ngt.evaluations] == \
        [expected.iterations, expected.converged, expected.evaluations]
    # the one vector draw of the start profile leaves the generator where the scalar walk does
    assert rng.random() == ref_rng.random()


@st.composite
def small_configs(draw):
    n_subcarriers = draw(st.integers(1, 4))
    n_antennas_sbs = draw(st.integers(1, 4))
    return NetworkConfig(
        # up to 5 cells, so up to 4 interferers whose summation order matters
        n_small_cells=draw(st.integers(0, 4)),
        n_subcarriers=n_subcarriers,
        n_users_per_cell=draw(st.integers(1, n_subcarriers)),
        n_antennas_mbs=draw(st.sampled_from([n_antennas_sbs, 128])),
        n_antennas_sbs=n_antennas_sbs,
        noise_psd_dbm_per_hz=draw(st.floats(-204.0, -154.0)),
        power_levels=DEFAULT_POWER_LEVELS[:draw(st.integers(2, 8))],
    )


@st.composite
def interference_cases(draw):
    """A drop of 1 to 12 cells, a strictly rising level list and a seed."""
    n_subcarriers = draw(st.integers(1, 4))
    levels = draw(st.lists(st.floats(1e-6, 10.0), min_size=1, max_size=8, unique=True))
    return NetworkConfig(
        # one cell gives only single-link groups, 8 or more give long interferer lists
        n_small_cells=draw(st.integers(0, 11)),
        n_subcarriers=n_subcarriers,
        n_users_per_cell=draw(st.integers(1, n_subcarriers)),
        noise_psd_dbm_per_hz=draw(st.floats(-204.0, -154.0)),
        power_levels=sorted(levels),
    ), draw(st.integers(0, 2**32))


@pytest.mark.bitexact
class TestKernelPreservation:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(config=small_configs(), seed=st.integers(0, 2**32))
    def test_float_kernel_matches_numpy_scalar_reference(self, config, seed):
        assert_kernel_matches_reference(config, seed)

    @pytest.mark.parametrize("seed", range(5))
    def test_float_kernel_matches_numpy_scalar_reference_at_reference_scale(self, seed):
        config = NetworkConfig(n_small_cells=2, n_subcarriers=6, n_users_per_cell=6)
        assert_kernel_matches_reference(config, seed)

    def test_gain_table_holds_python_floats(self):
        ctx = sample_link_context(NetworkConfig(n_small_cells=2, n_subcarriers=4,
                                                n_users_per_cell=4),
                                  np.random.default_rng(0))
        assert all(type(v) is float for v in ctx.gains.own + ctx.gains.noise)
        assert ctx.gains.idx.dtype.kind == "i" and ctx.gains.gain.dtype == np.float64


def reference_sums(context, ref, matrix):
    """`reference.interference` of every link under each row of `matrix`, a
    power per link position."""
    links = context.topology.links()
    return [[reference.interference(ref, dict(zip(links, row)), link) for link in links]
            for row in matrix.tolist()]


# (config, seed, the drop's co-channel group sizes): no slot at K = 0, a lone link padded
# in full beside a group, and drops of 9 to 11 cells with long slot rows
SLOT_CASES = [
    pytest.param(dict(n_small_cells=0, n_subcarriers=3, n_users_per_cell=2), 0, [1, 1],
                 id="K0-m0"),
    pytest.param(dict(n_small_cells=2, n_subcarriers=8, n_users_per_cell=2), 1, [1, 1, 2, 1, 1],
                 id="single-link-groups"),
    pytest.param(dict(n_small_cells=8, n_subcarriers=2, n_users_per_cell=2), 2, [9, 9],
                 id="9-cells"),
    pytest.param(dict(n_small_cells=9, n_subcarriers=3, n_users_per_cell=2), 3, [7, 5, 8],
                 id="10-cells"),
    pytest.param(dict(n_small_cells=10, n_subcarriers=2, n_users_per_cell=1), 4, [10, 1],
                 id="11-cells"),
]


@pytest.mark.bitexact
class TestPaddedGainTable:
    """The slot arrays of `build_combiners` and the `interference` slot sum,
    float by float against the reference's lists and left-to-right sums."""

    @staticmethod
    def assert_rows_and_sums(config, seed):
        ctx = sample_link_context(config, np.random.default_rng(seed))
        ref = reference.sample_drop(config, np.random.default_rng(seed))
        expected = padded(ctx.topology, ref.gains)
        assert table_rows(ctx.gains) == expected
        assert hexed(ctx.gains.gain.ravel().tolist()) == hexed(sum(expected[3], []))
        rng = np.random.default_rng(seed + 1)
        for n_profiles in (1, 3, 7):
            matrix = 10.0 ** rng.uniform(-6.0, 1.0, size=(n_profiles, len(ctx.gains.own)))
            got = interference(matrix, ctx.gains.idx, ctx.gains.gain)
            assert got.shape == matrix.shape
            assert [hexed(row) for row in got.tolist()] == \
                [hexed(row) for row in reference_sums(ctx, ref, matrix)]
        # one profile as a vector, the leading shape the metrics and egt pass
        got = interference(matrix[0], ctx.gains.idx, ctx.gains.gain)
        assert hexed(got.tolist()) == hexed(reference_sums(ctx, ref, matrix[:1])[0])
        return ctx

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(case=interference_cases())
    def test_rows_and_sums_equal_the_reference(self, case):
        self.assert_rows_and_sums(*case)

    @pytest.mark.parametrize("config, seed, sizes", SLOT_CASES)
    def test_rows_and_sums_at_the_edges(self, config, seed, sizes):
        ctx = self.assert_rows_and_sums(NetworkConfig(**config), seed)
        topology = ctx.topology
        assert [len(topology.cells_on(sc)) for sc in topology.occupied_subcarriers()] == sizes
        assert ctx.gains.idx.shape == (len(topology.links()), max(sizes) - 1)

    @pytest.mark.parametrize("chunk", [1, 3, 7, 4096])
    @pytest.mark.parametrize("config, seed, sizes", SLOT_CASES)
    def test_oracle_chunk_sums_equal_the_reference(self, monkeypatch, sinr_calls, chunk,
                                                   config, seed, sizes):
        # each sum the oracle passes, on its chunked (profiles, links) matrix whose slots
        # are mapped to the search's columns; two levels keep 11-cell groups at 2^11 profiles
        config = NetworkConfig(**config, power_levels=DEFAULT_POWER_LEVELS[::7])
        monkeypatch.setattr(baselines, "_CHUNK_PROFILES", chunk)
        ctx = sample_link_context(config, np.random.default_rng(seed))
        ref = reference.sample_drop(config, np.random.default_rng(seed))
        for sc in ctx.topology.occupied_subcarriers():
            sinr_calls.clear()
            brute_force_group(sc, ctx)
            links = [(cell, sc) for cell in ctx.topology.cells_on(sc)]
            assert exact(sinr_calls) == exact(reference_oracle_calls(ctx, ref, links))


def split(values, size):
    return [np.array(values[i:i + size], dtype=float) for i in range(0, len(values), size)]


nan, inf = math.nan, math.inf

FIRST_MAX_CASES = [
    [1.0, 3.0, 2.0, 3.0, 3.0, 0.5, 3.0],             # equal maxima, in and across chunks
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],         # all tied
    [nan, 2.0, 1.0, 2.0],                              # NaN at the front
    [1.0, 2.0, nan, 5.0, nan, 5.0, 4.0],              # NaN in the middle
    [nan, nan, nan, nan, nan],                         # NaN everywhere
    [1.0, inf, nan, inf, 2.0, inf],                    # +inf ties
    [-inf, -inf, -inf, -inf],                          # all -inf: nothing is picked
    [-inf, nan, -inf, -1e308, nan],                    # one finite value among -inf and NaN
    [2.0],
]


class TestBatchedOracle:
    """Chunked numpy objective and pick of the oracles against the scalar search."""

    @pytest.mark.parametrize("chunk", [1, 3, 7, baselines._CHUNK_PROFILES])
    @pytest.mark.parametrize("config, seed", [
        (NetworkConfig(n_small_cells=2, n_subcarriers=2, n_users_per_cell=2,
                       power_levels=DEFAULT_POWER_LEVELS[:3]), 0),
        (NetworkConfig(n_small_cells=1, n_subcarriers=3, n_users_per_cell=2,
                       power_levels=DEFAULT_POWER_LEVELS[:5]), 1),
        (NetworkConfig(n_small_cells=3, n_subcarriers=1, n_users_per_cell=1), 2),
    ])
    def test_chunk_size_does_not_move_the_oracles(self, monkeypatch, chunk, config, seed):
        ctx = sample_link_context(config, np.random.default_rng(seed))
        ref = reference.sample_drop(config, np.random.default_rng(seed))
        monkeypatch.setattr(baselines, "_CHUNK_PROFILES", chunk)
        for sc in ctx.topology.occupied_subcarriers():
            assert_oracle_matches(brute_force_group(sc, ctx), reference.group_oracle(ref, sc))
        assert_oracle_matches(brute_force_global(ctx), reference.global_oracle(ref))

    def test_global_oracle_across_default_chunks(self):
        # 13 links in two co-channel groups: 2^13 = 8192 profiles, two default chunks
        config = NetworkConfig(n_small_cells=12, n_subcarriers=2, n_users_per_cell=1,
                               power_levels=(0.01, 0.1))
        ctx = sample_link_context(config, np.random.default_rng(0))
        assert len(ctx.topology.links()) == 13
        assert len(ctx.topology.occupied_subcarriers()) == 2
        assert 2 ** 13 > baselines._CHUNK_PROFILES
        ref = reference.sample_drop(config, np.random.default_rng(0))
        assert_oracle_matches(brute_force_global(ctx), reference.global_oracle(ref))

    @pytest.mark.parametrize("values", FIRST_MAX_CASES)
    @pytest.mark.parametrize("size", [1, 2, 3, 7, 64])
    def test_first_max_equals_strict_scan(self, values, size):
        index, value = baselines._first_max(split(values, size))
        expected_index, expected_value = reference.first_max(values)
        assert index == expected_index
        assert value == expected_value
        assert type(value) is float
        # ngt's pick: every rotation of the case is one row of a (links, levels)
        # block, and a row with nothing above -inf picks level 0
        block = np.array([values[k:] + values[:k] for k in range(len(values))])
        assert baselines._first_max_rows(block).tolist() == \
            [reference.first_max(row)[0] or 0 for row in block.tolist()]

    def test_vector_log2_is_bit_identical_to_scalar(self):
        # the batched oracle objective takes np.log2(1.0 + S) over a whole
        # chunk where the scalar kernel takes it per value; they agree only if
        # the vector loop rounds exactly as the one-element call does
        rng = np.random.default_rng(20170601)
        sample = np.concatenate([
            [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1.0, 1e300],
            np.logspace(-300.0, 300.0, 6001),
            10.0 ** rng.uniform(-300.0, 300.0, 50_000),
            rng.uniform(0.0, 1e4, 50_000),        # the SINRs of typical links
        ])
        vector = np.log2(1.0 + sample)
        mismatches = [float(v) for v, got in zip(sample.tolist(), vector.tolist())
                      if float(np.log2(1.0 + v)) != got]
        assert not mismatches, (
            f"vector np.log2 differs from scalar np.log2 on {len(mismatches)} of "
            f"{sample.size} values (first: {mismatches[:3]}); the batched objective of "
            f"brute_force_group / brute_force_global depends on them agreeing bit for "
            f"bit, so the numpy pin has moved (numpy {np.__version__})"
        )


def assert_bit_contract(what, pairs, reader="the stacked gain table of build_combiners"):
    mismatches = [(want, got) for want, got in pairs if want != got]
    assert not mismatches, (
        f"{what} differs on {len(mismatches)} of {len(pairs)} values (first: "
        f"{mismatches[:3]}); {reader} depends on them agreeing bit for bit, so the "
        f"numpy pin has moved (numpy {np.__version__})"
    )


BATCHED_EE = "the batched EE (linklevel.batch_ee) of egt, ngt, the metrics and the oracles"


class TestBatchedEe:
    """`batch_ee` after the pinned `sinr` calls equals the scalar EE on the pinned numpy."""

    def test_short_strided_and_offset_arrays_equal_scalar_log2(self):
        # an EGT round can hold one link and a reference-scale ngt batch is 6 x 8;
        # numpy may take other inner loops for short, strided and offset arrays
        rng = np.random.default_rng(20170609)
        pool = np.concatenate([
            [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 1e300],
            10.0 ** rng.uniform(-300.0, 300.0, 3000),
            rng.uniform(0.0, 1e4, 3000),
        ])
        circuit_power = 0.01
        for n in range(1, 65):
            for offset in (0, 1, 3):
                for step in (1, 2, 5):
                    sinrs = pool[offset:offset + n * step:step]
                    powers = rng.choice(DEFAULT_POWER_LEVELS, size=n)
                    assert_bit_contract(
                        f"batch_ee vs the scalar EE on {n} values (offset {offset}, "
                        f"step {step})", [
                            (float(np.log2(1.0 + s)) / (p + circuit_power), got)
                            for s, p, got in zip(sinrs.tolist(), powers.tolist(),
                                                 batch_ee(sinrs, powers, circuit_power).tolist())
                        ], BATCHED_EE)
                    shifted = (1.0 + pool)[offset:offset + n * step:step]
                    assert_bit_contract(
                        f"vector np.log2 vs scalar np.log2 on a strided view of {n} values", [
                            (float(np.log2(x)), got)
                            for x, got in zip(shifted.tolist(), np.log2(shifted).tolist())
                        ], BATCHED_EE)
        # (links, levels) blocks, the levels broadcast over the rows as ngt does
        levels = np.array(DEFAULT_POWER_LEVELS)
        for n_links in range(1, 9):
            block = pool[:n_links * len(levels)].reshape(n_links, len(levels))
            assert_bit_contract(f"batch_ee vs the scalar EE on a {n_links} x {len(levels)} block", [
                (float(np.log2(1.0 + s)) / (p + circuit_power), got)
                for row, got_row in zip(block.tolist(),
                                        batch_ee(block, levels, circuit_power).tolist())
                for s, p, got in zip(row, levels.tolist(), got_row)
            ], BATCHED_EE)


def channel_rows(rng, n_rows, n_antennas):
    """Rayleigh rows g = sqrt(beta) h with path-loss gains from 1e-16 to 1."""
    h = rng.standard_normal((n_rows, n_antennas)) + 1j * rng.standard_normal((n_rows, n_antennas))
    return h * np.sqrt(10.0 ** rng.uniform(-16.0, 0.0, size=(n_rows, 1)))


def assert_sampled_table_equals_reference(config, seed):
    ctx = sample_link_context(config, np.random.default_rng(seed))
    ref = reference.sample_drop(config, np.random.default_rng(seed))
    assert table_rows(ctx.gains) == padded(ctx.topology, ref.gains)


@pytest.mark.bitexact
class TestStackedGainTable:
    """The per-receiver stacked gain table and the numpy rounding it rests on."""

    @pytest.mark.parametrize("n_antennas", [4, 16, 128])
    def test_vecdot_rows_equal_vdot(self, n_antennas):
        rng = np.random.default_rng(20170602 + n_antennas)
        g = channel_rows(rng, 2000, n_antennas)
        a = g[::-1] / np.linalg.norm(g[::-1], axis=1, keepdims=True)
        for x, y in ((a, g), (a, a), (g, g)):
            assert_bit_contract(f"np.vecdot at {n_antennas} antennas vs np.vdot per row", [
                (complex(np.vdot(u, v)), got) for u, v, got in zip(x, y, np.vecdot(x, y).tolist())
            ])

    @pytest.mark.parametrize("n_antennas", [1, 4, 16, 128])
    def test_vecdot_norm_equals_linalg_norm(self, n_antennas):
        g = channel_rows(np.random.default_rng(20170603 + n_antennas), 2000, n_antennas)
        norm = np.sqrt(np.vecdot(g.real, g.real) + np.vecdot(g.imag, g.imag))
        assert_bit_contract(f"the vecdot norm at {n_antennas} antennas vs np.linalg.norm", [
            (float(np.linalg.norm(row)), got) for row, got in zip(g, norm.tolist())
        ])

    def test_vector_abs_and_python_square_equal_the_scalar_kernel(self):
        rng = np.random.default_rng(20170604)
        a = channel_rows(rng, 3000, 128)
        z = np.concatenate([
            np.vecdot(a / np.linalg.norm(a, axis=1, keepdims=True), channel_rows(rng, 3000, 128)),
            (rng.standard_normal(100_000) + 1j * rng.standard_normal(100_000))
            * 10.0 ** rng.uniform(-150.0, 150.0, 100_000),
            [0j, 5e-324 + 0j, 1e-160j, 3.0 + 4.0j, 1e154 + 1e154j],
        ])
        magnitudes = np.abs(z)
        assert_bit_contract("vector np.abs vs scalar np.abs", [
            (float(np.abs(x)), got) for x, got in zip(z, magnitudes.tolist())
        ])
        # above 1.34e154 a Python float power raises OverflowError instead
        assert_bit_contract("a Python float ** 2 vs a numpy-scalar ** 2", [
            (float(x ** 2), x.item() ** 2) for x in magnitudes if x < 1e154
        ])

    @pytest.mark.parametrize("n_antennas", [1, 4, 128])
    def test_stacked_combiner_equals_row_calls(self, n_antennas):
        g = channel_rows(np.random.default_rng(20170605 + n_antennas), 200, n_antennas)
        stacked = mrc_combiner(g)
        assert stacked.shape == g.shape
        for row, got in zip(g, stacked):
            assert got.tobytes() == mrc_combiner(row).tobytes()
            assert got.tobytes() == (row / np.linalg.norm(row)).tobytes()

    def test_stack_with_a_zero_row_raises(self):
        g = channel_rows(np.random.default_rng(20170606), 5, 4)
        g[3] = 0.0
        with pytest.raises(ValueError, match="all-zero channel"):
            mrc_combiner(g)

    @pytest.mark.parametrize("leak_scale", [1.0, 1e160])   # 1e160: |a^H g|^2 overflows
    def test_hand_built_two_player_table_equals_reference(self, leak_scale):
        # two cells sharing subcarrier 0; the macro cell alone on subcarrier 2
        topology = Topology(bs_positions=np.array([[0.0, 0.0], [500.0, 0.0]]),
                            users={(0, 0): (100.0, 0.0), (0, 2): (0.0, 80.0),
                                   (1, 0): (520.0, 0.0)})
        rng = np.random.default_rng(20170607)
        links = topology.links()
        channels = ChannelRealization(links=links, blocks=[
            np.concatenate([channel_rows(rng, 1, 3 if rx == 0 else 2) for _ in links])
            for rx in (0, 1)
        ])
        # the row of the g view is a view of the block, so this reaches the table
        channels.g[(0, 1, 0)] *= leak_scale
        noise_power = reference.noise_power(
            NetworkConfig(n_small_cells=1, n_subcarriers=3, n_users_per_cell=2))
        with np.errstate(over="ignore"):
            gains = build_combiners(topology, channels, noise_power)
            expected = reference.gain_table(topology.users, channels.g, noise_power)
        assert table_rows(gains) == padded(topology, expected)
        # one slot: the pair's links name each other, the lone link pads with itself
        assert gains.idx.tolist() == [[topology.position((1, 0))], [topology.position((0, 0))],
                                      [topology.position((0, 2))]]
        leak = gains.gain[topology.position((0, 0)), 0]
        assert math.isinf(leak) == (leak_scale > 1.0)
        assert gains.gain[topology.position((0, 2)), 0] == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_table_from_sampled_blocks_equals_reference(self, seed):
        assert_sampled_table_equals_reference(
            NetworkConfig(n_small_cells=3, n_subcarriers=6, n_users_per_cell=4), seed)

    @pytest.mark.parametrize("seed", range(2))
    def test_table_gathered_in_several_runs_equals_reference(self, seed):
        # about 50 rows leak into the 128-antenna macro receiver, 32 rows per gather
        assert_sampled_table_equals_reference(
            NetworkConfig(n_small_cells=3, n_subcarriers=24, n_users_per_cell=20), seed)

# Reference call sequences: the order in which the dict-keyed evaluators
# called `sinr`, each call as (position of the link, its power, the
# reference's interference sum for the profile it was evaluated in).  The
# oracles walked the lexicographic profiles on one updated dict, ngt stepped
# each cell's links through the levels in the profile itself and moved them
# after the cell's batch, an EGT round read one dict over the active games,
# and the metrics read the whole profile link by link.

def call(context, ref, profile, link):
    return (context.topology.position(link), profile[link],
            reference.interference(ref, profile, link))


def reference_oracle_calls(context, ref, links):
    profile = {}
    calls = []
    for combo in itertools.product(context.config.power_levels, repeat=len(links)):
        profile.update(zip(links, combo))
        calls.extend(call(context, ref, profile, link) for link in links)
    return calls


def reference_ngt_calls(context, ref, rng, max_rounds=64):
    levels = context.config.power_levels
    links = sorted(context.topology.links(), key=lambda ks: (ks[0], ks[1]))
    profile = {link: levels[int(rng.integers(len(levels)))] for link in links}
    calls = []
    for _ in range(max_rounds):
        changed = False
        for _, batch in itertools.groupby(links, key=lambda ks: ks[0]):
            batch = list(batch)
            held = [profile[link] for link in batch]
            picks = []
            for link in batch:
                values = []
                # the link stays at the last level until the batch has moved
                for p in levels:
                    profile[link] = p
                    calls.append(call(context, ref, profile, link))
                    values.append(reference.user_ee(ref, profile, link))
                picks.append(reference.first_max(values)[0] or 0)
            for link, p, best in zip(batch, held, picks):
                profile[link] = levels[best]
                changed |= levels[best] != p
        if not changed:
            break
    return calls


def reference_egt_round_calls(context, ref, games):
    levels = context.config.power_levels
    profile = {(cell, game.subcarrier): levels[level]
               for game in games for cell, level in game.strategy.items()}
    return [call(context, ref, profile, link) for link in profile]


@pytest.fixture
def sinr_calls(monkeypatch):
    """Every `linklevel.sinr` call as (link position, power, interference)."""
    calls = []
    original = linklevel.sinr

    def recording(context, i, power, interference):
        calls.append((i, power, interference))
        return original(context, i, power, interference)

    monkeypatch.setattr(linklevel, "sinr", recording)
    return calls


def exact(calls):
    """Calls with each float as its hex string, so that 0.0 is not -0.0."""
    return [(i, float.hex(p), float.hex(a)) for i, p, a in calls]


SEQUENCE_CONFIGS = [
    pytest.param(dict(n_small_cells=2, n_subcarriers=6, n_users_per_cell=6), id="reference"),
    pytest.param(dict(n_small_cells=4, n_subcarriers=8, n_users_per_cell=5,
                      power_levels=DEFAULT_POWER_LEVELS[:5]), id="five-cells"),
    pytest.param(dict(n_small_cells=1, n_subcarriers=3, n_users_per_cell=2,
                      power_levels=DEFAULT_POWER_LEVELS[:1]), id="one-level"),
]


def drop_pair(config, seed):
    """The package's drop and the reference's walk of the same drop."""
    return (sample_link_context(config, np.random.default_rng(seed)),
            reference.sample_drop(config, np.random.default_rng(seed)))


@pytest.mark.bitexact
class TestSinrCallSequence:
    """Every `sinr` call, its link, power and interference, as the dict-keyed
    order made them, and their count: the one the benchmark reports."""

    @pytest.mark.parametrize("chunk", [1, 3, 7, 4096])
    @pytest.mark.parametrize("n_levels", [1, 5, 8])
    @pytest.mark.parametrize("group_size", [1, 2, 3, 4])
    def test_oracles(self, monkeypatch, sinr_calls, chunk, n_levels, group_size):
        # one co-channel group of `group_size` links, then one drop with several groups
        monkeypatch.setattr(baselines, "_CHUNK_PROFILES", chunk)
        levels = DEFAULT_POWER_LEVELS[:n_levels]
        for config in (
            NetworkConfig(n_small_cells=group_size - 1, n_subcarriers=1, n_users_per_cell=1,
                          power_levels=levels),
            NetworkConfig(n_small_cells=group_size - 1, n_subcarriers=3, n_users_per_cell=2,
                          power_levels=levels),
        ):
            ctx, ref = drop_pair(config, group_size)
            for sc in ctx.topology.occupied_subcarriers():
                links = [(cell, sc) for cell in ctx.topology.cells_on(sc)]
                sinr_calls.clear()
                result = brute_force_group(sc, ctx)
                assert exact(sinr_calls) == exact(reference_oracle_calls(ctx, ref, links))
                assert len(sinr_calls) == len(links) * result.evaluations
            links = ctx.topology.links()
            if n_levels ** len(links) <= _ORACLE_CAP:
                sinr_calls.clear()
                result = brute_force_global(ctx)
                assert exact(sinr_calls) == exact(reference_oracle_calls(ctx, ref, links))
                assert len(sinr_calls) == len(links) * result.evaluations

    @pytest.mark.parametrize("config", SEQUENCE_CONFIGS)
    def test_ngt(self, sinr_calls, config):
        ctx, ref = drop_pair(NetworkConfig(**config), 8)
        result = ngt_best_response(ctx, np.random.default_rng(9))
        assert exact(sinr_calls) == exact(reference_ngt_calls(ctx, ref, np.random.default_rng(9)))
        assert len(sinr_calls) == result.evaluations

    @pytest.mark.parametrize("config", SEQUENCE_CONFIGS)
    def test_egt_rounds(self, sinr_calls, config):
        ctx, ref = drop_pair(NetworkConfig(**config), 10)
        rng = np.random.default_rng(11)
        games = new_games(ctx, rng)
        rounds = 0
        while active := [game for game in games if not game.converged]:
            assert rounds <= ctx.config.n_power_levels, "still stepping past L + 1 rounds"
            expected = reference_egt_round_calls(ctx, ref, active)
            sinr_calls.clear()
            stepped = egt_step(active, ctx, rng)
            assert exact(sinr_calls) == exact(expected)
            assert len(sinr_calls) == sum(len(payoffs) for payoffs, _ in stepped)
            rounds += 1
        assert rounds >= 1

    @pytest.mark.parametrize("config", SEQUENCE_CONFIGS)
    def test_metrics(self, sinr_calls, config):
        config = NetworkConfig(**config)
        ctx, ref = drop_pair(config, 12)
        rng = np.random.default_rng(13)
        profile = {link: config.power_levels[int(rng.integers(config.n_power_levels))]
                   for link in ctx.topology.links()}
        compute_link_metrics(ctx, profile)
        assert exact(sinr_calls) == \
            exact([call(ctx, ref, profile, link) for link in ctx.topology.links()])
