"""The evaluation kernel: bit-exact against the numpy-scalar kernel, at a fixed call count.

`sinr` and the EE after it run once per evaluated profile, so they are
kept on plain float arithmetic.  TestKernelPreservation checks them, the
metrics' link, group and network EE, and the oracles and best-response
dynamics built on them, against the numpy-scalar kernel they replaced.  TestBatchedOracle checks the
oracles' chunked numpy objective and first-maximum pick against the scalar
search, and the vector-equals-scalar `np.log2` it rests on.  TestBatchedEe
checks `batch_ee`, which egt, ngt and the metrics take after their `sinr`
calls, on short, strided and offset arrays and (links, levels) blocks, the
row-wise first-maximum pick of ngt, and that each ngt batch is one cell's
links on distinct subcarriers.
TestStackedGainTable checks the per-receiver stacked gain table, built from
the channel blocks and laid out by link position with position-keyed
interferers, against the link-by-link one, and the numpy rounding facts it
rests on.
TestSinrCallCount pins how many `sinr` calls each algorithm makes, the count
the benchmark reports, and TestSinrCallSequence pins each call's link and the
powers it sees against the dict-keyed evaluators' order.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twotier_ee import baselines, linklevel
from twotier_ee.baselines import brute_force_global, brute_force_group, ngt_best_response
from twotier_ee.config import DEFAULT_POWER_LEVELS, NetworkConfig
from twotier_ee.egt import egt_step, new_games, run_algorithm1
from twotier_ee.linklevel import (
    batch_ee, build_combiners, compute_link_metrics, mrc_combiner, sample_link_context, sinr,
)
from twotier_ee.topology import ChannelRealization, Topology

# oracle runs in the property test are capped so that one example stays cheap
_ORACLE_CAP = 4096


# Reference kernel: numpy-scalar gain table, the noise power recomputed on
# every call, rate / power_sum round trips and an oracle building one dict
# per profile.  Kept here so the float kernel is checked against it value for
# value.

def reference_gains(topology, channels):
    gains = {}
    for cell, sc in topology.links():
        block = channels.blocks[cell]   # every user's channel to this cell's BS
        g_own = block[topology.position((cell, sc))]
        a = mrc_combiner(g_own)
        interference = tuple(
            (other, np.abs(np.vdot(a, block[topology.position((other, sc))])) ** 2)
            for other in topology.cells_on(sc) if other != cell
        )
        gains[(cell, sc)] = (np.abs(np.vdot(a, g_own)) ** 2, interference,
                             float(np.vdot(a, a).real))
    return gains


def position_keyed(topology, reference, noise_power):
    """`reference_gains` in the package's layout: a list in `links()` order
    of Python floats, each interferer keyed by its link position, and the
    noise term ||a||^2 * noise_power in place of ||a||^2."""
    table = []
    for cell, sc in topology.links():
        own, interferers, a_norm2 = reference[(cell, sc)]
        table.append((float(own),
                      tuple((topology.position((other, sc)), float(gain))
                            for other, gain in interferers),
                      a_norm2 * noise_power))
    return table


def power_list(context, profile):
    """`profile` by link position, the layout `sinr` reads."""
    return [profile[link] for link in context.topology.links()]


def reference_noise_power(config):
    psd_w = 10.0 ** ((config.noise_psd_dbm_per_hz - 30.0) / 10.0)
    return psd_w * config.subcarrier_bandwidth_hz


def reference_sinr(context, profile, cell, subcarrier):
    own, interferers, a_norm2 = context.gains[(cell, subcarrier)]
    signal = profile[(cell, subcarrier)] * own
    interference = 0.0
    for other, gain in interferers:
        interference += profile[(other, subcarrier)] * gain
    noise = a_norm2 * reference_noise_power(context.config)
    return float(signal / (interference + noise))


def reference_rate(sinr_value):
    return float(np.log2(1.0 + sinr_value))


def reference_user_ee(context, profile, cell, subcarrier):
    r = reference_rate(reference_sinr(context, profile, cell, subcarrier))
    return r / (profile[(cell, subcarrier)] + context.config.circuit_power)


def reference_group_ee(context, profile, subcarrier):
    total = 0.0
    for cell in context.topology.cells_on(subcarrier):
        total += reference_user_ee(context, profile, cell, subcarrier)
    return total


def reference_network_ee(context, profile):
    total = 0.0
    for sc in context.topology.occupied_subcarriers():
        total += reference_group_ee(context, profile, sc)
    return total


def reference_exhaustive(links, levels, objective):
    best_objective = -math.inf
    best_profile = None
    count = 0
    for combo in itertools.product(range(len(levels)), repeat=len(links)):
        profile = {link: levels[a] for link, a in zip(links, combo)}
        value = objective(profile)
        count += 1
        if value > best_objective:
            best_objective = value
            best_profile = profile
    return best_profile, best_objective, count


def reference_group_oracle(context, subcarrier):
    links = [(cell, subcarrier) for cell in context.topology.cells_on(subcarrier)]
    return reference_exhaustive(links, context.config.power_levels,
                                lambda p: reference_group_ee(context, p, subcarrier))


def reference_global_oracle(context):
    return reference_exhaustive(context.topology.links(), context.config.power_levels,
                                lambda p: reference_network_ee(context, p))


def reference_ngt(context, rng, max_rounds=64):
    levels = context.config.power_levels
    links = sorted(context.topology.links(), key=lambda ks: (ks[0], ks[1]))
    profile = {link: levels[int(rng.integers(len(levels)))] for link in links}
    rounds = evaluations = 0
    converged = False
    for _ in range(max_rounds):
        changed = False
        for link in links:
            best_idx, best_ee = 0, -math.inf
            saved = profile[link]
            for a, p in enumerate(levels):
                profile[link] = p
                value = reference_user_ee(context, profile, *link)
                if value > best_ee:
                    best_ee, best_idx = value, a
            profile[link] = saved
            evaluations += len(levels)
            if levels[best_idx] != profile[link]:
                profile[link] = levels[best_idx]
                changed = True
        if changed:
            rounds += 1
        else:
            converged = True
            break
    return profile, rounds, converged, evaluations


def assert_oracle_matches(result, reference):
    profile, objective, count = reference
    assert list(result.profile.items()) == list(profile.items())
    assert result.objective == objective
    assert result.evaluations == count


def kernel_case(config, seed):
    """A drop, the same drop on the reference gain table, and a random level profile."""
    ctx = sample_link_context(config, np.random.default_rng(seed))
    ref = dataclasses.replace(ctx, gains=reference_gains(ctx.topology, ctx.channels))
    levels = config.power_levels
    rng = np.random.default_rng(seed + 1)
    profile = {link: levels[int(rng.integers(len(levels)))] for link in ctx.topology.links()}
    return ctx, ref, profile


def assert_kernel_matches_reference(config, seed):
    ctx, ref, profile = kernel_case(config, seed)
    levels = config.power_levels

    # every link at every level of its own power, the others held fixed
    for i, link in enumerate(ctx.topology.links()):
        trial = dict(profile)
        for p in levels:
            trial[link] = p
            assert sinr(ctx, power_list(ctx, trial), i) == reference_sinr(ref, trial, *link)
            assert compute_link_metrics(ctx, trial).ee[link] == \
                reference_user_ee(ref, trial, *link)
    metrics = compute_link_metrics(ctx, profile)
    for link in ctx.topology.links():
        assert metrics.ee[link] == reference_user_ee(ref, profile, *link)
    assert metrics.network_ee == reference_network_ee(ref, profile)

    for sc in ctx.topology.occupied_subcarriers():
        if len(levels) ** len(ctx.topology.cells_on(sc)) <= _ORACLE_CAP:
            assert_oracle_matches(brute_force_group(sc, ctx), reference_group_oracle(ref, sc))
    if len(levels) ** len(ctx.topology.links()) <= _ORACLE_CAP:
        assert_oracle_matches(brute_force_global(ctx), reference_global_oracle(ref))

    rng, ref_rng = np.random.default_rng(seed + 2), np.random.default_rng(seed + 2)
    ngt = ngt_best_response(ctx, rng)
    ref_profile, *ref_counts = reference_ngt(ref, ref_rng)
    assert list(ngt.profile.items()) == list(ref_profile.items())
    assert [ngt.rounds, ngt.converged, ngt.evaluations] == ref_counts
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


def assert_group_ee_matches_reference(config, seed):
    """The metrics' group EE: the reference's, and each group oracle's objective."""
    ctx, ref, profile = kernel_case(config, seed)
    levels = config.power_levels
    group_ee = compute_link_metrics(ctx, profile).group_ee
    assert list(group_ee) == ctx.topology.occupied_subcarriers()
    for sc in ctx.topology.occupied_subcarriers():
        assert group_ee[sc] == reference_group_ee(ref, profile, sc)
        if len(levels) ** len(ctx.topology.cells_on(sc)) <= _ORACLE_CAP:
            # on the oracle's own profile, its objective is the metrics' group EE
            oracle = brute_force_group(sc, ctx)
            assert oracle.objective == \
                compute_link_metrics(ctx, {**profile, **oracle.profile}).group_ee[sc]


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

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(config=small_configs(), seed=st.integers(0, 2**32))
    def test_group_ee_matches_reference_and_oracle_objective(self, config, seed):
        assert_group_ee_matches_reference(config, seed)

    @pytest.mark.parametrize("seed", range(5))
    def test_group_ee_matches_reference_and_oracle_objective_at_reference_scale(self, seed):
        config = NetworkConfig(n_small_cells=2, n_subcarriers=6, n_users_per_cell=6)
        assert_group_ee_matches_reference(config, seed)

    def test_gain_table_holds_python_floats(self):
        ctx = sample_link_context(NetworkConfig(n_small_cells=2, n_subcarriers=4,
                                                n_users_per_cell=4),
                                  np.random.default_rng(0))
        for own, interferers, noise in ctx.gains:
            assert all(type(j) is int for j, _ in interferers)
            assert type(own) is float and type(noise) is float
            assert all(type(gain) is float for _, gain in interferers)


def scalar_first_max(values):
    """The oracles' original pick: a strict `>` scan from -inf."""
    best_index, best_value = None, -math.inf
    for i, value in enumerate(values):
        if value > best_value:
            best_index, best_value = i, value
    return best_index, best_value


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
        ref = dataclasses.replace(ctx, gains=reference_gains(ctx.topology, ctx.channels))
        monkeypatch.setattr(baselines, "_CHUNK_PROFILES", chunk)
        for sc in ctx.topology.occupied_subcarriers():
            assert_oracle_matches(brute_force_group(sc, ctx), reference_group_oracle(ref, sc))
        assert_oracle_matches(brute_force_global(ctx), reference_global_oracle(ref))

    def test_global_oracle_across_default_chunks(self):
        # 13 links in two co-channel groups: 2^13 = 8192 profiles, two default chunks
        config = NetworkConfig(n_small_cells=12, n_subcarriers=2, n_users_per_cell=1,
                               power_levels=(0.01, 0.1))
        ctx = sample_link_context(config, np.random.default_rng(0))
        assert len(ctx.topology.links()) == 13
        assert len(ctx.topology.occupied_subcarriers()) == 2
        assert 2 ** 13 > baselines._CHUNK_PROFILES
        ref = dataclasses.replace(ctx, gains=reference_gains(ctx.topology, ctx.channels))
        assert_oracle_matches(brute_force_global(ctx), reference_global_oracle(ref))

    @pytest.mark.parametrize("values", FIRST_MAX_CASES)
    @pytest.mark.parametrize("size", [1, 2, 3, 7, 64])
    def test_first_max_equals_strict_scan(self, values, size):
        index, value = baselines._first_max(split(values, size))
        expected_index, expected_value = scalar_first_max(values)
        assert index == expected_index
        assert value == expected_value
        assert type(value) is float

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
    """`batch_ee` after the pinned `sinr` calls, and the ngt pick over its blocks."""

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

    @pytest.mark.parametrize("values", FIRST_MAX_CASES)
    def test_row_first_max_equals_strict_scan(self, values):
        # every rotation of the case is one row of a (links, levels) block
        block = np.array([values[k:] + values[:k] for k in range(len(values))])
        expected = []
        for row in block.tolist():
            index, _ = scalar_first_max(row)
            # ngt's scan starts at level 0, so a row with nothing above -inf picks 0
            expected.append(0 if index is None else index)
        assert baselines._first_max_rows(block).tolist() == expected

    @pytest.mark.parametrize("config", [
        NetworkConfig(n_small_cells=2, n_subcarriers=6, n_users_per_cell=6),
        NetworkConfig(n_small_cells=4, n_subcarriers=8, n_users_per_cell=5,
                      power_levels=DEFAULT_POWER_LEVELS[:5]),
    ])
    def test_ngt_batches_one_cell_on_distinct_subcarriers(self, monkeypatch, config):
        ctx = sample_link_context(config, np.random.default_rng(8))
        pending, batches = [], []
        sinr_before, batch_ee_before = linklevel.sinr, baselines.batch_ee

        def recording_sinr(context, powers, i):
            pending.append(context.topology.links()[i])
            return sinr_before(context, powers, i)

        def recording_batch_ee(sinrs, powers, circuit_power):
            batches.append(list(pending))
            pending.clear()
            return batch_ee_before(sinrs, powers, circuit_power)

        monkeypatch.setattr(linklevel, "sinr", recording_sinr)
        monkeypatch.setattr(baselines, "batch_ee", recording_batch_ee)
        result = ngt_best_response(ctx, np.random.default_rng(9))
        n_levels = config.n_power_levels
        assert not pending
        assert sum(map(len, batches)) == result.evaluations
        cells = sorted({cell for cell, _ in ctx.topology.links()})
        assert len(batches) == len(cells) * (result.rounds + result.converged)
        for i, calls in enumerate(batches):
            links = calls[::n_levels]
            # links ascending, each at every level in turn
            assert calls == [link for link in links for _ in range(n_levels)]
            assert links == sorted(link for link in ctx.topology.links()
                                   if link[0] == cells[i % len(cells)])
            assert len({sc for _, sc in links}) == len(links)


def channel_rows(rng, n_rows, n_antennas):
    """Rayleigh rows g = sqrt(beta) h with path-loss gains from 1e-16 to 1."""
    h = rng.standard_normal((n_rows, n_antennas)) + 1j * rng.standard_normal((n_rows, n_antennas))
    return h * np.sqrt(10.0 ** rng.uniform(-16.0, 0.0, size=(n_rows, 1)))


def assert_sampled_table_equals_reference(config, seed):
    ctx = sample_link_context(config, np.random.default_rng(seed))
    expected = reference_gains(ctx.topology, ctx.channels)
    assert ctx.gains == position_keyed(ctx.topology, expected, reference_noise_power(config))


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
        noise_power = reference_noise_power(
            NetworkConfig(n_small_cells=1, n_subcarriers=3, n_users_per_cell=2))
        with np.errstate(over="ignore"):
            gains = build_combiners(topology, channels, noise_power)
            expected = reference_gains(topology, channels)
        assert gains == position_keyed(topology, expected, noise_power)
        [(other, leak)] = gains[topology.position((0, 0))][1]
        assert other == topology.position((1, 0)) and math.isinf(leak) == (leak_scale > 1.0)
        assert gains[topology.position((0, 2))][1] == ()

    @pytest.mark.parametrize("seed", range(3))
    def test_table_from_sampled_blocks_equals_reference(self, seed):
        assert_sampled_table_equals_reference(
            NetworkConfig(n_small_cells=3, n_subcarriers=6, n_users_per_cell=4), seed)

    @pytest.mark.parametrize("seed", range(2))
    def test_table_gathered_in_several_runs_equals_reference(self, seed):
        # about 50 rows leak into the 128-antenna macro receiver, 32 rows per gather
        assert_sampled_table_equals_reference(
            NetworkConfig(n_small_cells=3, n_subcarriers=24, n_users_per_cell=20), seed)


class TestSinrCallCount:
    """One `sinr` call per link per evaluation: the count the benchmark pins."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counter = [0]
        original = linklevel.sinr

        def counted(*args):
            counter[0] += 1
            return original(*args)

        monkeypatch.setattr(linklevel, "sinr", counted)
        return counter

    @pytest.fixture
    def ctx(self):
        config = NetworkConfig(n_small_cells=2, n_subcarriers=3, n_users_per_cell=3,
                               power_levels=DEFAULT_POWER_LEVELS[:4])
        return sample_link_context(config, np.random.default_rng(3))

    def test_egt_calls_equal_evaluations(self, ctx, calls):
        rng = np.random.default_rng(4)
        games = new_games(ctx, rng)
        assert calls[0] == 0
        result = run_algorithm1(games, ctx, rng)
        assert result.evaluations > 0
        assert calls[0] == result.evaluations

    def test_ngt_calls_equal_evaluations(self, ctx, calls):
        result = ngt_best_response(ctx, np.random.default_rng(5))
        assert result.evaluations > 0
        assert calls[0] == result.evaluations

    def test_group_oracle_calls_are_m_times_l_to_the_m(self, ctx, calls):
        n_levels = ctx.config.n_power_levels
        for sc in ctx.topology.occupied_subcarriers():
            m = len(ctx.topology.cells_on(sc))
            before = calls[0]
            result = brute_force_group(sc, ctx)
            assert result.evaluations == n_levels ** m
            assert calls[0] - before == m * n_levels ** m

    def test_global_oracle_calls_are_links_times_l_to_the_links(self, calls):
        config = NetworkConfig(n_small_cells=1, n_subcarriers=3, n_users_per_cell=2,
                               power_levels=(0.01, 0.1))
        ctx = sample_link_context(config, np.random.default_rng(6))
        n_links = len(ctx.topology.links())
        result = brute_force_global(ctx)
        assert result.evaluations == 2 ** n_links
        assert calls[0] == n_links * 2 ** n_links

    def test_metrics_call_once_per_link(self, ctx, calls):
        compute_link_metrics(ctx, {link: 0.01 for link in ctx.topology.links()})
        assert calls[0] == len(ctx.topology.links())


# Reference call sequences: the order in which the dict-keyed evaluators
# called `sinr`, each call as (position of the link, every power by link
# position, None where the profile held none).  The oracles walked the
# lexicographic profiles on one updated dict, ngt stepped each cell's links
# through the levels in the profile itself and moved them after the cell's
# batch, an EGT round read one dict over the active games, and the metrics
# read the whole profile link by link.

def snapshot(context, profile, link):
    return (context.topology.position(link),
            tuple(profile.get(other) for other in context.topology.links()))


def reference_oracle_calls(context, links):
    profile = {}
    calls = []
    for combo in itertools.product(context.config.power_levels, repeat=len(links)):
        profile.update(zip(links, combo))
        calls.extend(snapshot(context, profile, link) for link in links)
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
                best_idx, best_ee = 0, -math.inf
                # the link stays at the last level until the batch has moved
                for a, p in enumerate(levels):
                    profile[link] = p
                    calls.append(snapshot(context, profile, link))
                    value = reference_user_ee(ref, profile, *link)
                    if value > best_ee:
                        best_ee, best_idx = value, a
                picks.append(best_idx)
            for link, p, best in zip(batch, held, picks):
                profile[link] = levels[best]
                changed |= levels[best] != p
        if not changed:
            break
    return calls


def reference_egt_round_calls(context, games):
    levels = context.config.power_levels
    profile = {(cell, game.subcarrier): levels[game.strategy[cell]]
               for game in games for cell in game.players}
    return [snapshot(context, profile, link) for link in profile]


@pytest.fixture
def sinr_calls(monkeypatch):
    calls = []
    original = linklevel.sinr

    def recording(context, powers, i):
        calls.append((i, tuple(powers)))
        return original(context, powers, i)

    monkeypatch.setattr(linklevel, "sinr", recording)
    return calls


SEQUENCE_CONFIGS = [
    pytest.param(dict(n_small_cells=2, n_subcarriers=6, n_users_per_cell=6), id="reference"),
    pytest.param(dict(n_small_cells=4, n_subcarriers=8, n_users_per_cell=5,
                      power_levels=DEFAULT_POWER_LEVELS[:5]), id="five-cells"),
    pytest.param(dict(n_small_cells=1, n_subcarriers=3, n_users_per_cell=2,
                      power_levels=DEFAULT_POWER_LEVELS[:1]), id="one-level"),
]


@pytest.mark.bitexact
class TestSinrCallSequence:
    """Every `sinr` call, its link and the powers it sees, as the dict-keyed order made them."""

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
            ctx = sample_link_context(config, np.random.default_rng(group_size))
            for sc in ctx.topology.occupied_subcarriers():
                links = [(cell, sc) for cell in ctx.topology.cells_on(sc)]
                sinr_calls.clear()
                brute_force_group(sc, ctx)
                assert sinr_calls == reference_oracle_calls(ctx, links)
            links = ctx.topology.links()
            if n_levels ** len(links) <= _ORACLE_CAP:
                sinr_calls.clear()
                brute_force_global(ctx)
                assert sinr_calls == reference_oracle_calls(ctx, links)

    @pytest.mark.parametrize("config", SEQUENCE_CONFIGS)
    def test_ngt(self, sinr_calls, config):
        ctx = sample_link_context(NetworkConfig(**config), np.random.default_rng(8))
        ref = dataclasses.replace(ctx, gains=reference_gains(ctx.topology, ctx.channels))
        ngt_best_response(ctx, np.random.default_rng(9))
        assert sinr_calls == reference_ngt_calls(ctx, ref, np.random.default_rng(9))

    @pytest.mark.parametrize("config", SEQUENCE_CONFIGS)
    def test_egt_rounds(self, sinr_calls, config):
        ctx = sample_link_context(NetworkConfig(**config), np.random.default_rng(10))
        rng = np.random.default_rng(11)
        games = new_games(ctx, rng)
        rounds = 0
        while active := [game for game in games if not game.converged]:
            expected = reference_egt_round_calls(ctx, active)
            sinr_calls.clear()
            egt_step(active, ctx, rng)
            assert sinr_calls == expected
            rounds += 1
        assert rounds >= 1

    @pytest.mark.parametrize("config", SEQUENCE_CONFIGS)
    def test_metrics(self, sinr_calls, config):
        config = NetworkConfig(**config)
        ctx = sample_link_context(config, np.random.default_rng(12))
        rng = np.random.default_rng(13)
        profile = {link: config.power_levels[int(rng.integers(config.n_power_levels))]
                   for link in ctx.topology.links()}
        compute_link_metrics(ctx, profile)
        assert sinr_calls == [snapshot(ctx, profile, link) for link in ctx.topology.links()]
