"""Properties of the algorithms and metrics over small random scenarios.

Each test draws a small config (at most 4 cells in a co-channel group and 4
power levels, so the exhaustive searches stay at desk scale) and a drop
seed from derandomized Hypothesis, so every run checks the same examples.
Two more properties run whole drops: a config at the edge of the float
range is refused, or each of its drops gives a finite row with an exact
Jain index or an error that names the quantity at fault, with no numpy
warning, and every row parses back; and scaling every power and the
bandwidth by 2^k divides every EE by exactly 2^k and changes nothing else.
The last scales the antenna constant and the bandwidth by 4 and follows
the factor through each layer of one drop's sampling and gain table.
"""

import dataclasses
import math
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from twotier_ee.baselines import brute_force_group, ngt_best_response
from twotier_ee.config import ConfigError, DEFAULT_POWER_LEVELS, NetworkConfig, load_config
from twotier_ee.egt import new_games, run_algorithm1
from twotier_ee.harness import ExperimentSpec, emit_results, parse_results, run_drops
from twotier_ee.linklevel import (build_combiners, compute_link_metrics, mrc_combiner,
                                  ordered_sum, sample_link_context)
from twotier_ee.topology import sample_channels, sample_large_scale_fading, sample_topology

SETTINGS = settings(derandomize=True, max_examples=100, deadline=None)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@st.composite
def small_configs(draw):
    n_subcarriers = draw(st.integers(1, 3))
    return NetworkConfig(
        n_small_cells=draw(st.integers(0, 3)),
        n_subcarriers=n_subcarriers,
        n_users_per_cell=draw(st.integers(1, n_subcarriers)),
        n_antennas_mbs=draw(st.sampled_from([4, 16, 128])),
        noise_psd_dbm_per_hz=draw(st.floats(-204.0, -154.0)),
        power_levels=DEFAULT_POWER_LEVELS[::2][:draw(st.integers(2, 4))],
    )


def drop(config, seed):
    return sample_link_context(config, np.random.default_rng(seed))


@SETTINGS
@given(config=small_configs(), seed=st.integers(0, 2**32))
def test_converged_ngt_profile_is_a_nash_equilibrium(config, seed):
    ctx = drop(config, seed)
    res = ngt_best_response(ctx, np.random.default_rng(seed))
    assume(res.converged)
    held = compute_link_metrics(ctx, res.profile).ee
    for link in ctx.topology.links():
        for p in config.power_levels:
            moved = compute_link_metrics(ctx, {**res.profile, link: p}).ee[link]
            assert moved <= held[link] * (1 + 1e-12), (link, p)


@SETTINGS
@given(config=small_configs(), seed=st.integers(0, 2**32))
def test_group_oracle_dominates_egt_on_every_subcarrier(config, seed):
    ctx = drop(config, seed)
    rng = np.random.default_rng(seed)
    group_ee = compute_link_metrics(ctx, run_algorithm1(new_games(ctx, rng), ctx, rng).profile) \
        .group_ee
    for sc in ctx.topology.occupied_subcarriers():
        # the oracle enumerates EGT's choice on sc and sums it in the same order
        assert group_ee[sc] <= brute_force_group(sc, ctx).objective


@SETTINGS
@given(config=small_configs(), seed=st.integers(0, 2**32))
def test_network_ee_is_the_ordered_sum_of_group_ee(config, seed):
    ctx = drop(config, seed)
    rng = np.random.default_rng(seed)
    levels = config.power_levels
    profile = {link: levels[int(rng.integers(len(levels)))] for link in ctx.topology.links()}
    metrics = compute_link_metrics(ctx, profile)
    assert metrics.network_ee == ordered_sum(metrics.group_ee.values())
    assert math.isclose(sum(metrics.cell_totals(config.n_cells)), metrics.network_ee,
                        rel_tol=1e-12)


@SETTINGS
@given(config=small_configs(), seed=st.integers(0, 2**32))
def test_algorithm_profiles_give_finite_nonnegative_metrics(config, seed):
    ctx = drop(config, seed)
    rng = np.random.default_rng(seed)
    oracle = {}
    for sc in ctx.topology.occupied_subcarriers():
        oracle.update(brute_force_group(sc, ctx).profile)
    for profile in (run_algorithm1(new_games(ctx, rng), ctx, rng).profile,
                    ngt_best_response(ctx, rng).profile, oracle):
        metrics = compute_link_metrics(ctx, profile)
        for value in [*metrics.ee.values(), *metrics.group_ee.values(),
                      *metrics.cell_totals(config.n_cells), metrics.network_ee]:
            assert 0.0 <= value < math.inf


@SETTINGS
@given(config=small_configs(), seed=st.integers(0, 2**32))
def test_egt_converges_within_level_count(config, seed):
    ctx = drop(config, seed)
    rng = np.random.default_rng(seed)
    n_levels = config.n_power_levels
    result = run_algorithm1(new_games(ctx, rng), ctx, rng)
    assert result.converged
    assert result.iterations <= n_levels
    assert all(len(trace) <= n_levels for trace in result.traces.values())


# the float fields a boundary config sets to extreme magnitudes, three at a time
_BOUNDARY_FIELDS = ("macro_radius", "small_radius", "path_loss_exponent", "shadowing_std_db",
                    "antenna_constant", "subcarrier_bandwidth_hz", "circuit_power")
# what a failed drop's error must name: a config field, a metric, or the channel
# or placement at fault, never a bare Python or numpy exception text
_QUANTITY = re.compile("|".join([*(f.name for f in dataclasses.fields(NetworkConfig)),
                                 "network_ee", "cell_ee", "jain", "channel", "small cells",
                                 "group EE", "network EE"]))


def _exact_jain(values):
    """(sum v)^2 / (n * sum v^2) in exact rational arithmetic."""
    exact = [Fraction(v) for v in values]
    return float(sum(exact) ** 2 / (len(exact) * sum(v * v for v in exact)))


@st.composite
def boundary_configs(draw):
    """Keyword arguments of a K <= 3, N = 2 config with three float fields, the
    power levels and the noise PSD drawn across the float range; NetworkConfig
    may refuse them."""
    # the default levels times 10^e: the lowest from 5e-324, the highest to 1.7e308
    e = draw(st.floats(-320.3, 309.23))
    kw = dict(n_small_cells=draw(st.integers(0, 3)), n_subcarriers=2,
              n_users_per_cell=draw(st.integers(1, 2)),
              noise_psd_dbm_per_hz=draw(st.floats(-3000.0, 3000.0)),
              power_levels=tuple(10.0 ** (e - 3.0 + 2.0 * k / 7.0) for k in range(8)))
    for name in draw(st.permutations(_BOUNDARY_FIELDS))[:3]:
        # log-uniform magnitudes from 5e-324 (subnormal) to 1.7e308
        kw[name] = 10.0 ** draw(st.floats(-323.3, 308.23))
    return kw


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, max_examples=300, deadline=None)
@given(kw=boundary_configs())
# each cell EE about 2e-161, its square subnormal: the Jain index was inexact
@example(kw=dict(n_small_cells=1, n_subcarriers=2, n_users_per_cell=2,
                 circuit_power=1.333521432163324e162))
# the largest level plus the circuit power overflowed in every EE
@example(kw=dict(n_small_cells=1, n_subcarriers=2, n_users_per_cell=2,
                 power_levels=(1e308,), circuit_power=1e308))
def test_boundary_config_is_refused_or_each_drop_names_its_outcome(kw):
    try:
        config = NetworkConfig(**kw)
    except ConfigError:
        return
    for algorithm in ("egt", "ngt", "brute-group"):
        records = run_drops(ExperimentSpec(config=config, algorithm=algorithm, n_drops=2))
        for r in records:
            if r.error is None:
                assert all(map(math.isfinite, [r.network_ee, *r.cell_ee])), r
                assert 0.0 < r.jain <= 1.0 + 1e-12, r
                assert math.isclose(r.jain, _exact_jain(r.cell_ee), rel_tol=1e-12), r
            else:
                assert _QUANTITY.search(r.error), r.error
        # every record, failed or not, is a row that the results parser reads back
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "results.csv"
            emit_results(records, path)
            assert len(parse_results(path)) == len(records)


def _scaled(config, k):
    """`config` with every power level, circuit_power and the bandwidth times 2^k."""
    return dataclasses.replace(
        config, power_levels=tuple(math.ldexp(p, k) for p in config.power_levels),
        circuit_power=math.ldexp(config.circuit_power, k),
        subcarrier_bandwidth_hz=math.ldexp(config.subcarrier_bandwidth_hz, k))


@pytest.mark.bitexact
@settings(derandomize=True, max_examples=40, deadline=None)
@given(k=st.integers(-8, 8), case=st.sampled_from(
    [(name, algorithm) for name in ("tiny", "two_cell_reference", "sparse_load")
     for algorithm in ("egt", "ngt", "brute-group")] + [("tiny", "brute-global")]))
def test_power_scaling_divides_every_ee_exactly(k, case):
    # the noise power's last factor is the bandwidth, so every SINR is the same
    # float, each EE is divided by exactly 2^k, and no decision changes
    name, algorithm = case
    config = load_config(CONFIGS / f"{name}.cfg")
    spec = ExperimentSpec(config=config, algorithm=algorithm, n_drops=3)
    base = run_drops(spec)
    moved = run_drops(dataclasses.replace(spec, config=_scaled(config, k)))
    for a, b in zip(base, moved, strict=True):
        assert a.error is None and b.error is None
        assert (b.jain, b.iterations, b.evaluations, b.converged) == \
            (a.jain, a.iterations, a.evaluations, a.converged)
        assert b.network_ee == math.ldexp(a.network_ee, -k)
        assert b.cell_ee == [math.ldexp(v, -k) for v in a.cell_ee]
        assert b.traces == {sc: [math.ldexp(v, -k) for v in trace]
                            for sc, trace in a.traces.items()}


def _sampled(config, seed):
    """One drop's topology, large-scale gains and channels, in the drop's draw order."""
    rng = np.random.default_rng(seed)
    topology = sample_topology(config, rng)
    fading = sample_large_scale_fading(topology, config, rng)
    return topology, fading, sample_channels(topology, fading, config, rng)


@pytest.mark.bitexact
@SETTINGS
@given(config=small_configs(), seed=st.integers(0, 2**32))
def test_gain_scaling_scales_each_layer_exactly(config, seed):
    # x4 on the antenna constant is x4 on each large-scale gain, so x2 on each
    # channel, which a unit-norm combiner cancels; x4 on the bandwidth is x4 on
    # the noise power.  A gain |a^H g|^2 is the Python power m ** 2, and glibc's
    # pow is not correctly rounded: (2m) ** 2 is 4 * m ** 2 for most m, not all
    scaled = dataclasses.replace(config, antenna_constant=4 * config.antenna_constant,
                                 subcarrier_bandwidth_hz=4 * config.subcarrier_bandwidth_hz)
    topology, fading, channels = _sampled(config, seed)
    topology4, fading4, channels4 = _sampled(scaled, seed)
    assert topology4.users == topology.users
    assert np.array_equal(fading4, 4 * fading)
    for block, block4 in zip(channels.blocks, channels4.blocks, strict=True):
        assert np.array_equal(block4, 2 * block)
    links = topology.links()
    gains = build_combiners(topology, channels, config.noise_power)
    gains4 = build_combiners(topology4, channels4, scaled.noise_power)
    assert np.array_equal(gains4.idx, gains.idx)
    for i, (cell, sc) in enumerate(links):
        block = channels.blocks[cell]
        a = mrc_combiner(block[i])
        assert mrc_combiner(channels4.blocks[cell][i]).tobytes() == a.tobytes()
        assert gains4.noise[i] == 4 * gains.noise[i]
        # the link's interferer slots; the padding after them stays 0.0
        k = len(topology.cells_on(sc)) - 1
        padding = [0.0] * (gains.gain.shape[1] - k)
        assert gains.gain[i, k:].tolist() == gains4.gain[i, k:].tolist() == padding
        for j, gain, gain4 in [(i, gains.own[i], gains4.own[i]),
                               *zip(gains.idx[i, :k].tolist(), gains.gain[i, :k].tolist(),
                                    gains4.gain[i, :k].tolist())]:
            m = float(np.abs(np.vecdot(a, block[j])))
            if (2 * m) ** 2 == 4 * m ** 2:
                assert gain4 == 4 * gain, (i, j)
