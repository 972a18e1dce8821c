"""Seeded drops, sweeps and the CSV files: the Jain index, spec validation, the
error record of each kind of failed drop, `run_drops` against
`tests/reference.py`, and the results schema.
"""

import csv
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from twotier_ee import harness
from twotier_ee.config import DEFAULT_POWER_LEVELS, NetworkConfig, load_config
from twotier_ee.harness import (
    ALGORITHMS, ExperimentSpec, SweepSpec, child_seed, emit_results, failure_counts,
    emit_sweep, jain_index, parse_results, run_drops, scenario_rng, sweep, trace_path_for,
)
from twotier_ee.linklevel import compute_link_metrics, sample_link_context


def cfg(**kw):
    base = dict(n_small_cells=1, n_subcarriers=2, n_users_per_cell=2,
                power_levels=(0.01, 0.1), rng_seed=42)
    base.update(kw)
    return NetworkConfig(**base)


BASE_HEADER = ("seed,algorithm,K,N,n_users,noise_dbm,network_ee,jain,iterations,"
               "evaluations,converged")
ROW_HEADER = BASE_HEADER + ",cell_ee_0\n"
TWO_CELL_HEADER = BASE_HEADER + ",cell_ee_0,cell_ee_1\n"
UNDERFLOW = "jain index underflows: sum v^2 is below n * the smallest normal float"
OVERFLOW = "jain index overflows: (sum v)^2 or n * sum v^2 is out of float range"


class TestJainIndex:
    def test_reference_values(self):
        assert jain_index([1.0, 1.0, 1.0]) == pytest.approx(1.0, rel=1e-12)
        assert jain_index([1.0, 0.0, 0.0]) == pytest.approx(1 / 3, rel=1e-12)
        assert jain_index([2.0, 4.0]) == pytest.approx(0.9, rel=1e-12)
        # squares of 1e-306, a sum above the underflow bound n * 2.2e-308
        assert jain_index([1e-153] * 3) == pytest.approx(1.0, rel=1e-12)
        assert jain_index([1e-153, 0.0, 0.0]) == pytest.approx(1 / 3, rel=1e-12)

    def test_both_endpoints_are_attained(self):
        # [1/n, 1]: one nonzero value gives 1/n exactly, equal values give 1
        for n in (1, 2, 3, 7):
            assert jain_index([5.0] + [0.0] * (n - 1)) == 1 / n
            assert jain_index([0.25] * n) == 1.0

    def test_scale_invariance(self):
        v = [3.0, 1.0, 7.0, 2.0]
        assert jain_index([10 * x for x in v]) == pytest.approx(jain_index(v), rel=1e-12)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            jain_index([])
        with pytest.raises(ValueError):
            jain_index([1.0, -0.5])
        with pytest.raises(ValueError, match="jain index of an all-zero list is undefined"):
            jain_index([0.0, 0.0])
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                jain_index([bad, 1.0])

    @pytest.mark.parametrize("values", [[1e200, 1e200], [1.3e154, 0.0]],
                             ids=["sum-squared-overflows", "denominator-overflows"])
    def test_overflow_rejected(self, values):
        with pytest.raises(ValueError, match=f"^{re.escape(OVERFLOW)}$"):
            jain_index(values)

    @pytest.mark.parametrize("values", [
        # squares 7.2e-324 each: subnormal, so the ratio read 1.5
        [2.6826752746937915e-162, 2.680160106866974e-162],
        # squares that round to 0.0, yet no value is 0
        [1e-199, 0.0, 3e-200],
        # a normal sum of squares, but below n * the smallest normal float
        [1e-154, 1e-154, 1e-154],
    ], ids=["subnormal-squares", "zero-squares", "below-n-min"])
    def test_underflow_rejected(self, values):
        with pytest.raises(ValueError, match=re.escape(UNDERFLOW)):
            jain_index(values)


class TestSpecValidation:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(config=cfg(), algorithm="greedy")

    def test_counts_must_be_positive(self):
        with pytest.raises(ValueError):
            ExperimentSpec(config=cfg(), n_drops=0)

    @pytest.mark.parametrize("value", [2.5, math.nan, True, "3"])
    @pytest.mark.parametrize("name", ["n_drops"])
    def test_counts_must_be_integers(self, name, value):
        message = f"{name} must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentSpec(config=cfg(), **{name: value})

    def test_numpy_integer_counts_accepted(self):
        spec = ExperimentSpec(config=cfg(), n_drops=np.int64(2))
        assert type(spec.n_drops) is int
        assert [r.error for r in run_drops(spec)] == [None, None]

    def test_count_beyond_float_range_rejected(self):
        with pytest.raises(ValueError, match=re.escape(f"n_drops must be finite, got {10**400}")):
            ExperimentSpec(config=cfg(), n_drops=10 ** 400)

    def test_sweep_parameter_whitelisted(self):
        with pytest.raises(ValueError):
            SweepSpec(parameter="macro_radius", values=(1.0,))
        with pytest.raises(ValueError):
            SweepSpec(parameter="n_users_per_cell", values=())

    def test_sweep_values_checked_against_config_invariants(self, monkeypatch):
        # a user count above the subcarrier count must fail before any drop runs
        ran = []
        monkeypatch.setattr(harness, "run_drops", lambda spec: ran.append(spec) or [])
        bad = SweepSpec(parameter="n_users_per_cell", values=(1, 5))
        with pytest.raises(ValueError, match="n_users_per_cell must be <= n_subcarriers"):
            sweep(ExperimentSpec(config=cfg()), bad)
        assert ran == []

    def test_sweep_count_beyond_float_range_rejected_before_any_drop(self, monkeypatch):
        ran = []
        monkeypatch.setattr(harness, "run_drops", lambda spec: ran.append(spec) or [])
        with pytest.raises(ValueError, match=re.escape(
                f"n_small_cells value {10**400} is not a valid int")):
            sweep(ExperimentSpec(config=cfg()), SweepSpec("n_small_cells", (10 ** 400,)))
        assert ran == []

    def test_spec_holds_no_sweep(self):
        # a sweep is an argument of sweep(), so run_drops cannot be handed one it ignores
        assert [f.name for f in dataclasses.fields(ExperimentSpec)] == \
            ["config", "algorithm", "n_drops"]

    def test_sweep_values_take_their_field_type(self):
        users = SweepSpec("n_users_per_cell", (1.0, "2", np.int64(2)))
        assert users.values == (1, 2, 2) and all(type(v) is int for v in users.values)
        noisy = SweepSpec("noise_psd_dbm_per_hz", (-184, "-174", np.float32(-0.5)))
        assert noisy.values == (-184.0, -174.0, -0.5)
        assert all(type(v) is float for v in noisy.values)
        with pytest.raises(ValueError, match="cannot sweep 'circuit_power'"):
            SweepSpec("circuit_power", (0.02,))

    @pytest.mark.parametrize("value", [1.7, "2.5", True, np.True_, math.nan, math.inf, "nan",
                                       "abc", None])
    def test_int_field_rejects_non_integral_values(self, value):
        with pytest.raises(ValueError, match=re.escape(
                f"n_users_per_cell value {value!r} is not a valid int")):
            SweepSpec("n_users_per_cell", (1, value))

    @pytest.mark.parametrize("value", [None, "abc", (1.0,), True,
                                       pytest.param(np.True_, id="np.True_"),
                                       pytest.param(10 ** 400, id="beyond-float-range")])
    def test_float_field_rejects_non_numbers(self, value):
        with pytest.raises(ValueError, match=re.escape(
                f"noise_psd_dbm_per_hz value {value!r} is not a valid float")):
            SweepSpec("noise_psd_dbm_per_hz", (-174.0, value))

    @pytest.mark.parametrize("value", [math.nan, math.inf, "-inf"])
    def test_non_finite_float_value_reaches_the_config_check(self, value):
        grid = SweepSpec("noise_psd_dbm_per_hz", (value,))
        with pytest.raises(ValueError, match="noise_psd_dbm_per_hz must be finite"):
            sweep(ExperimentSpec(config=cfg()), grid)


class TestRunDrops:
    def test_metadata_columns_reflect_config(self):
        spec = ExperimentSpec(config=cfg(), algorithm="ngt", n_drops=1)
        rec, = run_drops(spec)
        assert rec.drop == 0
        assert rec.seed == child_seed(42, 0)
        assert (rec.n_small_cells, rec.n_subcarriers, rec.n_users) == (1, 2, 2)
        assert rec.noise_dbm == -194.0
        assert len(rec.cell_ee) == 2

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_placement_failure_yields_error_records(self, algorithm):
        # five small cells cannot fit in a 150 m disc at 200 m spacing
        spec = ExperimentSpec(
            config=cfg(n_small_cells=5, n_subcarriers=5, n_users_per_cell=1,
                       macro_radius=150.0),
            algorithm=algorithm, n_drops=3)
        records = run_drops(spec)
        assert len(records) == 3
        for rec in records:
            assert rec.error is not None
            assert rec.algorithm == algorithm
            assert math.isnan(rec.network_ee) and math.isnan(rec.jain)
            assert all(math.isnan(v) for v in rec.cell_ee)
            assert not rec.converged and rec.iterations == 0
            assert rec.evaluations == 0 and rec.traces == {}

    def test_size_guard_failure_yields_error_records(self):
        spec = ExperimentSpec(
            config=cfg(n_small_cells=2, n_subcarriers=4, n_users_per_cell=4,
                       power_levels=(0.001, 0.01, 0.1, 0.5)),
            algorithm="brute-global", n_drops=1)
        rec, = run_drops(spec)
        assert rec.error is not None and "guard" in rec.error

    def test_non_finite_cell_ee_yields_error_record(self, monkeypatch):
        def one_cell_overflows(context, profile):
            metrics = compute_link_metrics(context, profile)
            for link in metrics.ee:
                if link[0] == 1:
                    metrics.ee[link] = math.inf
            return metrics

        monkeypatch.setattr(harness, "compute_link_metrics", one_cell_overflows)
        rec, = run_drops(ExperimentSpec(config=cfg(), algorithm="ngt", n_drops=1))
        assert rec.error == "non-finite cell_ee_1 = inf"
        assert math.isnan(rec.network_ee)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_channel_norm_yields_error_records(self):
        config = cfg(antenna_constant=1e306, path_loss_exponent=0.01, rng_seed=0)
        for algorithm in ALGORITHMS:
            records = run_drops(ExperimentSpec(config=config, algorithm=algorithm, n_drops=3))
            assert [r.error for r in records] == [None] + 2 * [
                "cannot build a combiner: a channel norm overflows to inf"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("overrides, message", [
        # distances overflow to inf, so every gain is 0, the own channel's too
        (dict(n_small_cells=2, macro_radius=1e200, small_radius=1.0, path_loss_exponent=1e-3),
         "cannot build a combiner for an all-zero channel"),
        (dict(n_small_cells=0, macro_radius=1e200, small_radius=1.0, path_loss_exponent=1e-3),
         "cannot build a combiner for an all-zero channel"),
        (dict(antenna_constant=1e308),
         "the large-scale gain antenna_constant * shadowing / d ** path_loss_exponent "
         "overflows: antenna_constant = 1e+308 is too large"),
    ], ids=["spacing-and-distance", "distance", "gain"])
    def test_overflowing_distance_or_gain_yields_error_records(self, overrides, message):
        records = run_drops(ExperimentSpec(config=cfg(**overrides), algorithm="egt", n_drops=3))
        assert [r.error for r in records] == [message] * 3

    @pytest.mark.parametrize("algorithm, message", [
        ("brute-group", "every one of the 16 profiles gives a NaN group EE on subcarrier 0"),
        ("brute-global", "every one of the 256 profiles gives a NaN network EE"),
    ])
    def test_all_nan_objectives_yield_error_records(self, algorithm, message):
        # every SINR is inf / inf: egt and ngt report the NaN network_ee
        config = cfg(n_small_cells=3, antenna_constant=1e30, noise_psd_dbm_per_hz=-3000,
                     power_levels=(1e300, 1.0000000000000002e300))
        records = run_drops(ExperimentSpec(config=config, algorithm=algorithm, n_drops=2))
        assert [r.error for r in records] == [message] * 2

    def test_overflowing_jain_index_yields_error_record(self):
        config = cfg(noise_psd_dbm_per_hz=-3000, circuit_power=1e-300,
                     power_levels=(1e-300, 1e-299))
        rec, = run_drops(ExperimentSpec(config=config, algorithm="egt", n_drops=1))
        assert rec.error == OVERFLOW
        assert math.isnan(rec.jain) and math.isnan(rec.network_ee)

    def test_overflowing_jain_drops_count_as_one_reason(self):
        # each drop's cell EEs differ, and the message names none of them
        config = NetworkConfig(n_small_cells=1, n_subcarriers=2, n_users_per_cell=2,
                               noise_psd_dbm_per_hz=-3000, circuit_power=1e-300,
                               power_levels=(1e-300, 1e-299))
        records = run_drops(ExperimentSpec(config=config, algorithm="egt", n_drops=3))
        assert failure_counts(records) == {OVERFLOW: 3}

    def test_subnormal_cell_ee_squares_yield_error_records(self, tmp_path):
        # at this circuit power each cell EE is about 2e-161 and its square
        # subnormal; drop 8's Jain index read 1.00505050505, which
        # parse_results refused
        config = NetworkConfig(n_small_cells=1, n_subcarriers=2, n_users_per_cell=2,
                               circuit_power=1.333521432163324e162)
        records = run_drops(ExperimentSpec(config=config, algorithm="ngt", n_drops=9))
        assert [r.error for r in records] == [UNDERFLOW] * 9
        emit_results(records, tmp_path / "results.csv")
        assert len(parse_results(tmp_path / "results.csv")) == 9

    @pytest.mark.parametrize("algorithm", ["egt", "ngt"])
    def test_underflowing_cell_ee_is_not_named_all_zero(self, algorithm):
        # every cell EE is about 1e-199, not 0
        config = NetworkConfig(n_small_cells=1, n_subcarriers=2, n_users_per_cell=2,
                               circuit_power=1e200)
        records = run_drops(ExperimentSpec(config=config, algorithm=algorithm, n_drops=3))
        assert [r.error for r in records] == [UNDERFLOW] * 3

    def test_algorithms_share_the_same_drops(self):
        config = cfg()
        seeds = {}
        for algo in ("egt", "ngt", "brute-global"):
            recs = run_drops(ExperimentSpec(config=config, algorithm=algo, n_drops=3))
            seeds[algo] = [r.seed for r in recs]
        assert seeds["egt"] == seeds["ngt"] == seeds["brute-global"]


RECORD_FIELDS = ("seed", "network_ee", "cell_ee", "jain", "iterations", "evaluations",
                 "converged", "traces")


def assert_run_drops_equal_reference(config, algorithm, n_drops):
    records = run_drops(ExperimentSpec(config=config, algorithm=algorithm, n_drops=n_drops))
    for record in records:
        assert record.error is None
        got = {name: getattr(record, name) for name in RECORD_FIELDS}
        # the reference's 64-round cap never binds: EGT needs at most L <= 8 rounds,
        # and ngt stops at 64 passes as the reference does
        expected = reference.run_drop(config, algorithm, record.drop, 64)
        assert got == expected
        assert list(got["traces"]) == list(expected["traces"])


@st.composite
def small_configs(draw):
    n_subcarriers = draw(st.integers(1, 3))
    n_levels = draw(st.integers(1, 4))
    return NetworkConfig(
        n_small_cells=draw(st.integers(0, 3)),
        n_subcarriers=n_subcarriers,
        n_users_per_cell=draw(st.integers(1, n_subcarriers)),
        n_antennas_mbs=draw(st.sampled_from([4, 16, 128])),
        noise_psd_dbm_per_hz=draw(st.floats(-204.0, -154.0)),
        power_levels=DEFAULT_POWER_LEVELS[::2][:n_levels],
        rng_seed=draw(st.integers(0, 2**32)),
    )


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.bitexact
class TestRunDropsEqualReference:
    """`run_drops`, end to end, against the scalar walk of `tests/reference.py`."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(config=small_configs())
    def test_small_configs(self, config):
        algorithms = ["egt", "ngt", "brute-group"]
        n_links = (config.n_small_cells + 1) * config.n_users_per_cell
        if config.n_power_levels ** n_links <= 4096:
            algorithms.append("brute-global")
        for algorithm in algorithms:
            assert_run_drops_equal_reference(config, algorithm, 2)

    @pytest.mark.parametrize("algorithm", ["egt", "ngt", "brute-group"])
    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda path: path.stem)
    def test_shipped_configs(self, path, algorithm):
        assert_run_drops_equal_reference(load_config(path), algorithm, 10)

    def test_tiny_config_global_search(self):
        assert_run_drops_equal_reference(load_config(CONFIGS / "tiny.cfg"), "brute-global", 10)

    @pytest.mark.parametrize("algorithm", ["egt", "ngt"])
    @pytest.mark.parametrize("n_small_cells, n_subcarriers, n_users_per_cell",
                             [(8, 4, 3), (9, 3, 2), (10, 2, 2)])
    def test_eight_or_more_cells(self, algorithm, n_small_cells, n_subcarriers,
                                 n_users_per_cell):
        # long interferer lists, and a Jain index over 9 to 11 cell totals
        config = NetworkConfig(n_small_cells=n_small_cells, n_subcarriers=n_subcarriers,
                               n_users_per_cell=n_users_per_cell)
        assert_run_drops_equal_reference(config, algorithm, 5)


class TestSweep:
    def test_swept_values_share_scenarios(self):
        config = cfg()
        spec = ExperimentSpec(config=config, algorithm="egt", n_drops=2)
        seed = child_seed(config.rng_seed, 0)
        ctx_a = sample_link_context(dataclasses.replace(config, noise_psd_dbm_per_hz=-194.0),
                                    scenario_rng(seed))
        ctx_b = sample_link_context(dataclasses.replace(config, noise_psd_dbm_per_hz=-174.0),
                                    scenario_rng(seed))
        assert list(ctx_a.topology.users.items()) == list(ctx_b.topology.users.items())
        assert np.array_equal(ctx_a.topology.bs_positions, ctx_b.topology.bs_positions)
        rows = sweep(spec, SweepSpec("noise_psd_dbm_per_hz", (-194, -174)))
        assert [r.value for r in rows] == [-194.0, -174.0]
        assert all(r.n_drops == 2 for r in rows)

    def test_single_value_sweep_equals_plain_batch(self):
        config = cfg()
        spec = ExperimentSpec(config=config, algorithm="egt", n_drops=4)
        row, = sweep(spec, SweepSpec("n_users_per_cell", (2,)))
        records = run_drops(ExperimentSpec(config=config, algorithm="egt", n_drops=4))
        assert row.mean_network_ee == pytest.approx(
            np.mean([r.network_ee for r in records]), rel=1e-12)
        assert row.mean_jain == pytest.approx(
            np.mean([r.jain for r in records]), rel=1e-12)

    def test_error_drops_are_excluded_from_aggregates(self):
        spec = ExperimentSpec(
            config=cfg(n_small_cells=5, n_subcarriers=5, n_users_per_cell=1,
                       macro_radius=150.0),
            algorithm="egt", n_drops=2)
        row, = sweep(spec, SweepSpec("n_users_per_cell", (1,)))
        assert math.isnan(row.mean_network_ee)
        assert row.n_drops == 0


class TestEmitAndParse:
    def test_header_layout_exact(self, tmp_path):
        spec = ExperimentSpec(config=cfg(), algorithm="egt", n_drops=1)
        out = tmp_path / "results.csv"
        emit_results(run_drops(spec), out)
        header = out.read_text().splitlines()[0]
        assert header == ("seed,algorithm,K,N,n_users,noise_dbm,network_ee,jain,"
                          "iterations,evaluations,converged,cell_ee_0,cell_ee_1")

    def test_round_trip_preserves_all_columns(self, monkeypatch, tmp_path):
        # each named column holds its field's text, and every field but the
        # traces (in the companion file) and the error text (not a column)
        # parses back as written: a float as its .12g text's value, NaN as
        # NaN.  Byte re-emission alone cannot see two same-formatted columns
        # swapped on the way out and back in.
        run_one = harness._run_one

        def fail_drop_1(config, algorithm, seed):
            if seed == child_seed(config.rng_seed, 1):
                raise ValueError("placement failed")
            return run_one(config, algorithm, seed)
        monkeypatch.setattr(harness, "_run_one", fail_drop_1)
        records = [record for algorithm in ("egt", "ngt", "brute-group") for record in
                   run_drops(ExperimentSpec(config=cfg(), algorithm=algorithm, n_drops=3))]
        assert [r.drop for r in records if r.error] == [1, 1, 1]
        out = tmp_path / "results.csv"
        emit_results(records, out)
        back = parse_results(out)

        def text(value):
            if isinstance(value, bool):
                return "true" if value else "false"
            return format(value, ".12g") if isinstance(value, float) else str(value)

        def as_read(value):
            if isinstance(value, list):
                return [as_read(v) for v in value]
            return float(text(value)) if isinstance(value, float) else value
        names = [f.name for f in dataclasses.fields(harness.RunRecord)
                 if f.name not in ("traces", "error")]
        columns = {"seed": "seed", "algorithm": "algorithm", "K": "n_small_cells",
                   "N": "n_subcarriers", "n_users": "n_users", "noise_dbm": "noise_dbm",
                   "network_ee": "network_ee", "jain": "jain", "iterations": "iterations",
                   "evaluations": "evaluations", "converged": "converged"}
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(back) == len(rows) == len(records)
        for orig, rec, row in zip(sorted(records, key=lambda r: (r.drop, r.algorithm)),
                                  back, rows):
            assert row == {**{column: text(getattr(orig, name))
                              for column, name in columns.items()},
                           **{f"cell_ee_{k}": text(v) for k, v in enumerate(orig.cell_ee)}}
            for name in names:
                np.testing.assert_equal(getattr(rec, name), as_read(getattr(orig, name)),
                                        err_msg=name)

    @pytest.mark.parametrize("algorithms", [("egt",), ("egt", "ngt", "brute-group")])
    def test_reemission_of_parsed_records_is_byte_identical(self, tmp_path, algorithms):
        # 12 significant digits survive a parse/format cycle unchanged, and a
        # paired file keeps its drop-major row order
        records = [record for algorithm in algorithms for record in
                   run_drops(ExperimentSpec(config=cfg(), algorithm=algorithm, n_drops=3))]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        emit_results(records, first)
        emit_results(parse_results(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_identical_spec_rerun_is_byte_identical(self, tmp_path):
        spec = ExperimentSpec(config=cfg(), algorithm="egt", n_drops=3)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        trace_a = emit_results(run_drops(spec), a)
        trace_b = emit_results(run_drops(spec), b)
        assert a.read_bytes() == b.read_bytes()
        assert trace_a.read_bytes() == trace_b.read_bytes()

    def test_trace_companion_layout(self, tmp_path):
        spec = ExperimentSpec(config=cfg(), algorithm="egt", n_drops=2)
        records = run_drops(spec)
        out = tmp_path / "results.csv"
        trace_file = emit_results(records, out)
        assert trace_file == tmp_path / "results_trace.csv"
        lines = trace_file.read_text().splitlines()
        assert lines[0] == "drop,game,iteration,avg_payoff"
        expected_rows = sum(len(t) for r in records for t in r.traces.values())
        assert len(lines) - 1 == expected_rows
        for r in records:
            for sc in sorted(r.traces):
                row = next(line for line in lines[1:]
                           if line.startswith(f"{r.drop},{sc},1,"))
                assert float(row.split(",")[3]) == pytest.approx(
                    r.traces[sc][0], rel=1e-11)

    def test_non_egt_records_emit_no_trace_rows(self, tmp_path):
        spec = ExperimentSpec(config=cfg(), algorithm="ngt", n_drops=2)
        trace_file = emit_results(run_drops(spec), tmp_path / "r.csv")
        assert trace_file.read_text().splitlines() == ["drop,game,iteration,avg_payoff"]

    def test_empty_record_list_writes_bare_header(self, tmp_path):
        out = tmp_path / "empty.csv"
        emit_results([], out)
        assert out.read_text() == ("seed,algorithm,K,N,n_users,noise_dbm,network_ee,"
                                   "jain,iterations,evaluations,converged\n")
        assert parse_results(out) == []

    def test_mixed_cell_counts_rejected(self, tmp_path):
        a = run_drops(ExperimentSpec(config=cfg(), algorithm="ngt", n_drops=1))
        b = run_drops(ExperimentSpec(config=cfg(n_small_cells=2, n_subcarriers=3,
                                                n_users_per_cell=2),
                                     algorithm="ngt", n_drops=1))
        with pytest.raises(ValueError):
            emit_results(a + b, tmp_path / "bad.csv")

    def test_cell_count_other_than_k_plus_one_rejected(self, tmp_path):
        rec, = run_drops(ExperimentSpec(config=cfg(), algorithm="ngt", n_drops=1))
        short = dataclasses.replace(rec, cell_ee=rec.cell_ee[:-1])
        with pytest.raises(ValueError, match="K \\+ 1 cell_ee values"):
            emit_results([short], tmp_path / "bad.csv")

    def test_error_records_serialize_as_nan(self, tmp_path):
        spec = ExperimentSpec(
            config=cfg(n_small_cells=5, n_subcarriers=5, n_users_per_cell=1,
                       macro_radius=150.0),
            algorithm="egt", n_drops=1)
        out = tmp_path / "err.csv"
        emit_results(run_drops(spec), out)
        rec, = parse_results(out)
        assert math.isnan(rec.network_ee)
        assert not rec.converged

    @pytest.mark.parametrize("text, message", [
        ("", "empty results file"),
        ("time,value\n1,2\n", "unexpected header 'time,value'"),
        ("seed,algorithm,K,N,n_users,noise_dbm,network_ee,jain,iterations,"
         "evaluations,converged,cell_ee_0\n1,egt,1\n", ":2: expected 12 fields, got 3"),
        *((ROW_HEADER + f"1,egt,1,2,2,-194,1.5,0.9,1,4,{flag},0.75\n",
           f":2: column converged: expected true or false, got '{flag}'")
          for flag in ("TRUE", "yes", "1", "")),
        (ROW_HEADER + "1,egt,1.5,2,2,-194,1.5,0.9,1,4,true,0.75\n",
         ":2: column K: invalid literal for int"),
        (ROW_HEADER + "1,egt,1,2,2,-194,1.5,0.9,1,4,true,x\n",
         ":2: column cell_ee_0: could not convert string to float: 'x'"),
        (ROW_HEADER + "1,greedy,1,2,2,-194,1.5,0.9,1,4,true,0.75\n",
         ":2: column algorithm: unknown algorithm 'greedy'"),
        (ROW_HEADER + "1,egt,-3,2,2,-194,1.5,0.9,1,4,true,0.75\n",
         ":2: column K: expected an integer >= 0, got -3"),
        (ROW_HEADER + "1,egt,1,0,2,-194,1.5,0.9,1,4,true,0.75\n",
         ":2: column N: expected an integer >= 1, got 0"),
        (ROW_HEADER + "1,egt,1,2,0,-194,1.5,0.9,1,4,true,0.75\n",
         ":2: column n_users: expected an integer >= 1, got 0"),
        (ROW_HEADER + "1,egt,1,2,2,-194,1.5,0.9,-1,4,true,0.75\n",
         ":2: column iterations: expected an integer >= 0, got -1"),
        (ROW_HEADER + "1,egt,1,2,2,-194,1.5,0.9,1,-4,true,0.75\n",
         ":2: column evaluations: expected an integer >= 0, got -4"),
        *((ROW_HEADER + f"1,egt,1,2,2,-194,1.5,{jain},1,4,true,0.75\n",
           f":2: column jain: expected NaN or a value in (0, 1], got {jain}")
          for jain in ("7.0", "1.000000001", "0", "-0.5", "inf")),
        (BASE_HEADER + ",foo,bar\n1,egt,1,2,2,-194,1.5,0.9,1,4,true,0.75,0.5\n",
         f"unexpected header '{BASE_HEADER},foo,bar'"),
        (BASE_HEADER + ",cell_ee_0,cell_ee_1,cell_ee_2\n"
         "1,egt,1,2,2,-194,1.5,0.9,1,4,true,0.75,0.5,0.25\n",
         ":2: column K: K + 1 = 2 cells, but the header has 3 cell_ee columns"),
        (BASE_HEADER + "\n1,egt,1,2,2,-194,1.5,0.9,1,4,true\n",
         ":2: column K: K + 1 = 2 cells, but the header has 0 cell_ee columns"),
        (ROW_HEADER + "-1,egt,0,2,2,-194,1.5,0.9,1,4,true,0.75\n",
         ":2: column seed: expected an integer >= 0, got -1"),
        *((ROW_HEADER + f"1,egt,1,2,2,{noise},1.5,0.9,1,4,true,0.75\n",
           f":2: column noise_dbm: expected a finite number, got {noise}")
          for noise in ("inf", "-inf", "nan")),
        *((ROW_HEADER + f"1,egt,1,2,2,-194,{ee},0.9,1,4,true,0.75\n",
           f":2: column network_ee: expected NaN or a finite value >= 0, got {ee}")
          for ee in ("-1.5", "inf", "-1e-300")),
        *((ROW_HEADER + f"1,egt,1,2,2,-194,1.5,0.9,1,4,true,{ee}\n",
           f":2: column cell_ee_0: expected NaN or a finite value >= 0, got {ee}")
          for ee in ("-3", "inf")),
        # a row of several bad cells reports the first in header order
        (TWO_CELL_HEADER + "1,egt,1,2,2,inf,-1.5,0.9,1,4,true,inf,-3\n",
         ":2: column noise_dbm: expected a finite number, got inf"),
        (TWO_CELL_HEADER + "1,egt,1,2,2,-194,-1.5,7,1,4,true,inf,-3\n",
         ":2: column network_ee: expected NaN or a finite value >= 0, got -1.5"),
        (TWO_CELL_HEADER + "1,egt,1,2,2,-194,1.5,0.9,1,4,true,inf,-3\n",
         ":2: column cell_ee_0: expected NaN or a finite value >= 0, got inf"),
        (TWO_CELL_HEADER + "1,egt,1,2,2,-194,1.5,0.9,1,4,true,0.5,-3\n",
         ":2: column cell_ee_1: expected NaN or a finite value >= 0, got -3"),
    ], ids=["empty", "foreign-header", "ragged-row", "TRUE", "yes", "1", "blank-flag",
            "fractional-count", "bad-cell", "unknown-algorithm", "negative-K", "zero-N",
            "zero-users", "negative-iterations", "negative-evaluations", "jain-7",
            "jain-above-1", "jain-0", "jain-negative", "jain-inf", "foreign-cell-columns",
            "K-over-cell-columns", "no-cell-columns", "negative-seed", "noise-inf",
            "noise-minus-inf", "noise-nan", "network-ee-negative", "network-ee-inf",
            "network-ee-tiny-negative", "cell-ee-negative", "cell-ee-inf",
            "first-bad-is-noise", "first-bad-is-network-ee", "first-bad-is-cell-ee-0",
            "bad-cell-ee-1"])
    def test_parse_rejects_malformed_files(self, tmp_path, text, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        with pytest.raises(ValueError, match=re.escape(message)) as info:
            parse_results(bad)
        assert str(info.value).startswith(f"{bad}:")

    def test_parse_accepts_nan_jain_and_rounding_above_one(self, tmp_path):
        good = tmp_path / "good.csv"
        good.write_text(ROW_HEADER + "1,ngt,0,1,1,-194,nan,nan,0,0,false,nan\n"
                        + "2,brute-group,0,1,1,-194,1.5,1.0000000000001,0,8,true,1.5\n")
        failed, rounded = parse_results(good)
        assert math.isnan(failed.jain) and rounded.jain == 1.0000000000001

    @pytest.mark.parametrize("emit, what", [(emit_results, "results"),
                                            (emit_sweep, "sweep table")])
    def test_unwritable_path_names_the_file(self, tmp_path, emit, what):
        with pytest.raises(OSError, match=f"cannot write {what} to "):
            emit([], tmp_path / "missing" / "r.csv")

    def test_unwritable_trace_path_names_the_file(self, tmp_path):
        trace_path_for(tmp_path / "r.csv").mkdir()
        with pytest.raises(OSError, match="cannot write traces to "):
            emit_results([], tmp_path / "r.csv")

    def test_sweep_table_layout(self, tmp_path):
        spec = ExperimentSpec(config=cfg(), algorithm="egt", n_drops=2)
        out = tmp_path / "sweep.csv"
        emit_sweep(sweep(spec, SweepSpec("n_users_per_cell", (1, 2))), out)
        lines = out.read_text().splitlines()
        assert lines[0] == "parameter,value,n_drops,mean_network_ee,ee_ci95,mean_jain,jain_ci95"
        assert len(lines) == 3
        assert lines[1].startswith("n_users_per_cell,1,2,")

    def test_trace_path_naming(self):
        assert trace_path_for("runs/out.csv").name == "out_trace.csv"
        assert trace_path_for("out").name == "out_trace.csv"
