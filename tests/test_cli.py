"""The command line: each subcommand's output and exit code, and the reason it
prints for each failed drop or bad input.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from twotier_ee.cli import main
from twotier_ee.harness import parse_results, trace_path_for

SRC = Path(__file__).resolve().parent.parent / "src"

CONFIG_TEXT = """\
# desk-scale scenario for CLI checks
n_small_cells = 1
n_subcarriers = 2
n_users_per_cell = 2
power_levels = 0.01, 0.1
rng_seed = 7
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(CONFIG_TEXT)
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


# five non-overlapping small cells do not fit in the macro disc: every drop fails
CRAMPED_CONFIG_TEXT = """\
n_small_cells = 5
n_subcarriers = 5
n_users_per_cell = 1
macro_radius = 150
"""


class TestSimulate:
    def test_runs_and_writes_results(self, config_file, tmp_path, capsys):
        out = tmp_path / "runs.csv"
        code = run_cli("simulate", "--config", config_file, "--drops", 3,
                       "--out", out)
        assert code == 0
        stdout = capsys.readouterr().out
        assert "egt:" in stdout and "mean_network_ee=" in stdout
        records = parse_results(out)
        assert len(records) == 3
        assert {r.algorithm for r in records} == {"egt"}
        assert (tmp_path / "runs_trace.csv").exists()

    def test_algorithm_flag_selects_baseline(self, config_file, tmp_path, capsys):
        out = tmp_path / "ngt.csv"
        assert run_cli("simulate", "--config", config_file, "--algorithm", "ngt",
                       "--drops", 2, "--out", out) == 0
        assert all(r.algorithm == "ngt" for r in parse_results(out))
        assert "ngt:" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, config_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("simulate", "--config", config_file, "--drops", 2, "--out", a)
        run_cli("simulate", "--config", config_file, "--drops", 2, "--out", b)
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a_trace.csv").read_bytes() == \
            (tmp_path / "b_trace.csv").read_bytes()

    @pytest.mark.parametrize("seed", [123, 0])
    def test_seed_flag_overrides_config(self, config_file, tmp_path, seed):
        base, over, again = (tmp_path / n for n in ("base.csv", "o1.csv", "o2.csv"))
        run_cli("simulate", "--config", config_file, "--drops", 2, "--out", base)
        run_cli("simulate", "--config", config_file, "--drops", 2, "--out", over,
                "--seed", seed)
        run_cli("simulate", "--config", config_file, "--drops", 2, "--out", again,
                "--seed", seed)
        assert base.read_bytes() != over.read_bytes()
        assert over.read_bytes() == again.read_bytes()


class TestSweep:
    def test_prints_one_line_per_value_and_writes_table(self, config_file,
                                                        tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run_cli("sweep", "--config", config_file, "--drops", 2,
                       "--param", "noise_psd_dbm_per_hz",
                       "--values=-194, -184,", "--out", out)
        assert code == 0
        stdout = capsys.readouterr().out
        assert stdout.count("noise_psd_dbm_per_hz=") == 2
        lines = out.read_text().splitlines()
        assert lines[0].startswith("parameter,value,")
        assert len(lines) == 3

    def test_invalid_sweep_value_is_diagnosed(self, config_file, capsys):
        # 9 users per cell cannot fit on 2 subcarriers
        code = run_cli("sweep", "--config", config_file,
                       "--param", "n_users_per_cell", "--values", "1,9")
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("param, values, message", [
        ("n_small_cells", "1,2.5", "n_small_cells value '2.5' is not a valid int"),
        ("noise_psd_dbm_per_hz", "-174,abc",
         "noise_psd_dbm_per_hz value 'abc' is not a valid float"),
    ])
    def test_unparsable_sweep_value_names_the_parameter(self, config_file, capsys,
                                                         param, values, message):
        code = run_cli("sweep", "--config", config_file, "--param", param,
                       f"--values={values}")
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"

    def test_non_finite_sweep_value_rejected(self, config_file, capsys):
        code = run_cli("sweep", "--config", config_file,
                       "--param", "noise_psd_dbm_per_hz", "--values", "nan,-180")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err


    def test_unusable_noise_value_rejected_before_any_drop(self, config_file, capsys):
        code = run_cli("sweep", "--config", config_file,
                       "--param", "noise_psd_dbm_per_hz", "--values=-4000,-174")
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and "noise_psd_dbm_per_hz = -4000.0" in err


class TestCompare:
    def test_paired_summary_and_combined_output(self, config_file, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        assert run_cli("compare", "--config", config_file, "--drops", 2,
                       "--out", out) == 0
        stdout = capsys.readouterr().out
        assert "egt:" in stdout and "ngt:" in stdout
        assert "jain(egt) >= jain(ngt) in" in stdout
        records = parse_results(out)
        assert len(records) == 4
        assert {r.algorithm for r in records} == {"egt", "ngt"}

    def test_no_paired_drop_exits_nonzero_and_still_writes(self, tmp_path, capsys):
        bad = tmp_path / "cramped.cfg"
        bad.write_text(CRAMPED_CONFIG_TEXT)
        out = tmp_path / "cmp.csv"
        assert run_cli("compare", "--config", bad, "--drops", 2, "--out", out) == 1
        assert "all 2 drops failed" in capsys.readouterr().out
        records = parse_results(out)
        assert len(records) == 4
        assert all(math.isnan(r.network_ee) for r in records)


@pytest.mark.parametrize("command, line", [
    ("compare", "jain(egt) >= jain(ngt) in 2/2 paired drops"),
    ("oracle", "dominance held in 2/2"),
])
def test_tied_outcomes_count_for_egt(tmp_path, capsys, command, line):
    # with one power level every algorithm picks the same profile
    path = tmp_path / "one_level.cfg"
    path.write_text(CONFIG_TEXT.replace("power_levels = 0.01, 0.1", "power_levels = 0.01"))
    assert run_cli(command, "--config", path, "--drops", 2) == 0
    assert line in capsys.readouterr().out


class TestOracle:
    def test_reports_gap_and_dominance(self, config_file, tmp_path, capsys):
        out = tmp_path / "oracle.csv"
        assert run_cli("oracle", "--config", config_file, "--drops", 2,
                       "--out", out) == 0
        stdout = capsys.readouterr().out
        assert "mean relative gap" in stdout
        assert "dominance held in 2/2" in stdout
        assert {r.algorithm for r in parse_results(out)} == {"egt", "brute-group"}

    def test_all_failed_drops_exit_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "cramped.cfg"
        bad.write_text(CRAMPED_CONFIG_TEXT)
        out = tmp_path / "orc.csv"
        assert run_cli("oracle", "--config", bad, "--drops", 2, "--out", out) == 1
        assert "no successful paired drops" in capsys.readouterr().out
        assert trace_path_for(out).exists()
        records = parse_results(out)
        assert len(records) == 4
        assert {r.algorithm for r in records} == {"egt", "brute-group"}
        for r in records:
            assert all(math.isnan(v) for v in [r.network_ee, r.jain, *r.cell_ee])


GUARD_CONFIG_TEXT = """\
# 9 co-channel cells with 16 levels each: 16^9 group profiles trip the 2^30 guard
n_small_cells = 8
n_subcarriers = 1
n_users_per_cell = 1
power_levels = {}
""".format(", ".join(str(0.001 * (k + 1)) for k in range(16)))


# a 1.8e-318 W noise power passes the config check, but with no interferer
# (one cell) the SINR overflows to inf on most drops
SUBNORMAL_NOISE_CONFIG_TEXT = """\
n_small_cells = 0
n_subcarriers = 6
n_users_per_cell = 6
noise_psd_dbm_per_hz = -3200
"""


class TestFailureReasons:
    @pytest.mark.parametrize("argv, code", [
        (("simulate", "--algorithm", "brute-group"), 1),
        (("oracle",), 1),
        (("sweep", "--algorithm", "brute-group", "--param", "noise_psd_dbm_per_hz",
          "--values=-194"), 1),
    ])
    def test_failed_drop_reason_on_stderr(self, tmp_path, capsys, argv, code):
        path = tmp_path / "guarded.cfg"
        path.write_text(GUARD_CONFIG_TEXT)
        assert run_cli(*argv, "--config", path, "--drops", 2) == code
        captured = capsys.readouterr()
        assert "2^30 guard" in captured.err
        assert "2^30 guard" not in captured.out

    @pytest.mark.parametrize("algorithm, drops, failed", [
        ("egt", 20, 16),
        ("brute-group", 3, 3),
    ])
    def test_non_finite_metrics_fail_the_drop(self, tmp_path, capsys, algorithm,
                                              drops, failed):
        path = tmp_path / "subnormal.cfg"
        path.write_text(SUBNORMAL_NOISE_CONFIG_TEXT)
        out = tmp_path / "runs.csv"
        # exit 1 only when no drop succeeded
        assert run_cli("simulate", "--algorithm", algorithm, "--config", path,
                       "--drops", drops, "--out", out) == (1 if failed == drops else 0)
        err = capsys.readouterr().err
        assert f"{algorithm}: {failed} drop(s) failed: non-finite network_ee = inf" in err
        records = parse_results(out)
        assert len(records) == drops
        assert sum(math.isnan(r.network_ee) for r in records) == failed
        for r in records:
            values = [r.network_ee, r.jain, *r.cell_ee]
            check = math.isnan if math.isnan(r.network_ee) else math.isfinite
            assert all(check(v) for v in values)

    def test_sweep_exits_zero_when_some_value_has_a_drop(self, tmp_path, capsys):
        path = tmp_path / "subnormal.cfg"
        path.write_text(SUBNORMAL_NOISE_CONFIG_TEXT)
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--algorithm", "brute-group", "--config", path,
                       "--drops", 2, "--param", "noise_psd_dbm_per_hz",
                       "--values=-3200,-174", "--out", out) == 0
        captured = capsys.readouterr()
        assert "noise_psd_dbm_per_hz=-3200: 2 drop(s) failed" in captured.err
        assert "noise_psd_dbm_per_hz=-174" not in captured.err
        assert "drops=0" in captured.out and "drops=2" in captured.out
        # n_drops counts the drops the means average over
        rows = out.read_text().splitlines()[1:]
        assert rows[0] == "noise_psd_dbm_per_hz,-3200,0,nan,nan,nan,nan"
        assert rows[1].startswith("noise_psd_dbm_per_hz,-174,2,")


class TestErrorHandling:
    def test_missing_config_file(self, tmp_path, capsys):
        assert run_cli("simulate", "--config", tmp_path / "nope.cfg") == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_config_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("n_small_cells = 1\nn_subcarriers = 2\n"
                       "n_users_per_cell = 1\nbandwidth = 20\n")
        assert run_cli("simulate", "--config", bad) == 1
        assert "bandwidth" in capsys.readouterr().err

    def test_negative_seed_rejected(self, config_file, capsys):
        assert run_cli("simulate", "--config", config_file, "--seed", -1) == 1
        assert "rng_seed must be a nonnegative integer" in capsys.readouterr().err

    def test_unwritable_output_is_diagnosed(self, config_file, tmp_path, capsys):
        missing_dir = tmp_path / "no_such_dir" / "out.csv"
        assert run_cli("simulate", "--config", config_file,
                       "--out", missing_dir) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_subcommand_exits_with_usage_error(self, config_file):
        with pytest.raises(SystemExit) as info:
            run_cli("optimize", "--config", config_file)
        assert info.value.code == 2

    def test_missing_required_flag_exits_with_usage_error(self):
        with pytest.raises(SystemExit) as info:
            run_cli("simulate")
        assert info.value.code == 2


class TestEntryPoint:
    def test_module_invocation(self, config_file, tmp_path):
        out = tmp_path / "mod.csv"
        # pytest's pythonpath setting reaches only its own process
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "twotier_ee", "simulate",
             "--config", str(config_file), "--drops", "1", "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
        assert "mean_network_ee=" in proc.stdout
