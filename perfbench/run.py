#!/usr/bin/env python3
"""Drop-throughput benchmark of the twotier_ee simulator.

Run from the repository root:

    python3 perfbench/run.py --workload large-compare --seed 3 --seconds 55 --trace 0
    python3 perfbench/run.py                  # every workload, untraced then traced
    python3 perfbench/run.py --write-golden   # re-record the pinned digests and counts

One run drives the public harness API the way the CLI's `simulate`,
`compare` and `oracle` subcommands do: `run_drops(ExperimentSpec(...))`,
then `emit_results`.  It runs one drop at a time in a closed loop (the
next drop starts when the previous one has finished), in one process and
one thread, so every drop is timed.  Drop seeds derive from `--seed`; the
program only sees the configs made from them.

Every run first runs a pinned check batch (seed CHECK_SEED), which is also
the warm-up, and compares the sha256 of its results and trace CSVs, and in
a traced run its exact counters, with `golden.json`.  The timed drops are
then checked for the model's invariants and for a lossless CSV round trip.
With `--trace 1` the package's functions are wrapped from outside (see
tracing.py) and the per-layer metrics are reported instead of the
end-to-end ones.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Everything else a run measures
(host record, drift probe, per-function aggregates, counters, the error
text of every failed drop, spans) goes to .perfbench_out/.
"""

import os

# one process, one thread: set before numpy loads, inherited by set-up probes
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
GOLDEN = HERE / "golden.json"

CHECK_SEED = 0          # seed of the check batch whose bytes golden.json pins
# fresh interpreters per run, half before the drops and half after, so that one
# slow or fast spell of the host does not decide the median (setup_s)
SETUP_REPEATS = 3
TAIL_PERCENTILE = 80    # nearest rank; ten drops lie beyond it from 50 drops on
CALIBRATION_REPEATS = 3
# same tolerance as the CLI's oracle subcommand
DOMINANCE_RTOL = 1e-12

ALGORITHM_FUNCTIONS = ("egt.new_games", "egt.run_algorithm1",
                       "baselines.ngt_best_response", "baselines.brute_force_group")
SELF_TIMED = ("topology.sample_topology", "topology.sample_large_scale_fading",
              "topology.sample_channels", "linklevel.sinr", "linklevel.build_combiners",
              "linklevel.compute_link_metrics", "harness.run_drops")
PER_DROP_COUNTS = {
    "topology.channels.vectors_drawn": "count",
    "topology.channels.bytes_computed": "bytes",
    "linklevel.sinr.calls": "count",
    "egt.iterations": "count",
    "egt.evaluations": "count",
    "baselines.ngt.rounds": "count",
    "baselines.ngt.evaluations": "count",
    "baselines.brute_force_group.evaluations": "count",
    "harness.emit_results.bytes": "bytes",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass(frozen=True)
class Workload:
    config: Path
    algorithms: tuple   # run in turn on one drop's identical channels
    check_drops: int    # size of the pinned check batch


WORKLOADS = {
    # reference scale; egt, ngt and brute-group on each drop, as compare plus oracle
    "ref-oracle": Workload(ROOT / "configs" / "two_cell_reference.cfg",
                           ("egt", "ngt", "brute-group"), 8),
    # large scale; egt and ngt on each drop, as compare: sampling twice, then
    # ~7-cell groups where sinr evaluations dominate
    "large-compare": Workload(HERE / "large.cfg", ("egt", "ngt"), 3),
}


def import_package():
    """Import twotier_ee from this checkout's sources, never from elsewhere."""
    package_dir = SRC / "twotier_ee"
    if not (package_dir / "__init__.py").is_file():
        raise BenchError(f"no package sources at {package_dir}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import twotier_ee
    if Path(twotier_ee.__file__).resolve().parent != package_dir.resolve():
        raise BenchError(f"imported twotier_ee from {twotier_ee.__file__}, not {package_dir}")
    return twotier_ee


def drop_seed(seed: int, drop: int) -> int:
    """Config rng_seed of drop `drop` in a run with workload seed `seed`."""
    digest = hashlib.sha256(f"perfbench:{seed}:{drop}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def run_drop(harness, base, workload: Workload, seed: int, drop: int) -> list:
    config = dataclasses.replace(base, rng_seed=drop_seed(seed, drop))
    records = []
    for algorithm in workload.algorithms:
        [record] = harness.run_drops(
            harness.ExperimentSpec(config=config, algorithm=algorithm, n_drops=1))
        # run_drops numbers its drops from 0; the batch index is the benchmark's
        record.drop = drop
        records.append(record)
    return records


def run_batch(harness, base, workload: Workload, seed: int, *,
              n_drops: int = None, seconds: float = None):
    """Closed loop over drops: a fixed count, or until `seconds` have passed."""
    drops, times = [], []
    start = time.perf_counter()
    while (len(drops) < n_drops if n_drops is not None
           else time.perf_counter() - start < seconds):
        t0 = time.perf_counter()
        drops.append(run_drop(harness, base, workload, seed, len(drops)))
        times.append(time.perf_counter() - t0)
    return drops, times


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def exact_counts(trace: dict) -> dict:
    counts = dict(trace["counts"])
    counts["linklevel.sinr.calls"] = trace["calls"].get("linklevel.sinr", 0)
    return counts


def check_records(drops: list, n_levels: int) -> list:
    """Model invariants of every successful drop; returns problem descriptions."""
    problems = []
    for records in drops:
        if any(r.error is not None for r in records):
            continue  # a failed drop, counted and reported as such
        for r in records:
            where = f"drop {r.drop} seed {r.seed} {r.algorithm}"
            if not (math.isfinite(r.network_ee) and r.network_ee > 0):
                problems.append(f"{where}: network_ee {r.network_ee}")
            if not all(math.isfinite(v) and v >= 0 for v in r.cell_ee):
                problems.append(f"{where}: cell_ee {r.cell_ee}")
            elif not math.isclose(sum(r.cell_ee), r.network_ee, rel_tol=1e-9):
                problems.append(f"{where}: cell_ee sums to {sum(r.cell_ee)}, "
                                f"network_ee is {r.network_ee}")
            if not 0 < r.jain <= 1 + 1e-12:
                problems.append(f"{where}: jain {r.jain}")
            if r.evaluations < 1:
                problems.append(f"{where}: {r.evaluations} evaluations")
            if r.algorithm == "egt" and not (r.converged and 1 <= r.iterations <= n_levels):
                problems.append(f"{where}: converged={r.converged} after "
                                f"{r.iterations} iterations, L={n_levels}")
        by_algorithm = {r.algorithm: r for r in records}
        if "brute-group" in by_algorithm and "egt" in by_algorithm:
            best, egt = by_algorithm["brute-group"], by_algorithm["egt"]
            if best.network_ee < egt.network_ee - DOMINANCE_RTOL * abs(best.network_ee):
                problems.append(f"drop {egt.drop}: brute-group network_ee {best.network_ee}"
                                f" below egt {egt.network_ee}")
    return problems


def check_round_trip(harness, records: list, path: Path, trace_path: Path) -> list:
    """The emitted CSVs must hold exactly the records at 12 significant digits."""
    def fmt(x):
        return format(float(x), ".12g")

    ordered = sorted(records, key=lambda r: (r.drop, r.algorithm))
    parsed = harness.parse_results(path)
    if len(parsed) != len(ordered):
        return [f"{path.name}: {len(parsed)} rows for {len(ordered)} records"]
    problems = []
    for r, p in zip(ordered, parsed):
        exact = [(getattr(r, f), getattr(p, f)) for f in (
            "seed", "algorithm", "n_small_cells", "n_subcarriers", "n_users",
            "iterations", "evaluations", "converged")]
        floats = [(fmt(a), fmt(b)) for a, b in zip(
            [r.noise_dbm, r.network_ee, r.jain, *r.cell_ee],
            [p.noise_dbm, p.network_ee, p.jain, *p.cell_ee])]
        if len(r.cell_ee) != len(p.cell_ee) or any(a != b for a, b in exact + floats):
            problems.append(f"{path.name}: row for seed {r.seed} {r.algorithm} differs")
    trace_rows = len(trace_path.read_text().splitlines()) - 1
    expected_rows = sum(len(v) for r in records for v in r.traces.values())
    if trace_rows != expected_rows:
        problems.append(f"{trace_path.name}: {trace_rows} rows, expected {expected_rows}")
    return problems


def percentile(values: list, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(math.ceil(pct / 100 * len(ordered)), 1)
    return ordered[rank - 1]


def calibrate(np) -> dict:
    """Fixed kernel shaped like the hot path: 128-antenna vdots in a Python loop.

    Timed at the start and end of each run as a host drift diagnostic only;
    no metric depends on it.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    b = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    samples = []
    for _ in range(CALIBRATION_REPEATS):
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(20000):
            acc += abs(np.vdot(a, b)) ** 2
        samples.append((time.perf_counter() - t0) * 1e3)
    return {"median_ms": statistics.median(samples), "samples_ms": samples}


def git_commit():
    """Commit of the checkout, or None where there is no git metadata."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        packed = (git / "packed-refs").read_text().splitlines()
    except OSError:
        return None
    for line in packed:
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return None


def host_record(np, scipy) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def measure_setup(config_path: Path) -> list:
    """Import the package and load the config, each time in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(config_path)],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        sample = json.loads(proc.stdout.splitlines()[-1])
        if Path(sample["package"]).resolve().parent != (SRC / "twotier_ee").resolve():
            raise BenchError(f"set-up probe imported {sample['package']}")
        samples.append(sample)
    return samples


def load_golden(name: str) -> dict:
    try:
        return json.loads(GOLDEN.read_text())[name]
    except (OSError, KeyError) as exc:
        raise BenchError(f"no pinned check data for {name} in {GOLDEN}: {exc}") from exc


def run_check_batch(harness, base, workload: Workload, out_dir: Path):
    """Pinned drops, emitted; returns (drops, per-drop seconds, digests)."""
    drops, times = run_batch(harness, base, workload, CHECK_SEED,
                             n_drops=workload.check_drops)
    path = out_dir / "check.csv"
    trace_path = harness.emit_results([r for d in drops for r in d], path)
    digests = {"results_sha256": sha256(path), "trace_sha256": sha256(Path(trace_path))}
    return drops, times, digests


def compare_with_golden(golden: dict, workload: Workload, digests: dict,
                        counts: dict = None) -> list:
    problems = []
    if (golden["seed"], golden["drops"]) != (CHECK_SEED, workload.check_drops):
        problems.append(f"golden.json pins seed {golden['seed']} x {golden['drops']} drops, "
                        f"the benchmark runs seed {CHECK_SEED} x {workload.check_drops}")
    for key, value in digests.items():
        if value != golden[key]:
            problems.append(f"check batch {key} {value} != pinned {golden[key]}")
    for key, value in golden["counts"].items() if counts is not None else ():
        if counts.get(key) != value:
            problems.append(f"check batch count {key} {counts.get(key)} != pinned {value}")
    return problems


def detail_path(name: str, seed: int, trace: bool) -> Path:
    return OUT / f"{name}-seed{seed}-trace{int(trace)}.json"


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]
    package = import_package()
    golden = load_golden(name)
    setup = measure_setup(workload.config)

    import numpy as np
    import scipy
    from twotier_ee import harness

    out_dir = detail_path(name, seed, trace).with_suffix("")
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install(package)
    base = package.load_config(workload.config)
    n_levels = base.n_power_levels
    drift_start = calibrate(np)
    problems = []

    check, check_times, digests = run_check_batch(harness, base, workload, out_dir)
    # taken after the fixed check batch: the peak of the whole run grows with
    # the records a faster program keeps for more drops
    check_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check_counts = exact_counts(tracer.take()) if tracer is not None else None
    problems += compare_with_golden(golden, workload, digests, check_counts)
    problems += [f"check batch: {p}" for p in check_records(check, n_levels)]
    problems += [f"check batch drop {r.drop} {r.algorithm} failed: {r.error}"
                 for d in check for r in d if r.error is not None]

    start = time.perf_counter()
    drops, times = run_batch(harness, base, workload, seed, seconds=seconds)
    records = [r for d in drops for r in d]
    path = out_dir / "timed.csv"
    trace_path = Path(harness.emit_results(records, path))
    wall = time.perf_counter() - start
    timed = tracer.take() if tracer is not None else None
    drift_end = calibrate(np)
    setup += measure_setup(workload.config)

    problems += check_records(drops, n_levels)
    problems += check_round_trip(harness, records, path, trace_path)
    errors = [{"drop": r.drop, "seed": r.seed, "algorithm": r.algorithm, "error": r.error}
              for r in records if r.error is not None]
    attempted = len(drops)
    correct = not problems
    failed = sum(any(r.error is not None for r in d) for d in drops) if correct else attempted
    completed = attempted - failed

    def per_drop_ms(ns):
        return ns / attempted / 1e6

    if not trace:
        metrics = {
            "drops_per_s": metric(completed / wall, "1/s"),
            f"drop_ms_tail_p{TAIL_PERCENTILE}":
                metric(percentile(times, TAIL_PERCENTILE) * 1e3, "ms"),
            "setup_s": metric(
                statistics.median(s["import_s"] + s["load_s"] for s in setup), "s"),
            "peak_rss_mb": metric(check_rss_mb, "MB"),
            "ok_drop_frac": metric(completed / attempted, "fraction"),
        }
    else:
        metrics = {f"{n}.self_ms": metric(per_drop_ms(timed["self_ns"].get(n, 0)), "ms")
                   for n in SELF_TIMED}
        metrics["algorithm.self_ms"] = metric(
            per_drop_ms(sum(timed["self_ns"].get(n, 0) for n in ALGORITHM_FUNCTIONS)), "ms")
        metrics["harness.emit_results.ms"] = metric(
            per_drop_ms(timed["total_ns"].get("harness.emit_results", 0)), "ms")
        # exact counts come from the pinned check batch, so they repeat run to run
        for key, unit in PER_DROP_COUNTS.items():
            metrics[key] = metric(check_counts.get(key, 0) / workload.check_drops, unit)
        metrics["topology.channels.read_ratio"] = metric(
            check_counts["topology.channels.vectors_read"]
            / check_counts["topology.channels.vectors_drawn"], "ratio")
        metrics["setup.import_ms"] = metric(
            statistics.median(s["import_s"] for s in setup) * 1e3, "ms")
        metrics["config.load_config.ms"] = metric(
            statistics.median(s["load_s"] for s in setup) * 1e3, "ms")
        metrics["harness.warmup_drop_ms"] = metric(check_times[0] * 1e3, "ms")
        metrics["traced.drops_per_s"] = metric(completed / wall, "1/s")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "host": host_record(np, scipy),
        "drift_probe": {"start": drift_start, "end": drift_end},
        "setup_samples": setup,
        "tail": {"percentile": TAIL_PERCENTILE, "samples": attempted,
                 "beyond": attempted - max(math.ceil(TAIL_PERCENTILE / 100 * attempted), 1)},
        "wall_s": wall,
        "drop_ms_p50": statistics.median(times) * 1e3,
        "drop_ms": [t * 1e3 for t in times],
        "peak_rss_mb_end": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_drop_frac": failed / attempted,
        "errors": errors,
        "problems": problems,
        "check_batch": {"seed": CHECK_SEED, "drops": workload.check_drops,
                        "digests": digests, "counts": check_counts,
                        "drop_ms": [t * 1e3 for t in check_times]},
        "result": result,
    }
    if timed is not None:
        detail["layers"] = {n: {"calls": timed["calls"][n],
                                "total_ms_per_drop": per_drop_ms(timed["total_ns"][n]),
                                "self_ms_per_drop": per_drop_ms(timed["self_ns"][n])}
                            for n in sorted(timed["calls"])}
        detail["timed_counts"] = exact_counts(timed)
        detail["tracer_hook_ms_per_drop"] = per_drop_ms(timed["hook_ns"])
        with open(out_dir / "spans.csv", "w") as f:
            f.write("id,name,start_ns,end_ns,parent\n")
            for i, (span_name, s0, s1, parent) in enumerate(timed["spans"]):
                f.write(f"{i},{span_name},{s0},{s1},{parent}\n")
    detail_path(name, seed, trace).write_text(
        json.dumps(detail, indent=1) + "\n")
    for problem in problems:
        print(f"perfbench: output check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def write_golden() -> int:
    """Re-record the check batch digests (untraced) and exact counts (traced)."""
    package = import_package()
    from twotier_ee import harness
    golden = {}
    for name, workload in WORKLOADS.items():
        base = package.load_config(workload.config)
        out_dir = OUT / f"golden-{name}"
        out_dir.mkdir(parents=True, exist_ok=True)
        drops, _, digests = run_check_batch(harness, base, workload, out_dir)
        problems = check_records(drops, base.n_power_levels)
        problems += [r.error for d in drops for r in d if r.error is not None]
        tracer = Tracer()
        tracer.install(package)
        try:
            _, _, traced_digests = run_check_batch(harness, base, workload, out_dir)
            counts = exact_counts(tracer.take())
        finally:
            tracer.uninstall()
        if traced_digests != digests:
            problems.append("traced check batch emitted other bytes than the untraced one")
        if problems:
            raise BenchError(f"{name}: refusing to pin a failing batch: {problems}")
        golden[name] = {"seed": CHECK_SEED, "drops": workload.check_drops, **digests,
                        "counts": counts}
        print(f"{name}: {digests}", file=sys.stderr)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def run_all(seed: int, seconds: int) -> int:
    """Every workload untraced then traced, each in its own process; prints a table."""
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, timeout=seconds + 170, check=False)
            if proc.returncode != 0:
                raise BenchError(f"{name} trace={trace} exited {proc.returncode}")
            results[name, trace] = json.loads(proc.stdout.splitlines()[-1])
    ok = True
    for name in WORKLOADS:
        plain, traced = results[name, 0], results[name, 1]
        ok &= plain["correct"] and traced["correct"]
        print(f"{name}: correct={plain['correct'] and traced['correct']} "
              f"attempted={plain['attempted']} failed={plain['failed']}")
        detail = json.loads(detail_path(name, seed, False).read_text())
        rows = [(key, m["value"], m["unit"]) for trace in (0, 1)
                for key, m in results[name, trace]["metrics"].items()]
        rows.insert(1, ("drop_ms_p50 (result file only)", detail["drop_ms_p50"], "ms"))
        for key, value, unit in rows:
            print(f"  {key:44s} {value:14.6g} {unit}")
        overhead = traced["metrics"]["traced.drops_per_s"]["value"] \
            / plain["metrics"]["drops_per_s"]["value"]
        print(f"  {'tracing: traced/untraced drops_per_s':44s} {overhead:14.6g} ratio")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="re-record golden.json from the current sources")
    args = parser.parse_args(argv)
    try:
        if args.write_golden:
            return write_golden()
        seconds = args.seconds
        if seconds is None:
            seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        if seconds < 1 or args.seed < 0:
            raise BenchError("--seconds must be >= 1 and --seed >= 0")
        if args.workload == "all":
            return run_all(args.seed, seconds)
        return run_workload(args.workload, args.seed, seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
