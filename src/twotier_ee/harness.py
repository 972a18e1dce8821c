"""Experiment orchestration: seeded drops, sweeps, and CSV emission.

Seeding discipline: drop d of a run with master seed s draws its scenario
from a child seed derived from (s, d), and each algorithm consumes a
separate stream derived from (child, algorithm code).  Two consequences
the tests rely on: different algorithms see identical channel drops
(paired comparisons), and sweeping a parameter reuses the same child seeds
at every sweep value (common random numbers).
"""

from __future__ import annotations

import dataclasses
import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .baselines import brute_force_global, brute_force_group, ngt_best_response
from .config import NetworkConfig, _integer, _typed
from .egt import new_games, run_algorithm1
from .linklevel import LinkContext, compute_link_metrics, ordered_sum, sample_link_context

__all__ = [
    "ALGORITHMS", "SWEEP_PARAMETERS", "ExperimentSpec", "SweepSpec", "RunRecord",
    "SweepRow", "jain_index", "child_seed", "scenario_rng", "algorithm_rng",
    "run_drops", "failure_counts", "sweep", "emit_results", "parse_results", "emit_sweep",
    "trace_path_for",
]

# stream separators so one child seed feeds independent per-algorithm draws
_ALGO_CODE = {"egt": 1, "ngt": 2, "brute-group": 3, "brute-global": 4}
ALGORITHMS = tuple(_ALGO_CODE)
SWEEP_PARAMETERS = ("noise_psd_dbm_per_hz", "n_users_per_cell", "n_small_cells")

_TRACE_HEADER = "drop,game,iteration,avg_payoff"


def jain_index(values) -> float:
    """Fairness of an allocation: (sum v)^2 / (n * sum v^2), in [1/n, 1].
    Both sums are `ordered_sum`s; np.sum adds 8 or more values in another order."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("jain index of an empty list is undefined")
    if not np.all((v >= 0) & (v < np.inf)):
        raise ValueError("jain index requires finite nonnegative values")
    values = v.tolist()
    # Python float products, bit for bit numpy's v * v, give inf without a warning
    squares = ordered_sum([x * x for x in values])
    # a subnormal square has lost bits, and the ratio can leave [1/n, 1]
    if squares < v.size * sys.float_info.min:
        if not any(values):
            raise ValueError("jain index of an all-zero list is undefined")
        # no value in the text, so the drops that fail this way count as one reason
        raise ValueError("jain index underflows: sum v^2 is below n * the smallest normal "
                         "float")
    denom = v.size * squares
    try:
        numerator = ordered_sum(values) ** 2
    except OverflowError:
        numerator = math.inf
    if math.isinf(numerator) or math.isinf(denom):
        # no value in the text either, as for the underflow above
        raise ValueError("jain index overflows: (sum v)^2 or n * sum v^2 is out of float range")
    return numerator / denom


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter and the values to visit, each as its field's type."""

    parameter: str
    values: tuple

    def __post_init__(self):
        if self.parameter not in SWEEP_PARAMETERS:
            raise ValueError(
                f"cannot sweep {self.parameter!r}; choose from {SWEEP_PARAMETERS}"
            )
        if not self.values:
            raise ValueError("sweep needs at least one value")
        object.__setattr__(self, "values", tuple(_typed(self.parameter, v) for v in self.values))


@dataclass
class ExperimentSpec:
    """Everything needed to run one batch of seeded drops."""

    config: NetworkConfig
    algorithm: str = "egt"
    n_drops: int = 1

    def __post_init__(self):
        _algorithm(self.algorithm)
        self.n_drops = _integer("n_drops", self.n_drops)
        if self.n_drops < 1:
            raise ValueError("n_drops must be >= 1")


def child_seed(rng_seed: int, drop: int) -> int:
    """Deterministic per-drop seed; the one stored in result rows."""
    ss = np.random.SeedSequence((rng_seed, drop))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def scenario_rng(seed: int) -> np.random.Generator:
    """Stream that samples the drop itself (topology, fading, channels)."""
    return np.random.default_rng(seed)


def algorithm_rng(seed: int, algorithm: str) -> np.random.Generator:
    """Algorithm-private stream, so shared drops stay shared across algorithms."""
    return np.random.default_rng((seed, _ALGO_CODE[algorithm]))


@dataclass
class RunRecord:
    """One drop's outcome, carrying enough context to serialize standalone."""

    drop: int
    seed: int
    algorithm: str
    n_small_cells: int
    n_subcarriers: int
    n_users: int
    noise_dbm: float
    network_ee: float
    cell_ee: list                     # index k = total EE of cell k
    jain: float
    iterations: int
    evaluations: int
    converged: bool
    traces: dict = field(default_factory=dict)   # subcarrier -> avg-payoff list
    error: str = None                 # set when the drop aborted


def _solve(context: LinkContext, rng: np.random.Generator, algorithm: str) -> tuple:
    """Run one algorithm on a drop: (profile, iterations, evaluations, converged, traces)."""
    if algorithm == "egt":
        r = run_algorithm1(new_games(context, rng), context, rng)
        return r.profile, r.iterations, r.evaluations, r.converged, r.traces
    if algorithm == "ngt":
        r = ngt_best_response(context, rng)
        return r.profile, r.rounds, r.evaluations, r.converged, {}
    if algorithm == "brute-global":
        r = brute_force_global(context)
        return r.profile, 0, r.evaluations, True, {}
    profile, evaluations = {}, 0
    for sc in context.topology.occupied_subcarriers():
        part = brute_force_group(sc, context)
        profile.update(part.profile)
        evaluations += part.evaluations
    return profile, 0, evaluations, True, {}


def _run_one(config: NetworkConfig, algorithm: str, seed: int) -> dict:
    """The outcome fields of one drop's RunRecord; raises if the drop fails."""
    context = sample_link_context(config, scenario_rng(seed))
    profile, iterations, evaluations, converged, traces = _solve(
        context, algorithm_rng(seed, algorithm), algorithm)
    metrics = compute_link_metrics(context, profile)
    cell_ee = metrics.cell_totals(config.n_cells)
    # an SINR can overflow (a subnormal noise power passes the config check);
    # such a drop is an error, not a row of inf and nan
    for name, value in [("network_ee", metrics.network_ee),
                        *((f"cell_ee_{k}", v) for k, v in enumerate(cell_ee))]:
        if not math.isfinite(value):
            raise ValueError(f"non-finite {name} = {value}")
    return dict(network_ee=metrics.network_ee, cell_ee=cell_ee, jain=jain_index(cell_ee),
                iterations=iterations, evaluations=evaluations, converged=converged,
                traces=traces)


def run_drops(spec: ExperimentSpec) -> list:
    """Run every drop of the spec; a failed drop yields a NaN record with its error."""
    config = spec.config
    nan = float("nan")
    records = []
    for drop in range(spec.n_drops):
        seed = child_seed(config.rng_seed, drop)
        try:
            outcome = _run_one(config, spec.algorithm, seed)
        except Exception as exc:  # noqa: BLE001 - error records, not batch aborts
            outcome = dict(network_ee=nan, cell_ee=[nan] * config.n_cells, jain=nan,
                           iterations=0, evaluations=0, converged=False, error=str(exc))
        records.append(RunRecord(
            drop=drop, seed=seed, algorithm=spec.algorithm,
            n_small_cells=config.n_small_cells, n_subcarriers=config.n_subcarriers,
            n_users=config.n_users_per_cell, noise_dbm=config.noise_psd_dbm_per_hz,
            **outcome,
        ))
    return records


def failure_counts(records: list) -> Counter:
    """Number of failed drops per distinct error text, in first-seen order."""
    return Counter(r.error for r in records if r.error is not None)


@dataclass
class SweepRow:
    """Aggregate over the drops that succeeded at one sweep value."""

    parameter: str
    value: float
    n_drops: int                      # drops that succeeded: the ones the means average
    mean_network_ee: float
    ee_ci95: float
    mean_jain: float
    jain_ci95: float
    failures: Counter = field(default_factory=Counter)   # not part of the sweep table


def _mean_ci(values: list) -> tuple:
    v = np.asarray(values, dtype=float)
    v = v[~np.isnan(v)]
    if v.size == 0:
        return float("nan"), float("nan")
    mean = float(np.mean(v))
    if v.size == 1:
        return mean, float("nan")
    half = 1.96 * float(np.std(v, ddof=1)) / math.sqrt(v.size)
    return mean, half


def sweep(spec: ExperimentSpec, grid: SweepSpec) -> list:
    """One SweepRow per value of `grid`, all values sharing child seeds.

    Every value's config is built before the first drop runs, so a value
    that breaks a config invariant fails the sweep up front.
    """
    configs = [dataclasses.replace(spec.config, **{grid.parameter: v}) for v in grid.values]
    rows = []
    for value, config in zip(grid.values, configs):
        records = run_drops(dataclasses.replace(spec, config=config))
        ee_mean, ee_ci = _mean_ci([r.network_ee for r in records])
        jain_mean, jain_ci = _mean_ci([r.jain for r in records])
        failures = failure_counts(records)
        rows.append(SweepRow(
            parameter=grid.parameter, value=float(value),
            n_drops=len(records) - sum(failures.values()), mean_network_ee=ee_mean,
            ee_ci95=ee_ci, mean_jain=jain_mean, jain_ci95=jain_ci, failures=failures,
        ))
    return rows


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _write_lines(path: Path, lines: list, what: str) -> None:
    try:
        path.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc}") from exc


def trace_path_for(path) -> Path:
    path = Path(path)
    return path.with_name(path.stem + "_trace" + (path.suffix or ".csv"))


def _flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


def _algorithm(text: str) -> str:
    if text not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {text!r}; choose from {ALGORITHMS}")
    return text


def _count(low: int):
    """Parser of an integer column whose values are at least `low`."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"expected an integer >= {low}, got {value}")
        return value
    return parse


def _float(valid, expected: str):
    """Parser of a float column whose values pass `valid`."""
    def parse(text: str) -> float:
        value = float(text)
        if not valid(value):
            raise ValueError(f"expected {expected}, got {text}")
        return value
    return parse


# an energy efficiency or a Jain index, or NaN from a failed drop; a Jain
# index has room for rounding above 1
_ee = _float(lambda v: math.isnan(v) or 0.0 <= v < math.inf, "NaN or a finite value >= 0")
_jain = _float(lambda v: math.isnan(v) or 0.0 < v <= 1.0 + 1e-12, "NaN or a value in (0, 1]")


# The results CSV's base columns in header order, each (header name,
# RunRecord field, text of a value, parser of a cell).  cell_ee_0..cell_ee_K
# follow them.
_COLUMNS = (
    ("seed", "seed", str, _count(0)),
    ("algorithm", "algorithm", str, _algorithm),
    ("K", "n_small_cells", str, _count(0)),
    ("N", "n_subcarriers", str, _count(1)),
    ("n_users", "n_users", str, _count(1)),
    ("noise_dbm", "noise_dbm", _fmt, _float(math.isfinite, "a finite number")),
    ("network_ee", "network_ee", _fmt, _ee),
    ("jain", "jain", _fmt, _jain),
    ("iterations", "iterations", str, _count(0)),
    ("evaluations", "evaluations", str, _count(0)),
    ("converged", "converged", lambda flag: "true" if flag else "false", _flag),
)


def emit_results(records: list, path) -> Path:
    """Write one CSV row per record plus a companion per-iteration trace file.

    Column layout is fixed: the `_COLUMNS`, then cell_ee_0..cell_ee_K.
    Returns the trace file's path.
    """
    path = Path(path)
    records = sorted(records, key=lambda r: (r.drop, r.algorithm))
    n_cells = records[0].n_small_cells + 1 if records else 0
    if any(r.n_small_cells + 1 != n_cells or len(r.cell_ee) != n_cells for r in records):
        raise ValueError("records in one table need one K and K + 1 cell_ee values each")
    lines = [",".join([name for name, *_ in _COLUMNS]
                      + [f"cell_ee_{k}" for k in range(n_cells)])]
    for r in records:
        lines.append(",".join([text(getattr(r, name)) for _, name, text, _ in _COLUMNS]
                              + [_fmt(v) for v in r.cell_ee]))
    _write_lines(path, lines, "results")

    trace_path = trace_path_for(path)
    trace_lines = [_TRACE_HEADER]
    for r in records:
        for sc in sorted(r.traces):
            for it, avg in enumerate(r.traces[sc], start=1):
                trace_lines.append(f"{r.drop},{sc},{it},{_fmt(avg)}")
    _write_lines(trace_path, trace_lines, "traces")
    return trace_path


def parse_results(path) -> list:
    """Read back a results CSV written by emit_results.

    The header must be the `_COLUMNS` then cell_ee_0..cell_ee_{n-1}, and
    each row's K + 1 must be that n.  Traces live in the companion file and
    are not reloaded.  The drop index is not part of the row schema: a
    record's `drop` is the number of earlier rows of its algorithm, which is
    the index `emit_results` sorted it by, so a parsed file, paired
    algorithms included, re-emits in its own row order.
    """
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty results file")
    header = lines[0].split(",")
    n_cells = len(header) - len(_COLUMNS)
    if header != [name for name, *_ in _COLUMNS] + [f"cell_ee_{k}" for k in range(n_cells)]:
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    column_of = {name: column for column, name, *_ in _COLUMNS}
    records = []
    rows_of = Counter()   # algorithm -> rows read so far
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, "
                             f"got {len(parts)}")

        def cell(k, parse):
            try:
                return parse(parts[k])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: column {header[k]}: {exc}") from None
        fields = {name: cell(k, parse) for k, (_, name, _, parse) in enumerate(_COLUMNS)}
        cell_ee = [cell(k, _ee) for k in range(len(_COLUMNS), len(parts))]
        if fields["n_small_cells"] + 1 != n_cells:
            raise ValueError(f"{path}:{lineno}: column {column_of['n_small_cells']}: K + 1 = "
                             f"{fields['n_small_cells'] + 1} cells, but the header has "
                             f"{n_cells} cell_ee columns")
        records.append(RunRecord(drop=rows_of[fields["algorithm"]], cell_ee=cell_ee, **fields))
        rows_of[fields["algorithm"]] += 1
    return records


def emit_sweep(rows: list, path) -> None:
    """Write the sweep summary table."""
    path = Path(path)
    lines = ["parameter,value,n_drops,mean_network_ee,ee_ci95,mean_jain,jain_ci95"]
    for r in rows:
        lines.append(
            f"{r.parameter},{_fmt(r.value)},{r.n_drops},{_fmt(r.mean_network_ee)},"
            f"{_fmt(r.ee_ci95)},{_fmt(r.mean_jain)},{_fmt(r.jain_ci95)}"
        )
    _write_lines(path, lines, "sweep table")
