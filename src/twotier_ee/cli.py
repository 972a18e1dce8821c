"""Command-line front end for seeded experiments.

Four subcommands: `simulate` runs one algorithm over seeded drops, `sweep`
varies one parameter with shared drop seeds, `compare` pairs the
evolutionary and best-response algorithms on identical drops, and `oracle`
reports the gap to the per-group exhaustive optimum.  All randomness flows
from the config's rng_seed (or --seed), so every invocation is exactly
reproducible.  A run exits 1 when no drop succeeded (for `compare` and
`oracle`, no paired drop).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .config import load_config
from .harness import (
    ALGORITHMS, SWEEP_PARAMETERS, ExperimentSpec, SweepSpec,
    emit_results, emit_sweep, failure_counts, run_drops, sweep,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, metavar="PATH",
                        help="scenario config file (key = value lines)")
    common.add_argument("--seed", type=int, default=None, metavar="U64",
                        help="override the config's rng_seed")
    common.add_argument("--drops", type=int, default=1, metavar="N",
                        help="number of Monte-Carlo drops (default 1)")
    common.add_argument("--out", default=None, metavar="PATH",
                        help="write per-drop results CSV here")

    parser = argparse.ArgumentParser(
        prog="twotier-ee",
        description="Energy-efficiency power control experiments for a "
                    "two-tier uplink network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="run one algorithm over seeded drops")
    p_sim.add_argument("--algorithm", choices=ALGORITHMS, default="egt",
                       help="power-control algorithm (default egt)")

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="vary one parameter with shared drop seeds")
    p_sweep.add_argument("--algorithm", choices=ALGORITHMS, default="egt",
                         help="power-control algorithm (default egt)")
    p_sweep.add_argument("--param", required=True, choices=SWEEP_PARAMETERS,
                         help="parameter to sweep")
    p_sweep.add_argument("--values", required=True, metavar="V1,V2,...",
                         help="comma-separated sweep values")

    sub.add_parser("compare", parents=[common],
                   help="evolutionary vs best-response on identical drops")
    sub.add_parser("oracle", parents=[common],
                   help="report the gap to the per-group exhaustive optimum")
    return parser


def _load_spec(args, algorithm: str) -> ExperimentSpec:
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, rng_seed=args.seed)
    return ExperimentSpec(config=config, algorithm=algorithm, n_drops=args.drops)


def _summarize(records: list) -> str:
    ok = [r for r in records if r.error is None]
    failed = len(records) - len(ok)
    if not ok:
        return f"all {len(records)} drops failed"
    ee = np.mean([r.network_ee for r in ok])
    jain = np.mean([r.jain for r in ok])
    med_it = np.median([r.iterations for r in ok])
    conv = sum(r.converged for r in ok)
    line = (f"drops={len(ok)} mean_network_ee={ee:.6g} mean_jain={jain:.4f} "
            f"median_iterations={med_it:g} converged={conv}/{len(ok)}")
    if failed:
        line += f" failed_drops={failed}"
    return line


def _report_failures(label: str, failures: dict) -> None:
    """Each distinct reason a drop failed, with its drop count, on stderr."""
    for error, count in failures.items():
        print(f"{label}: {count} drop(s) failed: {error}", file=sys.stderr)


def _emit(records: list, out: str) -> None:
    if out is None:
        return
    print(f"wrote {out} and {emit_results(records, out)}")


def _cmd_simulate(args) -> int:
    spec = _load_spec(args, args.algorithm)
    records = run_drops(spec)
    print(f"{spec.algorithm}: {_summarize(records)}")
    _report_failures(spec.algorithm, failure_counts(records))
    _emit(records, args.out)
    return 0 if any(r.error is None for r in records) else 1


def _cmd_sweep(args) -> int:
    spec = _load_spec(args, args.algorithm)
    values = [v for v in (s.strip() for s in args.values.split(",")) if v]
    rows = sweep(spec, SweepSpec(parameter=args.param, values=tuple(values)))
    for row in rows:
        print(f"{row.parameter}={row.value:g}: mean_network_ee={row.mean_network_ee:.6g} "
              f"(±{row.ee_ci95:.3g}) mean_jain={row.mean_jain:.4f} "
              f"(±{row.jain_ci95:.3g}) drops={row.n_drops}")
        _report_failures(f"{row.parameter}={row.value:g}", row.failures)
    if args.out is not None:
        emit_sweep(rows, args.out)
        print(f"wrote {args.out}")
    return 0 if any(row.n_drops for row in rows) else 1


def _run_paired(args, other: str) -> tuple:
    """egt and `other` records of the same seeded drops, and the pairs where both succeeded."""
    spec = _load_spec(args, "egt")
    rec_egt = run_drops(spec)
    rec_other = run_drops(dataclasses.replace(spec, algorithm=other))
    _report_failures("egt", failure_counts(rec_egt))
    _report_failures(other, failure_counts(rec_other))
    pairs = [(a, b) for a, b in zip(rec_egt, rec_other)
             if a.error is None and b.error is None]
    return rec_egt, rec_other, pairs


def _cmd_compare(args) -> int:
    rec_egt, rec_ngt, pairs = _run_paired(args, "ngt")
    print(f"egt: {_summarize(rec_egt)}")
    print(f"ngt: {_summarize(rec_ngt)}")
    if pairs:
        wins = sum(1 for a, b in pairs if a.jain >= b.jain)
        print(f"fairness: jain(egt) >= jain(ngt) in {wins}/{len(pairs)} paired drops")
    _emit(rec_egt + rec_ngt, args.out)
    return 0 if pairs else 1


def _cmd_oracle(args) -> int:
    rec_egt, rec_orc, pairs = _run_paired(args, "brute-group")
    if pairs:
        gaps = [(o.network_ee - a.network_ee) / o.network_ee for a, o in pairs]
        dominated = sum(o.network_ee >= a.network_ee - 1e-12 * abs(o.network_ee)
                        for a, o in pairs)
        print(f"per-group optimum vs egt over {len(gaps)} drops: "
              f"mean relative gap {100 * float(np.mean(gaps)):.3f}%, "
              f"max {100 * float(np.max(gaps)):.3f}%, "
              f"dominance held in {dominated}/{len(gaps)}")
    else:
        print("no successful paired drops")
    _emit(rec_egt + rec_orc, args.out)
    return 0 if pairs else 1


_COMMANDS = {
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary: diagnostic + exit code
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
