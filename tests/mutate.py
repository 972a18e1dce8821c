"""Mutation check of the tier-1 tests: which test class catches which fault.

    python tests/mutate.py [MUTANT ...]

Each entry of MUTANTS changes one line of `src/twotier_ee/`.  The runner
copies the tree into a temporary directory, runs tier-1 there once
unmutated and once per mutant (all of them, or the ones named), without the
test that checks this catalogue against the unmutated source, and prints
the kill matrix: for each mutant, the test classes that fail under it but
pass without it (a module-level test counts as its own class).  A run that
exceeds the time limit counts as killed, and its process group is ended.
At the end come each class's lone kills, the mutants no other class kills.
The exit status is 1 when a mutant survives that is not marked equivalent,
or a mutant marked equivalent is killed.  Standard library only; pytest
does not collect this file, and `tests/test_api.py` checks that every
entry's original line is still in its module.

One run of tier-1 takes about 35 s on a 2-core host, so the whole
catalogue takes about 40 minutes.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "twotier_ee"
# checks this catalogue against the unmutated source, so every mutant would fail it
CATALOGUE_TEST = "tests/test_api.py::test_mutant_applies_to_its_module"


class Mutant(NamedTuple):
    name: str
    module: str          # file name under src/twotier_ee/
    original: str        # text that occurs exactly once in the module
    mutant: str          # its replacement
    equivalent: str = None   # why no test can tell the mutant apart, if none can


MUTANTS = [
    # config
    Mutant("config-levels-may-repeat", "config.py",
           "if any(b <= a for a, b in zip(self.power_levels, self.power_levels[1:])):",
           "if any(b < a for a, b in zip(self.power_levels, self.power_levels[1:])):"),
    Mutant("config-bool-is-integer", "config.py",
           "if isinstance(value, bool) or not isinstance(value, numbers.Integral):",
           "if not isinstance(value, numbers.Integral):"),
    Mutant("config-integer-range-unchecked", "config.py",
           "_real(name, value)\n    return int(value)",
           "return int(value)"),
    Mutant("config-noise-exponent", "config.py",
           "return 10.0 ** ((self.noise_psd_dbm_per_hz - 30.0) / 10.0) * self.subcarrier_bandwidth_hz",
           "return 10.0 ** ((self.noise_psd_dbm_per_hz - 30.0) * 0.1) * self.subcarrier_bandwidth_hz"),
    Mutant("config-comment-kept", "config.py",
           'line = raw.split("#", 1)[0].strip()',
           "line = raw.strip()"),
    Mutant("config-duplicate-key", "config.py",
           "if key in values:",
           "if key in values and False:"),
    Mutant("config-total-power-at-lowest-level", "config.py",
           "if not math.isfinite(self.power_levels[-1] + self.circuit_power):",
           "if not math.isfinite(self.power_levels[0] + self.circuit_power):"),
    Mutant("config-count-accepts-zero", "harness.py",
           "if self.n_drops < 1:",
           "if self.n_drops < 0:"),
    Mutant("config-path-loss-reach", "config.py",
           "reach = 2.0 * self.macro_radius + self.small_radius",
           "reach = self.macro_radius + self.small_radius"),
    Mutant("config-default-circuit-power", "config.py",
           "circuit_power: float = 0.01 ",
           "circuit_power: float = 0.02 "),
    Mutant("config-format-str", "config.py",
           'lines.append(f"{f.name} = {value!r}")',
           'lines.append(f"{f.name} = {value}")',
           equivalent="every field is a Python int or float, whose str is its repr"),
    # topology
    Mutant("topology-spacing-radius", "topology.py",
           ">= 2.0 * config.small_radius).all():",
           ">= config.small_radius).all():"),
    Mutant("topology-links-cell-major", "topology.py",
           "self._links = sorted(sorted(self.users), key=itemgetter(1))",
           "self._links = sorted(self.users)"),
    Mutant("topology-unsorted-subcarriers", "topology.py",
           "for sc, (x, y) in zip(np.sort(subcarriers).tolist(), positions.tolist()):",
           "for sc, (x, y) in zip(subcarriers.tolist(), positions.tolist()):"),
    Mutant("topology-power-vectorised", "topology.py",
           "values = np.fromiter(map(pow, x, y), float, grid.size)",
           "values = np.power(np.array(base), exponent)"),
    Mutant("topology-norm-by-squares", "topology.py",
           "return np.sqrt(offset @ offset.swapaxes(-1, -2))[..., 0, 0]",
           "return np.sqrt(offset[..., 0, 0] * offset[..., 0, 0] "
           "+ offset[..., 0, 1] * offset[..., 0, 1])"),
    Mutant("topology-vector-path-loss", "topology.py",
           "path_loss = _power(np.maximum(distance, MIN_DISTANCE_M), config.path_loss_exponent)",
           "path_loss = np.maximum(distance, MIN_DISTANCE_M) ** config.path_loss_exponent"),
    Mutant("topology-no-distance-clamp", "topology.py",
           "path_loss = _power(np.maximum(distance, MIN_DISTANCE_M), config.path_loss_exponent)",
           "path_loss = _power(distance, config.path_loss_exponent)"),
    Mutant("topology-nan-distance-passes", "topology.py",
           "if not np.greater(distance, 0).all():",
           "if np.less_equal(distance, 0).any():"),
    Mutant("topology-shadow-underflow", "topology.py",
           "if (values == 0.0).any():",
           "if (values < 0.0).any():"),
    Mutant("topology-real-imag-swapped", "topology.py",
           "z = rng.standard_normal((len(h[rows]), 2, n_rx))",
           "z = rng.standard_normal((len(h[rows]), 2, n_rx))[:, ::-1]"),
    Mutant("topology-channel-variance-2", "topology.py",
           "scale = 1.0 / np.sqrt(2.0)",
           "scale = 1.0"),
    Mutant("topology-has-user-swapped", "topology.py",
           "return (cell, subcarrier) in self.users",
           "return (subcarrier, cell) in self.users"),
    Mutant("topology-g-view-copies", "topology.py",
           "for (cell, sc), row in zip(self.links, block)}",
           "for (cell, sc), row in zip(self.links, block.copy())}"),
    Mutant("topology-small-temporaries", "topology.py",
           "_TEMP_BYTES = 1 << 16",
           "_TEMP_BYTES = 1 << 12",
           equivalent="the draws and gathers come in shorter runs of the same stream and rows"),
    # linklevel
    Mutant("linklevel-norm-by-linalg", "linklevel.py",
           "norm = np.sqrt(np.vecdot(g.real, g.real) + np.vecdot(g.imag, g.imag))",
           "norm = np.linalg.norm(g, axis=-1)"),
    Mutant("linklevel-zero-row-in-stack", "linklevel.py",
           "if np.any(norm == 0):",
           "if np.all(norm == 0):"),
    Mutant("linklevel-inf-norm-passes", "linklevel.py",
           "if not np.isfinite(norm).all():",
           "if np.isnan(norm).any():"),
    Mutant("linklevel-nan-row-as-overflow", "linklevel.py",
           "if np.isnan(norm).any():",
           "if np.isnan(norm).all():"),
    Mutant("linklevel-divide-by-norm", "linklevel.py",
           "return g * (1.0 / norm)[..., None]",
           "return g / norm[..., None]",
           equivalent="numpy divides complex by real through the reciprocal, so only the "
                      "sign of a zero part can differ, and no |a^H g|^2 or norm sees it"),
    Mutant("linklevel-square-by-product", "linklevel.py",
           "gain=_power(gain, 2))",
           "gain=gain * gain)"),
    Mutant("linklevel-unit-noise-gain", "linklevel.py",
           "noise[own_rows] = np.vecdot(a, a).real * noise_power",
           "noise[own_rows] = noise_power"),
    Mutant("linklevel-slot-rank-inclusive", "linklevel.py",
           "idx = np.where(valid, first + slots + (slots >= position - first), position)",
           "idx = np.where(valid, first + slots + (slots > position - first), position)"),
    Mutant("linklevel-padding-gain-one", "linklevel.py",
           "gain = np.zeros(idx.shape)",
           "gain = np.ones(idx.shape)"),
    Mutant("linklevel-sinr-reversed-sum", "linklevel.py",
           "terms = power[..., idx] * gain",
           "terms = (power[..., idx] * gain)[..., ::-1]"),
    Mutant("linklevel-slots-reversed-after-first", "linklevel.py",
           "for k in range(1, gain.shape[1]):",
           "for k in reversed(range(1, gain.shape[1])):"),
    Mutant("linklevel-interference-skips-last", "linklevel.py",
           "for k in range(1, gain.shape[1]):",
           "for k in range(1, gain.shape[1] - 1):"),
    Mutant("linklevel-network-by-np-sum", "linklevel.py",
           "network_ee=ordered_sum(groups.values()))",
           "network_ee=float(np.sum(list(groups.values()))))"),
    Mutant("linklevel-extra-link-valid", "linklevel.py",
           "if profile.keys() != users:",
           "if not profile.keys() >= users:"),
    Mutant("linklevel-missing-unnamed", "linklevel.py",
           "missing = sorted(users - profile.keys())",
           "missing = []"),
    Mutant("linklevel-metrics-read-raw-power", "linklevel.py",
           "powers.append(value)",
           "powers.append(p)"),
    # egt
    Mutant("egt-tie-stays", "egt.py",
           "if v <= average] if pool else []",
           "if v < average] if pool else []"),
    Mutant("egt-average-over-players", "egt.py",
           "average = ordered_sum(payoffs.values()) / len(payoffs)",
           "average = ordered_sum(payoffs.values()) / len(game.strategy)",
           equivalent="payoffs holds one entry per player of the game"),
    Mutant("egt-pool-from-held-levels", "egt.py",
           "pool = [a for a in range(len(levels)) if a not in game.explored]",
           "pool = [a for a in range(len(levels)) if a not in game.strategy.values()]"),
    Mutant("egt-one-bound-per-round", "egt.py",
           "draws = rng.integers([len(pool) for _, _, pool in switches]).tolist()",
           "draws = rng.integers(len(switches[0][2]), size=len(switches)).tolist()"),
    Mutant("egt-extra-start-draw", "egt.py",
           "size=len(topology.users)).tolist())",
           "size=len(topology.users) + 1).tolist())"),
    Mutant("egt-rounds-one-short", "egt.py",
           "for _ in range(context.config.n_power_levels):",
           "for _ in range(context.config.n_power_levels - 1):"),
    Mutant("egt-step-converged-game", "egt.py",
           "if any(game.converged for game in games):",
           "if all(game.converged for game in games):"),
    Mutant("egt-shared-subcarrier", "egt.py",
           "if len({game.subcarrier for game in games}) != len(games):",
           "if len({game.subcarrier for game in games}) > len(games):"),
    # replicator
    Mutant("replicator-rhs-sign", "replicator.py",
           "return x * (pi - avg)",
           "return x * (avg - pi)"),
    Mutant("replicator-no-clip", "replicator.py",
           "x[x < 0] = 0.0",
           "x[x < -1.0] = 0.0"),
    Mutant("replicator-inf-dt", "replicator.py",
           "if not 0.0 < dt < np.inf:",
           "if not 0.0 < dt:"),
    Mutant("replicator-step-count-unchecked", "replicator.py",
           "if not (steps < np.inf and round(steps) >= 1):",
           "if not steps < np.inf:"),
    Mutant("replicator-stability-off-simplex", "replicator.py",
           "    _check_simplex(x_star)",
           "    _check_simplex(np.abs(x_star) / np.abs(x_star).sum())"),
    Mutant("replicator-nan-payoff", "replicator.py",
           "if pi.shape != x.shape or not np.isfinite(pi).all():",
           "if pi.shape != x.shape:"),
    Mutant("replicator-stable-at-zero", "replicator.py",
           "if np.all(real_parts < -1e-8):",
           "if np.all(real_parts <= 1e-8):"),
    Mutant("replicator-off-simplex-direction", "replicator.py",
           "tangent = np.linalg.svd(np.ones((1, n)))[2][1:].T",
           "tangent = np.linalg.svd(np.ones((1, n)))[2].T"),
    # baselines
    Mutant("baselines-first-max-ge", "baselines.py",
           "if values[i] > best_value:",
           "if values[i] >= best_value:"),
    Mutant("baselines-argmax-takes-nan", "baselines.py",
           "return np.argmax(np.fmax(values, -math.inf), axis=-1)",
           "return np.argmax(values, axis=-1)"),
    Mutant("baselines-group-guard-31", "baselines.py",
           "_GROUP_GUARD_BITS = 30",
           "_GROUP_GUARD_BITS = 31"),
    Mutant("baselines-guard-at-bound", "baselines.py",
           "if n_profiles > 2 ** bits:",
           "if n_profiles >= 2 ** bits:"),
    Mutant("baselines-chunk-4095", "baselines.py",
           "_CHUNK_PROFILES = 4096",
           "_CHUNK_PROFILES = 4095",
           equivalent="chunking bounds memory only: each chunk's values and pick are the same"),
    Mutant("baselines-chunk-offset", "baselines.py",
           "offset += len(values)",
           "offset += len(values) - 1"),
    Mutant("baselines-global-groups-reversed", "baselines.py",
           "for sc in context.topology.occupied_subcarriers()]",
           "for sc in reversed(context.topology.occupied_subcarriers())]"),
    Mutant("baselines-oracle-slots-unmapped", "baselines.py",
           "columns = np.searchsorted(rows, context.gains.idx[rows])",
           "columns = context.gains.idx[rows]"),
    Mutant("baselines-ngt-tie-to-highest", "baselines.py",
           "moved = level_array[_first_max_rows(ee)]",
           "moved = level_array[n_levels - 1 - _first_max_rows(ee[:, ::-1])]"),
    Mutant("baselines-ngt-subcarrier-major", "baselines.py",
           "links = sorted(context.topology.links())",
           "links = context.topology.links()"),
    Mutant("baselines-ngt-last-batch-decides", "baselines.py",
           "changed = changed or (moved != power[at]).any()",
           "changed = (moved != power[at]).any()"),
    Mutant("baselines-empty-group", "baselines.py",
           "if not players:",
           "if players is None:"),
    Mutant("baselines-zero-rounds", "baselines.py",
           "_MAX_ROUNDS = 64",
           "_MAX_ROUNDS = 0"),
    # harness
    Mutant("harness-jain-np-sum", "harness.py",
           "squares = ordered_sum([x * x for x in values])",
           "squares = float(np.sum(v * v))"),
    Mutant("harness-jain-zero-unchecked", "harness.py",
           "if not any(values):",
           "if not values:"),
    Mutant("harness-jain-underflow-at-zero", "harness.py",
           "if squares < v.size * sys.float_info.min:",
           "if squares == 0.0:"),
    Mutant("harness-ngt-stream", "harness.py",
           '"ngt": 2,',
           '"ngt": 5,'),
    Mutant("harness-parse-zero-n", "harness.py",
           '("N", "n_subcarriers", str, _count(1)),',
           '("N", "n_subcarriers", str, _count(0)),'),
    Mutant("harness-parse-jain-zero", "harness.py",
           "0.0 < v <= 1.0 + 1e-12",
           "0.0 <= v <= 1.0 + 1e-12"),
    Mutant("harness-rows-algorithm-major", "harness.py",
           "records = sorted(records, key=lambda r: (r.drop, r.algorithm))",
           "records = sorted(records, key=lambda r: (r.algorithm, r.drop))"),
    Mutant("harness-inf-metric-passes", "harness.py",
           "if not math.isfinite(value):",
           "if math.isnan(value):"),
    Mutant("harness-ci-ddof-0", "harness.py",
           "half = 1.96 * float(np.std(v, ddof=1)) / math.sqrt(v.size)",
           "half = 1.96 * float(np.std(v, ddof=0)) / math.sqrt(v.size)"),
    Mutant("harness-parsed-drop-skips", "harness.py",
           'rows_of[fields["algorithm"]] += 1',
           'rows_of[fields["algorithm"]] += 2'),
    # cli
    Mutant("cli-seed-zero-ignored", "cli.py",
           "if args.seed is not None:",
           "if args.seed:"),
    Mutant("cli-exit-needs-all", "cli.py",
           "return 0 if any(r.error is None for r in records) else 1",
           "return 0 if all(r.error is None for r in records) else 1"),
    Mutant("cli-wins-strict", "cli.py",
           "wins = sum(1 for a, b in pairs if a.jain >= b.jain)",
           "wins = sum(1 for a, b in pairs if a.jain > b.jain)"),
    Mutant("cli-dominance-strict", "cli.py",
           "dominated = sum(o.network_ee >= a.network_ee - 1e-12 * abs(o.network_ee)",
           "dominated = sum(o.network_ee > a.network_ee"),
    Mutant("cli-failures-on-stdout", "cli.py",
           'print(f"{label}: {count} drop(s) failed: {error}", file=sys.stderr)',
           'print(f"{label}: {count} drop(s) failed: {error}")'),
    Mutant("cli-sweep-values-unstripped", "cli.py",
           "values = [v for v in (s.strip() for s in args.values.split(\",\")) if v]",
           "values = args.values.split(\",\")"),
]


def class_of(testcase: ET.Element) -> str:
    """`file::Class` of a JUnit test case, or `file::function` for a module-level test."""
    parts = testcase.get("classname", "").split(".")
    name = testcase.get("name", "").partition("[")[0]
    if parts[-1].startswith("Test"):
        return f"{parts[-2]}.py::{parts[-1]}"
    return f"{parts[-1]}.py::{name}"


def copy_tree(dest: Path) -> Path:
    tree = dest / "tree"
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info"))
    return tree


def run_tier1(tree: Path, timeout: float):
    """The set of test classes with a failing test, or None if the run timed out."""
    report = tree / "junit.xml"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    with open(tree / "pytest.log", "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", f"--junitxml={report}",
             f"--deselect={CATALOGUE_TEST}"],
            cwd=tree, env=env, stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            return None
        finally:
            # the tests' own subprocesses (the demos, the CLI entry point) die with it
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    if not report.exists():
        return {"<no report: pytest could not start>"}
    return {class_of(case) for case in ET.parse(report).iter("testcase")
            if case.find("failure") is not None or case.find("error") is not None}


def apply(tree: Path, mutant: Mutant) -> None:
    path = tree / PACKAGE / mutant.module
    text = path.read_text()
    if text.count(mutant.original) != 1:
        raise SystemExit(f"{mutant.name}: the original text occurs "
                         f"{text.count(mutant.original)} times in {mutant.module}")
    path.write_text(text.replace(mutant.original, mutant.mutant))


def main(names: list) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not names or m.name in names]
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        start = time.perf_counter()
        baseline = run_tier1(copy_tree(Path(tmp) / "baseline"), timeout=1800)
        elapsed = time.perf_counter() - start
        if baseline is None:
            raise SystemExit("the unmutated tier-1 run timed out")
        print(f"unmutated: {elapsed:.0f} s, failing: {', '.join(sorted(baseline)) or 'none'}",
              flush=True)
        timeout = 3 * elapsed + 60
        kills = {}
        for n, mutant in enumerate(chosen, start=1):
            with tempfile.TemporaryDirectory(dir=tmp) as work:
                tree = copy_tree(Path(work))
                apply(tree, mutant)
                start = time.perf_counter()
                failing = run_tier1(tree, timeout)
            killers = ["<timeout>"] if failing is None else sorted(failing - baseline)
            kills[mutant.name] = killers
            verdict = f"killed by {len(killers)}: {' '.join(killers)}" if killers else (
                f"equivalent: {mutant.equivalent}" if mutant.equivalent else "SURVIVED")
            print(f"[{n}/{len(chosen)}] {mutant.name} ({time.perf_counter() - start:.0f} s) "
                  f"{verdict}", flush=True)

    lone = {}
    for name, killers in kills.items():
        if len(killers) == 1:
            lone.setdefault(killers[0], []).append(name)
    print("\nlone kills by test class:")
    for cls in sorted(lone):
        print(f"  {cls}: {' '.join(lone[cls])}")
    survivors = [m.name for m in chosen if not kills[m.name] and not m.equivalent]
    stale = [m.name for m in chosen if kills[m.name] and m.equivalent]
    print(f"\n{len(chosen)} mutants: {sum(map(bool, kills.values()))} killed, "
          f"{sum(1 for m in chosen if m.equivalent and not kills[m.name])} equivalent, "
          f"{len(survivors)} survived{': ' + ' '.join(survivors) if survivors else ''}")
    if stale:
        print(f"marked equivalent but killed: {' '.join(stale)}")
    return 1 if survivors or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
