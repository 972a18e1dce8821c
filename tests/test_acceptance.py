"""End-to-end acceptance checks.

Each test exercises one numbered claim about the package as a whole and
records a machine-greppable verdict line; the conftest hook echoes the
collected checklist in the terminal summary, so a plain
`pytest tests/test_acceptance.py` run ends with one PASS/FAIL line per
criterion. The claims are property-based (orderings, bounds, exact
identities), not absolute curve values.
"""

import time

import numpy as np

from twotier_ee.baselines import brute_force_global, brute_force_group
from twotier_ee.config import NetworkConfig
from twotier_ee.egt import run_algorithm1
from twotier_ee.harness import (
    ExperimentSpec, SweepSpec, algorithm_rng, child_seed, emit_results,
    emit_sweep, parse_results, run_drops, scenario_rng, sweep,
)
from twotier_ee.linklevel import compute_link_metrics, sample_link_context
from twotier_ee.replicator import (
    equilibrium_stability, integrate_replicator, replicator_rhs,
)


def levels(n: int) -> tuple:
    """n power levels log-spaced over 1 mW .. 100 mW."""
    return tuple(10.0 ** (-3.0 + 2.0 * k / (n - 1)) for k in range(n))


def test_criterion_1_global_objective_decomposes_per_subcarrier(verdict):
    # 100 two-cell instances, two subcarriers, two levels, full occupancy:
    # the joint exhaustive optimum must equal the sum of the per-subcarrier
    # optima to 1e-9 relative, in at most 10 seconds
    t0 = time.perf_counter()
    config = NetworkConfig(n_small_cells=1, n_subcarriers=2, n_users_per_cell=2,
                           power_levels=levels(2))
    worst = 0.0
    for s in range(100):
        ctx = sample_link_context(config, scenario_rng(child_seed(0, s)))
        top = brute_force_global(ctx)
        total = sum(brute_force_group(sc, ctx).objective
                    for sc in ctx.topology.occupied_subcarriers())
        worst = max(worst, abs(top.objective - total) / abs(total))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed <= 10.0
    verdict(1, ok, f"worst relative mismatch {worst:.2e} over 100 instances "
                   f"(limit 1e-09), {elapsed:.1f}s (limit 10s)")
    assert ok


def test_criterion_2_exhaustive_group_search_dominates_egt(verdict):
    # per-subcarrier exhaustive EE must be >= the evolutionary outcome on
    # every subcarrier of 100 instances; the mean gap is reported, not
    # thresholded, because only suboptimality itself is claimed
    t0 = time.perf_counter()
    config = NetworkConfig(n_small_cells=2, n_subcarriers=4, n_users_per_cell=4,
                           power_levels=levels(4))
    gaps = []
    dominated = True
    for s in range(100):
        seed = child_seed(0, s)
        ctx = sample_link_context(config, scenario_rng(seed))
        rng = algorithm_rng(seed, "egt")
        egt = run_algorithm1(ctx, rng)
        group_ee = compute_link_metrics(ctx, egt.profile).group_ee
        for sc in ctx.topology.occupied_subcarriers():
            cap = brute_force_group(sc, ctx).objective
            ach = group_ee[sc]
            if ach > cap * (1 + 1e-12):
                dominated = False
            gaps.append((cap - ach) / cap)
    elapsed = time.perf_counter() - t0
    ok = dominated and elapsed <= 60.0
    verdict(2, ok, f"dominance {'held' if dominated else 'VIOLATED'} on "
                   f"{len(gaps)} subcarrier games, mean relative gap "
                   f"{100 * np.mean(gaps):.1f}%, max {100 * np.max(gaps):.1f}%, "
                   f"{elapsed:.1f}s (limit 60s)")
    assert ok


def test_criterion_3_convergence_within_level_count(verdict):
    # reference configuration, 100 drops: every run must converge within
    # L = 8 iterations (hard bound) with median <= 10
    t0 = time.perf_counter()
    config = NetworkConfig(n_small_cells=2, n_subcarriers=6, n_users_per_cell=6,
                           rng_seed=0)
    records = run_drops(ExperimentSpec(config=config, algorithm="egt", n_drops=100))
    iters = [r.iterations for r in records]
    converged = sum(r.converged for r in records)
    median = float(np.median(iters))
    elapsed = time.perf_counter() - t0
    ok = (converged == 100 and max(iters) <= config.n_power_levels
          and median <= 10.0 and elapsed <= 120.0)
    verdict(3, ok, f"converged {converged}/100, max iterations {max(iters)} "
                   f"(hard bound {config.n_power_levels}), median {median:g} "
                   f"(limit 10), {elapsed:.1f}s (limit 120s)")
    assert ok


def test_criterion_4_fairness_paired_comparison(verdict):
    # paired drops, evolutionary vs best-response: the evolutionary Jain
    # index must win at least 80 of 100 drops and be greater in the mean
    # with one-sided 95% confidence; scipy is imported here so that, without
    # it, only this criterion fails and the other seven still collect and run
    from scipy import stats

    t0 = time.perf_counter()
    config = NetworkConfig(n_small_cells=2, n_subcarriers=6, n_users_per_cell=6,
                           rng_seed=0)
    rec_egt = run_drops(ExperimentSpec(config=config, algorithm="egt", n_drops=100))
    rec_ngt = run_drops(ExperimentSpec(config=config, algorithm="ngt", n_drops=100))
    assert [r.seed for r in rec_egt] == [r.seed for r in rec_ngt]
    j_egt = np.array([r.jain for r in rec_egt])
    j_ngt = np.array([r.jain for r in rec_ngt])
    wins = int(np.sum(j_egt >= j_ngt))
    test = stats.ttest_rel(j_egt, j_ngt, alternative="greater")
    elapsed = time.perf_counter() - t0
    ok = wins >= 80 and test.pvalue < 0.05 and elapsed <= 300.0
    verdict(4, ok, f"jain wins {wins}/100 (need >= 80), mean jain "
                   f"{j_egt.mean():.4f} vs {j_ngt.mean():.4f}, one-sided "
                   f"p={test.pvalue:.3g} (need < 0.05), {elapsed:.1f}s (limit 300s)")
    assert ok


def test_criterion_5_noise_and_load_trends(verdict):
    # shared-seed sweep over noise PSD {-194, -184, -174} dBm/Hz at two
    # per-cell loads: mean network EE strictly decreasing in noise at both
    # loads and strictly increasing in load at every noise point
    t0 = time.perf_counter()
    noise_values = (-194.0, -184.0, -174.0)
    means = {}
    for n_users in (2, 6):
        config = NetworkConfig(n_small_cells=2, n_subcarriers=12,
                               n_users_per_cell=n_users, rng_seed=0)
        spec = ExperimentSpec(config=config, algorithm="egt", n_drops=100)
        grid = SweepSpec("noise_psd_dbm_per_hz", noise_values)
        means[n_users] = [row.mean_network_ee for row in sweep(spec, grid)]
    decreasing = all(means[nu][0] > means[nu][1] > means[nu][2] for nu in (2, 6))
    load_gain = all(means[6][i] > means[2][i] for i in range(3))
    elapsed = time.perf_counter() - t0
    ok = decreasing and load_gain and elapsed <= 300.0
    fmt = {nu: "/".join(f"{v:.0f}" for v in means[nu]) for nu in (2, 6)}
    verdict(5, ok, f"mean EE across noise: {fmt[2]} (2 users/cell), "
                   f"{fmt[6]} (6 users/cell); decreasing={decreasing}, "
                   f"load gain at every point={load_gain}, "
                   f"{elapsed:.1f}s (limit 300s)")
    assert ok


def test_criterion_6_replicator_dynamics_properties(verdict):
    # (a) every integrated state stays on the simplex to 1e-9; (b) the
    # 2-strategy constant-payoff trajectory matches the logistic closed
    # form within 5*dt at dt=1e-3; (c) both monocultures classify correctly
    t0 = time.perf_counter()
    dt = 1e-3
    payoff = lambda x: np.array([2.0, 1.0])  # noqa: E731 - tiny fixed game
    logistic = integrate_replicator([0.5, 0.5], payoff, dt=dt, horizon=10.0)
    cyclic = integrate_replicator(
        [0.5, 0.3, 0.2],
        lambda x: np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0],
                            [-1.0, 1.0, 0.0]]) @ x,
        dt=1e-2, horizon=20.0)
    overshoot = integrate_replicator([0.9, 0.1], lambda x: np.array([10.0, 0.0]),
                                     dt=0.5, horizon=100.0)
    drift = max(float(np.max(np.abs(t.states.sum(axis=1) - 1.0)))
                for t in (logistic, cyclic, overshoot))
    err = float(np.max(np.abs(logistic.states[:, 0]
                              - 1.0 / (1.0 + np.exp(-logistic.times)))))
    verdicts = (equilibrium_stability([1.0, 0.0], payoff),
                equilibrium_stability([0.0, 1.0], payoff))
    elapsed = time.perf_counter() - t0
    ok = (drift <= 1e-9 and err <= 5 * dt
          and verdicts == ("stable", "unstable") and elapsed <= 10.0)
    verdict(6, ok, f"simplex drift {drift:.1e} (limit 1e-09), logistic error "
                   f"{err:.2e} (limit {5 * dt:g}), monocultures classified "
                   f"{verdicts[0]}/{verdicts[1]} (want stable/unstable), "
                   f"{elapsed:.1f}s (limit 10s)")
    assert ok


def test_criterion_7_evaluation_scaling(verdict):
    # mean evolutionary payoff-evaluation counts must fit an affine trend
    # within 5% across subcarrier counts {2,4,8} (2 small cells) and across
    # small-cell counts {1,2,4} (4 subcarriers); the exhaustive counter
    # must equal L^links exactly on guard-feasible full-occupancy sizes
    t0 = time.perf_counter()

    def mean_evals(k, n):
        config = NetworkConfig(n_small_cells=k, n_subcarriers=n,
                               n_users_per_cell=n, rng_seed=0)
        records = run_drops(ExperimentSpec(config=config, algorithm="egt",
                                           n_drops=30))
        return float(np.mean([r.evaluations for r in records]))

    def fit_residual(xs, ys):
        pred = np.polyval(np.polyfit(xs, ys, 1), xs)
        return float(np.max(np.abs(pred - np.asarray(ys)) / np.asarray(ys)))

    ns = (2, 4, 8)
    ks = (1, 2, 4)
    evals_n = [mean_evals(2, n) for n in ns]
    resid_n = fit_residual(ns, evals_n)
    evals_k = [mean_evals(k, 4) for k in ks]  # n_users pinned by n_subcarriers
    resid_k = fit_residual(ks, evals_k)

    counter_exact = True
    for k, n, n_levels in [(1, 2, 2), (1, 2, 4), (2, 2, 4), (3, 1, 8)]:
        config = NetworkConfig(n_small_cells=k, n_subcarriers=n,
                               n_users_per_cell=n, power_levels=levels(n_levels))
        ctx = sample_link_context(config, scenario_rng(child_seed(0, 0)))
        res = brute_force_global(ctx)
        if res.evaluations != n_levels ** ((k + 1) * n):
            counter_exact = False
    elapsed = time.perf_counter() - t0
    ok = (resid_n <= 0.05 and resid_k <= 0.05 and counter_exact
          and elapsed <= 30.0)
    verdict(7, ok, f"affine-fit residuals: {100 * resid_n:.1f}% over "
                   f"subcarriers, {100 * resid_k:.1f}% over cells (limit 5%); "
                   f"exhaustive counter exact={counter_exact}, "
                   f"{elapsed:.1f}s (limit 30s)")
    assert ok


def test_criterion_8_deterministic_csv_schema(verdict, tmp_path):
    # a fixed-seed spec rerun must reproduce result and trace CSVs byte for
    # byte, and parsing plus re-emission must also be byte-identical
    t0 = time.perf_counter()
    config = NetworkConfig(n_small_cells=2, n_subcarriers=3, n_users_per_cell=2,
                           rng_seed=11)
    spec = ExperimentSpec(config=config, algorithm="egt", n_drops=5)
    paths = {}
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.csv"
        trace = emit_results(run_drops(spec), out)
        paths[tag] = (out.read_bytes(), trace.read_bytes())
    rerun_identical = paths["a"] == paths["b"]

    out = tmp_path / "a.csv"
    reemitted = tmp_path / "re.csv"
    emit_results(parse_results(out), reemitted)
    round_trip = out.read_bytes() == reemitted.read_bytes()

    sweep_spec = ExperimentSpec(config=config, algorithm="egt", n_drops=3)
    grid = SweepSpec("n_users_per_cell", (1, 2))
    sweep_bytes = []
    for tag in ("sa", "sb"):
        p = tmp_path / f"{tag}.csv"
        emit_sweep(sweep(sweep_spec, grid), p)
        sweep_bytes.append(p.read_bytes())
    sweep_identical = sweep_bytes[0] == sweep_bytes[1]
    elapsed = time.perf_counter() - t0
    ok = rerun_identical and round_trip and sweep_identical
    verdict(8, ok, f"fixed-seed rerun byte-identical={rerun_identical}, "
                   f"parse/re-emit byte-identical={round_trip}, sweep table "
                   f"byte-identical={sweep_identical}, {elapsed:.1f}s")
    assert ok


def test_replicator_rhs_is_share_weighted_growth():
    # companion sanity for the checklist above: the flow is exactly
    # x * (payoff - average), so equal payoffs freeze any state
    rhs = replicator_rhs([0.25, 0.75], [3.0, 3.0])
    assert np.all(rhs == 0.0)
