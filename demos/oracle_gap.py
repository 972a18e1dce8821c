"""How far from exhaustive-search optimal does the distributed game land?

Per subcarrier, the exhaustive search enumerates every joint power choice
of the co-channel cells, which upper-bounds anything a distributed scheme
can reach. The gap distribution quantifies the price of distributing the
decision; the evaluation counters show why exhaustive search cannot scale.
"""

import numpy as np

from twotier_ee.baselines import brute_force_group
from twotier_ee.config import NetworkConfig
from twotier_ee.egt import run_algorithm1
from twotier_ee.harness import algorithm_rng, child_seed, scenario_rng
from twotier_ee.linklevel import compute_link_metrics, sample_link_context


def levels(n):
    return tuple(10.0 ** (-3.0 + 2.0 * k / (n - 1)) for k in range(n))


config = NetworkConfig(n_small_cells=2, n_subcarriers=4, n_users_per_cell=4,
                       power_levels=levels(4))

gaps = []
egt_evals = []
oracle_evals = []
violations = 0
for s in range(20):
    seed = child_seed(0, s)
    ctx = sample_link_context(config, scenario_rng(seed))
    rng = algorithm_rng(seed, "egt")
    egt = run_algorithm1(ctx, rng)
    egt_evals.append(egt.evaluations)
    group_ee = compute_link_metrics(ctx, egt.profile).group_ee
    per_drop = 0
    for sc in ctx.topology.occupied_subcarriers():
        oracle = brute_force_group(sc, ctx)
        per_drop += oracle.evaluations
        achieved = group_ee[sc]
        if achieved > oracle.objective * (1 + 1e-12):
            violations += 1
        gaps.append((oracle.objective - achieved) / oracle.objective)
    oracle_evals.append(per_drop)

gaps = np.array(gaps)
print(f"20 drops, {gaps.size} subcarrier games, 3 players x 4 levels each\n")
print(f"optimality violations: {violations} (exhaustive search must dominate)")
print("relative gap to the per-group optimum:")
print(f"  mean {100 * gaps.mean():.1f}%   median {100 * np.median(gaps):.1f}%   "
      f"p90 {100 * np.percentile(gaps, 90):.1f}%   max {100 * gaps.max():.1f}%")
print(f"\npayoff evaluations per drop: evolutionary "
      f"{np.mean(egt_evals):.0f} on average, exhaustive {np.mean(oracle_evals):.0f}")
print("(the evolutionary count grows linearly with the network, the "
      "exhaustive one exponentially with players per subcarrier)")
