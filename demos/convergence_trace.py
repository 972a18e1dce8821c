"""Watch the per-subcarrier games converge on a single drop.

Every occupied subcarrier hosts one game among its co-channel cells. The
average payoff of each game is printed per iteration; a dash means the
game had already frozen. Convergence is guaranteed within L iterations
because switching players draw from the strategies nobody in the game has
tried yet.
"""

import numpy as np

from twotier_ee.config import NetworkConfig
from twotier_ee.egt import run_algorithm1
from twotier_ee.linklevel import compute_link_metrics, sample_link_context


def main():
    config = NetworkConfig(n_small_cells=2, n_subcarriers=6,
                           n_users_per_cell=6, rng_seed=0)
    ctx = sample_link_context(config, np.random.default_rng(config.rng_seed))
    rng = np.random.default_rng(1)
    result = run_algorithm1(ctx, rng)

    print(f"one drop, {len(result.traces)} parallel games, L = {config.n_power_levels} "
          f"levels, converged in {result.iterations} iterations\n")
    header = "iter  " + "".join(f"game{sc:<2}{'':6}" for sc in sorted(result.traces))
    print(header)
    for it in range(result.iterations):
        cells = []
        for sc in sorted(result.traces):
            trace = result.traces[sc]
            cells.append(f"{trace[it]:>10.1f}" if it < len(trace) else f"{'-':>10}")
        print(f"{it + 1:>4}  " + "  ".join(cells))

    metrics = compute_link_metrics(ctx, result.profile)
    print(f"\nfinal network EE: {metrics.network_ee:.1f} bit/J across "
          f"{len(result.profile)} links, {result.evaluations} payoff evaluations")
    counts = {}
    for p in result.profile.values():
        counts[p] = counts.get(p, 0) + 1
    print("final power histogram (W -> links):",
          {f"{p:.4g}": c for p, c in sorted(counts.items())})


if __name__ == "__main__":
    main()
