"""Network EE versus noise floor at two per-cell loads.

Every sweep value reuses the same drop seeds (common random numbers), so
the rows differ only through the noise PSD entering the SINR. EE falls as
the floor rises, and more users per cell raise the total at every point.
"""

import numpy as np

from twotier_ee.config import NetworkConfig
from twotier_ee.harness import ExperimentSpec, SweepSpec, sweep

NOISE_DBM = (-194.0, -184.0, -174.0)

rows = {}
for n_users in (2, 6):
    config = NetworkConfig(n_small_cells=2, n_subcarriers=12,
                           n_users_per_cell=n_users, rng_seed=0)
    spec = ExperimentSpec(config=config, algorithm="egt", n_drops=100)
    rows[n_users] = sweep(spec, SweepSpec("noise_psd_dbm_per_hz", NOISE_DBM))

print("mean network EE (bit/J) over 100 shared drops, 2 small cells, "
      "12 subcarriers\n")
print(f"{'noise dBm/Hz':>12} {'2 users/cell':>16} {'6 users/cell':>16}")
for i, noise in enumerate(NOISE_DBM):
    a, b = rows[2][i], rows[6][i]
    print(f"{noise:>12.0f} {a.mean_network_ee:>9.1f} ±{a.ee_ci95:<5.0f} "
          f"{b.mean_network_ee:>9.1f} ±{b.ee_ci95:<5.0f}")

drop2 = 100 * (1 - rows[2][-1].mean_network_ee / rows[2][0].mean_network_ee)
drop6 = 100 * (1 - rows[6][-1].mean_network_ee / rows[6][0].mean_network_ee)
print(f"\nEE loss across the 20 dB noise rise: {drop2:.1f}% at light load, "
      f"{drop6:.1f}% at full load")
print("(the fully loaded network is interference-dominated, so the same "
      "noise rise costs it relatively less)")

jain2 = np.array([r.mean_jain for r in rows[2]])
print(f"\nfairness barely moves with noise: jain at light load "
      f"{', '.join(f'{j:.3f}' for j in jain2)}")
