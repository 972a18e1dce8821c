"""Sample one network drop and look at the raw channel quantities.

Prints the per-link geometry and large-scale gains, then verifies the
fast-fading statistics empirically: squared channel norms should average
to (antennas x large-scale gain), and the combiner should not change the
noise floor because it has unit norm.
"""

import numpy as np

from twotier_ee.config import NetworkConfig
from twotier_ee.linklevel import sample_link_context, sinr
from twotier_ee.topology import large_scale_gain

config = NetworkConfig(n_small_cells=2, n_subcarriers=6, n_users_per_cell=4,
                       rng_seed=3)
ctx = sample_link_context(config, np.random.default_rng(config.rng_seed))

print("link geometry and large-scale state (one drop, seed 3)")
print(f"{'cell':>4} {'sc':>3} {'dist_m':>8} {'beta':>10} {'norm2/ant':>10}")
for i, (cell, sc) in enumerate(ctx.topology.links()):   # i: the link's position
    user = np.asarray(ctx.topology.users[(cell, sc)])
    dist = float(np.hypot(*(user - ctx.topology.bs_positions[cell])))
    beta = ctx.fading.gain[cell, i]
    g = ctx.channels.blocks[cell][i]
    per_antenna = float(np.linalg.norm(g) ** 2 / g.size)
    print(f"{cell:>4} {sc:>3} {dist:>8.1f} {beta:>10.3e} {per_antenna:>10.3e}")

# fast-fading moments over many redraws of a single fixed-gain link
rng = np.random.default_rng(99)
probe = NetworkConfig(n_small_cells=0, n_subcarriers=1, n_users_per_cell=1,
                      n_antennas_mbs=4096)
samples = []
for _ in range(200):
    c = sample_link_context(probe, rng)
    g = c.channels.blocks[0][0]
    samples.append(float(np.linalg.norm(g) ** 2 / g.size / c.fading.gain[0, 0]))
mean = float(np.mean(samples))
print(f"\nE[|g|^2] / (antennas * beta) over 200 drops x 4096 antennas: "
      f"{mean:.4f} (expect 1)")

# distance law spot check, no shadowing
for d in (1.0, 10.0, 100.0, 1000.0):
    print(f"path gain at {d:>6.0f} m (unit shadowing): "
          f"{large_scale_gain(d, config, 1.0):.3e}")

# a unit-norm combiner leaves the effective noise at the thermal floor
link = ctx.topology.links()[0]
i = ctx.topology.position(link)
powers = [config.power_levels[0]] * len(ctx.topology.links())   # by link position
low = sinr(ctx, powers, i)
powers[i] = config.power_levels[-1]
high = sinr(ctx, powers, i)
print(f"\nSINR of link {link} at lowest/highest own power: "
      f"{10 * np.log10(low):.1f} / {10 * np.log10(high):.1f} dB")
