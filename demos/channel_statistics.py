"""Sample one network drop and look at the raw channel quantities.

Prints the per-link geometry and large-scale gains, then verifies the
fast-fading statistics empirically: squared channel norms should average
to (antennas x large-scale gain), and the combiner should not change the
noise floor because it has unit norm.
"""

import numpy as np

from twotier_ee.config import NetworkConfig
from twotier_ee.linklevel import LinkContext, build_combiners, interference, sinr
from twotier_ee.topology import (large_scale_gain, sample_channels,
                                 sample_large_scale_fading, sample_topology)


def sample(config, rng):
    """One drop's topology, large-scale gains and channels, drawn from `rng`
    in the order `sample_link_context` draws them."""
    topology = sample_topology(config, rng)
    fading = sample_large_scale_fading(topology, config, rng)
    return topology, fading, sample_channels(topology, fading, config, rng)


config = NetworkConfig(n_small_cells=2, n_subcarriers=6, n_users_per_cell=4,
                       rng_seed=3)
topology, fading, channels = sample(config, np.random.default_rng(config.rng_seed))

print("link geometry and large-scale state (one drop, seed 3)")
print(f"{'cell':>4} {'sc':>3} {'dist_m':>8} {'beta':>10} {'norm2/ant':>10}")
for i, (cell, sc) in enumerate(topology.links()):   # i: the link's position
    user = np.asarray(topology.users[(cell, sc)])
    dist = float(np.hypot(*(user - topology.bs_positions[cell])))
    beta = fading[cell, i]
    g = channels.blocks[cell][i]
    per_antenna = float(np.linalg.norm(g) ** 2 / g.size)
    print(f"{cell:>4} {sc:>3} {dist:>8.1f} {beta:>10.3e} {per_antenna:>10.3e}")

# fast-fading moments over many redraws of a single fixed-gain link
rng = np.random.default_rng(99)
probe = NetworkConfig(n_small_cells=0, n_subcarriers=1, n_users_per_cell=1,
                      n_antennas_mbs=4096)
samples = []
for _ in range(200):
    _, probe_fading, probe_channels = sample(probe, rng)
    g = probe_channels.blocks[0][0]
    samples.append(float(np.linalg.norm(g) ** 2 / g.size / probe_fading[0, 0]))
mean = float(np.mean(samples))
print(f"\nE[|g|^2] / (antennas * beta) over 200 drops x 4096 antennas: "
      f"{mean:.4f} (expect 1)")

# distance law spot check, no shadowing
for d in (1.0, 10.0, 100.0, 1000.0):
    print(f"path gain at {d:>6.0f} m (unit shadowing): "
          f"{large_scale_gain(d, config, 1.0):.3e}")

# a unit-norm combiner leaves the effective noise at the thermal floor
ctx = LinkContext(config=config, topology=topology,
                  gains=build_combiners(topology, channels, config.noise_power))
link = topology.links()[0]
i = topology.position(link)
# every link at the lowest level, by link position: the interference link i sees
power = np.full(len(topology.links()), config.power_levels[0])
acc = float(interference(power, ctx.gains.idx, ctx.gains.gain)[i])
low = sinr(ctx, i, config.power_levels[0], acc)
high = sinr(ctx, i, config.power_levels[-1], acc)
print(f"\nSINR of link {link} at lowest/highest own power: "
      f"{10 * np.log10(low):.1f} / {10 * np.log10(high):.1f} dB")
