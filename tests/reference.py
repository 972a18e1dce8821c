"""A frozen scalar walk of one drop: the reference of every bit-exact test.

It goes one user, link, channel vector and power profile at a time, in the
order the package must reproduce, and reads only the config's fields, numpy
and the standard library: it never imports `twotier_ee` (`tests/test_api.py`
checks), so it stays an independent oracle.  Per-drop quantities are keyed
(receiver cell, tx cell, subcarrier), a link is a (cell, subcarrier) pair,
links run by (subcarrier, cell), and every sum runs left to right from 0.0.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

# BS-user distances are clamped below this
MIN_DISTANCE_M = 1.0
# the per-algorithm stream codes of the harness
ALGORITHM_CODES = {"egt": 1, "ngt": 2, "brute-group": 3, "brute-global": 4}


def links_of(users) -> list:
    """The (cell, subcarrier) links of `users`, by (subcarrier, cell)."""
    return sorted(users, key=lambda link: (link[1], link[0]))


def cells_on(users, subcarrier) -> tuple:
    """The cells with a user on `subcarrier`, ascending: its co-channel group."""
    return tuple(sorted(cell for cell, sc in users if sc == subcarrier))


# Sampling: the topology, then the fading, then the channels, on one generator.

def point_in_disc(center, radius, rng):
    r = radius * np.sqrt(rng.uniform())
    theta = rng.uniform(0.0, 2.0 * np.pi)
    return np.asarray(center, dtype=float) + r * np.array([np.cos(theta), np.sin(theta)])


def sample_topology(config, rng) -> tuple:
    """(BS positions, users): SBS centres drawn until they sit 2 radii apart, then
    per cell its subcarriers and, subcarriers ascending, one user each."""
    mbs = np.zeros(2)
    sbs = []
    while len(sbs) < config.n_small_cells:
        candidate = point_in_disc(mbs, config.macro_radius, rng)
        if all(np.linalg.norm(candidate - p) >= 2.0 * config.small_radius for p in sbs):
            sbs.append(candidate)
    bs_positions = np.array([mbs, *sbs])
    users = {}
    for cell, center in enumerate(bs_positions):
        radius = config.macro_radius if cell == 0 else config.small_radius
        subcarriers = rng.choice(config.n_subcarriers, size=config.n_users_per_cell, replace=False)
        for sc in np.sort(subcarriers):
            x, y = point_in_disc(center, radius, rng)
            users[(cell, int(sc))] = (x, y)
    return bs_positions, users


def sample_fading(config, bs_positions, users, rng) -> tuple:
    """(beta, shadow): one log-normal shadowing draw per receiver and link."""
    beta, shadow = {}, {}
    for receiver, rx_position in enumerate(bs_positions):
        for cell, sc in links_of(users):
            distance = float(np.linalg.norm(rx_position - np.asarray(users[(cell, sc)])))
            varsigma = float(10.0 ** (rng.normal(0.0, config.shadowing_std_db) / 10.0))
            d = max(distance, MIN_DISTANCE_M)
            shadow[(receiver, cell, sc)] = varsigma
            beta[(receiver, cell, sc)] = \
                config.antenna_constant * varsigma / d ** config.path_loss_exponent
    return beta, shadow


def sample_channels(config, users, beta, rng) -> dict:
    """g = sqrt(beta) * h, h ~ CN(0, I): one vector per receiver and link."""
    g = {}
    for receiver in range(config.n_small_cells + 1):
        n_rx = config.n_antennas_mbs if receiver == 0 else config.n_antennas_sbs
        for cell, sc in links_of(users):
            h = (rng.standard_normal(n_rx) + 1j * rng.standard_normal(n_rx)) / np.sqrt(2.0)
            g[(receiver, cell, sc)] = np.sqrt(beta[(receiver, cell, sc)]) * h
    return g


def noise_power(config) -> float:
    """Per-subcarrier noise power in watts."""
    return 10.0 ** ((config.noise_psd_dbm_per_hz - 30.0) / 10.0) * config.subcarrier_bandwidth_hz


def gain_table(users, g, noise) -> dict:
    """link -> (own, ((other cell, gain), ...), noise after combining) for the MRC
    combiner a = g / ||g|| of each link's own channel: own = |a^H g_own|^2, one
    gain |a^H g_other|^2 per co-channel cell ascending, and ||a||^2 * noise.
    Every product is a numpy-scalar `np.vdot`."""
    gains = {}
    for cell, sc in links_of(users):
        g_own = g[(cell, cell, sc)]
        a = g_own / np.linalg.norm(g_own)
        interferers = tuple((other, np.abs(np.vdot(a, g[(cell, other, sc)])) ** 2)
                            for other in cells_on(users, sc) if other != cell)
        gains[(cell, sc)] = (np.abs(np.vdot(a, g_own)) ** 2, interferers,
                             float(np.vdot(a, a).real) * noise)
    return gains


@dataclass
class Drop:
    """One sampled drop: its geometry, fading, channels and gain table."""

    config: object
    bs_positions: np.ndarray
    users: dict          # link -> the user's (x, y)
    beta: dict           # (receiver, cell, subcarrier) -> large-scale gain
    shadow: dict         # (receiver, cell, subcarrier) -> shadowing value
    g: dict              # (receiver, cell, subcarrier) -> channel vector
    gains: dict          # link -> gain_table entry

    @property
    def links(self) -> list:
        return links_of(self.users)

    @property
    def occupied_subcarriers(self) -> list:
        return sorted({sc for _, sc in self.users})

    def cells_on(self, subcarrier) -> tuple:
        return cells_on(self.users, subcarrier)


def sample_drop(config, rng) -> Drop:
    bs_positions, users = sample_topology(config, rng)
    beta, shadow = sample_fading(config, bs_positions, users, rng)
    g = sample_channels(config, users, beta, rng)
    return Drop(config, bs_positions, users, beta, shadow, g,
                gain_table(users, g, noise_power(config)))


# Evaluation of a power profile: a dict from link to watts.

def interference(drop, profile, link) -> float:
    """Each co-channel interferer's power times its gain, cells ascending."""
    total = 0.0
    for other, gain in drop.gains[link][1]:
        total += profile[(other, link[1])] * gain
    return float(total)


def sinr(drop, profile, link) -> float:
    own, _, noise = drop.gains[link]
    return float(profile[link] * own / (interference(drop, profile, link) + noise))


def user_ee(drop, profile, link) -> float:
    """A link's rate over its transmit plus circuit power, bit/s/Hz/W."""
    rate = float(np.log2(1.0 + sinr(drop, profile, link)))
    return rate / (profile[link] + drop.config.circuit_power)


def left_sum(values) -> float:
    total = 0.0
    for value in values:
        total += value
    return total


def group_ee(drop, profile, subcarrier) -> float:
    return left_sum(user_ee(drop, profile, (cell, subcarrier))
                    for cell in drop.cells_on(subcarrier))


def network_ee(drop, profile) -> float:
    return left_sum(group_ee(drop, profile, sc) for sc in drop.occupied_subcarriers)


def cell_ee(drop, profile) -> list:
    """Each cell's summed EE, its links subcarriers ascending."""
    return [left_sum(user_ee(drop, profile, link) for link in drop.links if link[0] == cell)
            for cell in range(drop.config.n_small_cells + 1)]


def jain(values) -> float:
    """(sum v)^2 / (n * sum v^2), both sums left to right at every length
    (np.sum adds 8 or more values in another order)."""
    return left_sum(values) ** 2 / (len(values) * left_sum(v * v for v in values))


# Searches.

def first_max(values) -> tuple:
    """(index, value) of the first strict maximum: a `>` scan from -inf, so the
    earliest of equal maxima wins, NaN never does, and (None, -inf) means that
    no value exceeds -inf."""
    best_index, best_value = None, -math.inf
    for i, value in enumerate(values):
        if value > best_value:
            best_index, best_value = i, value
    return best_index, best_value


def exhaustive(drop, links, objective) -> tuple:
    """(profile, objective, count) of the first maximizer over every joint level
    choice of `links`, in lexicographic order."""
    profiles = [dict(zip(links, powers))
                for powers in itertools.product(drop.config.power_levels, repeat=len(links))]
    best, value = first_max([objective(profile) for profile in profiles])
    return (None if best is None else profiles[best]), value, len(profiles)


def group_oracle(drop, subcarrier) -> tuple:
    links = [(cell, subcarrier) for cell in drop.cells_on(subcarrier)]
    return exhaustive(drop, links, lambda profile: group_ee(drop, profile, subcarrier))


def global_oracle(drop) -> tuple:
    return exhaustive(drop, drop.links, lambda profile: network_ee(drop, profile))


# Algorithms.

@dataclass
class Outcome:
    """What an algorithm leaves for the record."""

    profile: dict        # link -> power, in the order the algorithm keys it
    iterations: int      # EGT rounds, ngt passes that moved someone, 0 for a search
    evaluations: int
    converged: bool
    traces: dict = field(default_factory=dict)   # subcarrier -> EGT average payoffs


def ngt(drop, rng, max_rounds=64) -> Outcome:
    """Best responses link by link, cell-major, from one level drawn per link;
    stops after the first pass in which nobody moved."""
    levels = drop.config.power_levels
    links = sorted(drop.links)
    profile = {link: levels[int(rng.integers(len(levels)))] for link in links}
    rounds = evaluations = 0
    converged = False
    for _ in range(max_rounds):
        changed = False
        for link in links:
            held = profile[link]
            values = []
            for p in levels:
                profile[link] = p
                values.append(user_ee(drop, profile, link))
            best, _ = first_max(values)
            profile[link] = levels[best or 0]   # nothing above -inf picks level 0
            evaluations += len(levels)
            changed = changed or profile[link] != held
        if not changed:
            converged = True
            break
        rounds += 1
    return Outcome(profile, rounds, evaluations, converged)


@dataclass
class Game:
    """One subcarrier's game; `egt_step` returns a stepped copy."""

    subcarrier: int
    players: tuple
    strategy: dict       # cell -> level index
    tried: dict          # cell -> the level indices that cell has held
    converged: bool = False

    def explored(self) -> set:
        return set().union(*self.tried.values())


def new_games(drop, rng) -> list:
    """A game per occupied subcarrier, one level drawn per player in order."""
    n_levels = len(drop.config.power_levels)
    games = []
    for sc in drop.occupied_subcarriers:
        players = drop.cells_on(sc)
        strategy = {cell: int(rng.integers(n_levels)) for cell in players}
        games.append(Game(sc, players, strategy, {cell: {strategy[cell]} for cell in players}))
    return games


def egt_step(game, drop, rng) -> tuple:
    """(the stepped copy of `game`, payoffs by cell, their average).

    Every player at or below the average draws a level from the levels no
    player has tried at the round's start; a round without a switch
    converges the game.
    """
    levels = drop.config.power_levels
    sc = game.subcarrier
    profile = {(cell, sc): levels[game.strategy[cell]] for cell in game.players}
    payoffs = {cell: user_ee(drop, profile, (cell, sc)) for cell in game.players}
    average = left_sum(payoffs.values()) / len(payoffs)
    explored = game.explored()
    pool = [a for a in range(len(levels)) if a not in explored]
    state = Game(sc, game.players, dict(game.strategy),
                 {cell: set(tried) for cell, tried in game.tried.items()})
    changed = False
    for cell in state.players:
        if payoffs[cell] <= average and pool:
            choice = pool[int(rng.integers(len(pool)))]
            state.strategy[cell] = choice
            state.tried[cell].add(choice)
            changed = True
    state.converged = not changed
    return state, payoffs, average


def run_egt(drop, rng, max_iterations=64) -> tuple:
    """(Outcome, final games): rounds of every unconverged game, subcarriers
    ascending, until all converge or `max_iterations` rounds have run."""
    games = new_games(drop, rng)
    traces = {game.subcarrier: [] for game in games}
    iterations = evaluations = 0
    for _ in range(max_iterations):
        active = [i for i, game in enumerate(games) if not game.converged]
        if not active:
            break
        iterations += 1
        for i in active:
            games[i], payoffs, average = egt_step(games[i], drop, rng)
            evaluations += len(payoffs)
            traces[games[i].subcarrier].append(average)
    levels = drop.config.power_levels
    profile = {(cell, game.subcarrier): levels[game.strategy[cell]]
               for game in games for cell in game.players}
    converged = all(game.converged for game in games)
    return Outcome(profile, iterations, evaluations, converged, traces), games


def run_drop(config, algorithm, drop, max_iterations) -> dict:
    """The `RunRecord` fields of drop number `drop` of `algorithm`: the child seed
    of (rng_seed, drop) samples the drop, and (seed, code) seeds the algorithm."""
    seed = int(np.random.SeedSequence((config.rng_seed, drop))
               .generate_state(1, dtype=np.uint64)[0])
    sampled = sample_drop(config, np.random.default_rng(seed))
    rng = np.random.default_rng((seed, ALGORITHM_CODES[algorithm]))
    if algorithm == "egt":
        outcome, _ = run_egt(sampled, rng, max_iterations)
    elif algorithm == "ngt":
        outcome = ngt(sampled, rng, max_iterations)
    elif algorithm == "brute-global":
        profile, _, count = global_oracle(sampled)
        outcome = Outcome(profile, 0, count, True)
    else:
        outcome = Outcome({}, 0, 0, True)
        for sc in sampled.occupied_subcarriers:
            profile, _, count = group_oracle(sampled, sc)
            outcome.profile.update(profile)
            outcome.evaluations += count
    cells = cell_ee(sampled, outcome.profile)
    return dict(seed=seed, network_ee=network_ee(sampled, outcome.profile), cell_ee=cells,
                jain=jain(cells), iterations=outcome.iterations,
                evaluations=outcome.evaluations, converged=outcome.converged,
                traces=outcome.traces)
