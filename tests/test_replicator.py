"""The replicator right-hand side, the forward-Euler integrator and the stability
classifier.
"""

import re

import numpy as np
import pytest

from twotier_ee import replicator
from twotier_ee.replicator import (
    equilibrium_stability, integrate_replicator, replicator_rhs,
)


def constant_payoffs(pi):
    vec = np.asarray(pi, dtype=float)
    return lambda x: vec


class TestRhs:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            replicator_rhs([0.5, 0.5], [1.0, 2.0, 3.0])


class TestIntegration:
    def test_logistic_closed_form(self):
        # two fixed payoffs one apart turn the leading share into a logistic
        # curve; forward Euler must track it to within a few dt
        dt = 1e-3
        traj = integrate_replicator([0.5, 0.5], constant_payoffs([2.0, 1.0]),
                                    dt=dt, horizon=10.0)
        exact = 1.0 / (1.0 + np.exp(-traj.times))
        assert float(np.max(np.abs(traj.states[:, 0] - exact))) <= 5 * dt

    def test_equal_payoffs_give_constant_trajectory(self):
        x0 = [0.3, 0.3, 0.4]
        traj = integrate_replicator(x0, constant_payoffs([1.0, 1.0, 1.0]),
                                    dt=1e-2, horizon=2.0)
        assert np.all(traj.states == np.asarray(x0))
        assert traj.reached_fixed_point

    def test_states_stay_on_simplex(self):
        # state-dependent cyclic payoffs keep the orbit moving; every step
        # must still sum to one and stay nonnegative
        a = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
        traj = integrate_replicator([0.5, 0.3, 0.2], lambda x: a @ x,
                                    dt=1e-2, horizon=20.0)
        sums = traj.states.sum(axis=1)
        assert float(np.max(np.abs(sums - 1.0))) <= 1e-9
        assert np.all(traj.states >= 0.0)

    def test_overshoot_is_clipped_and_renormalized(self):
        # a large step drives the losing share negative; the integrator must
        # land exactly on the winning monoculture
        traj = integrate_replicator([0.9, 0.1], constant_payoffs([10.0, 0.0]),
                                    dt=0.5, horizon=200.0)
        assert traj.states[1] == pytest.approx([1.0, 0.0], abs=0.0)
        assert traj.states[-1] == pytest.approx([1.0, 0.0], abs=0.0)
        assert traj.reached_fixed_point

    def test_better_strategy_share_grows_monotonically(self):
        traj = integrate_replicator([0.5, 0.5], constant_payoffs([2.0, 1.0]),
                                    dt=1e-2, horizon=5.0)
        assert np.all(np.diff(traj.states[:, 0]) > 0.0)
        assert np.all(np.diff(traj.states[:, 1]) < 0.0)

    def test_fixed_point_detected_early(self):
        traj = integrate_replicator([1.0, 0.0], constant_payoffs([2.0, 1.0]),
                                    dt=1e-2, horizon=50.0)
        assert traj.reached_fixed_point
        assert traj.times.size < int(round(50.0 / 1e-2)) + 1

    def test_mixed_equilibrium_attracts(self):
        # anti-coordination payoffs: interior rest point at (2/3, 1/3)
        a = np.array([[0.0, 2.0], [1.0, 0.0]])
        traj = integrate_replicator([0.9, 0.1], lambda x: a @ x,
                                    dt=1e-3, horizon=40.0)
        assert traj.states[-1] == pytest.approx([2 / 3, 1 / 3], abs=1e-6)

    def test_time_grid_is_uniform(self):
        traj = integrate_replicator([0.5, 0.5], constant_payoffs([2.0, 1.0]),
                                    dt=0.1, horizon=1.0)
        assert traj.times == pytest.approx(np.arange(11) * 0.1, abs=1e-12)
        assert float(traj.times[3]) == pytest.approx(0.3, rel=1e-12)

    def test_bad_inputs_rejected(self):
        payoff = constant_payoffs([1.0, 2.0])
        with pytest.raises(ValueError):
            integrate_replicator([0.6, 0.6], payoff)
        with pytest.raises(ValueError):
            integrate_replicator([1.2, -0.2], payoff)
        with pytest.raises(ValueError):
            integrate_replicator([0.5, 0.5], payoff, dt=0.0)
        with pytest.raises(ValueError):
            integrate_replicator([0.5, 0.5], payoff, horizon=-1.0)
        for shares in ([np.nan, 1.0], [np.inf, 0.0], [np.nan, np.nan]):
            with pytest.raises(ValueError, match="has negative or non-finite entries"):
                integrate_replicator(shares, payoff)
        for bad_payoff in (constant_payoffs([np.nan, 1.0]), constant_payoffs([1.0, np.inf]),
                           constant_payoffs([1.0, 2.0, 3.0]), lambda x: 1.0):
            with pytest.raises(ValueError, match=r"payoff_fn returned .* at shares \[0\.5, 0\.5\], "
                                                 r"t = 0; need 2 finite payoffs"):
                integrate_replicator([0.5, 0.5], bad_payoff)
        # a payoff that turns NaN mid-run is caught at that step
        def late_nan(x):
            return np.array([1.0, np.nan]) if x[0] > 0.6 else np.array([2.0, 1.0])

        with pytest.raises(ValueError, match=r"payoff_fn returned \[1\.0, nan\]"):
            integrate_replicator([0.5, 0.5], late_nan)
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="dt must be finite"):
                integrate_replicator([0.5, 0.5], payoff, dt=bad)
            with pytest.raises(ValueError, match="horizon must be finite"):
                integrate_replicator([0.5, 0.5], payoff, horizon=bad)
        # True ran as dt = 1; text and None raised a bare TypeError from the comparison
        for name, bad in [("dt", True), ("dt", "0.1"), ("horizon", None), ("horizon", 1j)]:
            with pytest.raises(ValueError, match=re.escape(
                    f"{name} must be a real number, got {bad!r}")):
                integrate_replicator([0.5, 0.5], payoff, **{name: bad})
        # a step count that overflows or rounds to 0; a huge finite one would run
        for dt, horizon in [(5e-324, 1.0), (2.0, 1.0)]:
            with pytest.raises(ValueError, match=re.escape(
                    f"horizon / dt must round to a finite step count >= 1, got "
                    f"horizon = {horizon!r}, dt = {dt!r}")):
                integrate_replicator([0.5, 0.5], payoff, dt=dt, horizon=horizon)


class TestStability:
    # a shift of every payoff leaves the flow on the simplex as it is; at
    # [-1, -2] only the direction off the simplex grows
    @pytest.mark.parametrize("payoffs", [[2.0, 1.0], [-1.0, -2.0]])
    def test_winning_monoculture_is_stable(self, payoffs):
        verdict = equilibrium_stability([1.0, 0.0], constant_payoffs(payoffs))
        assert verdict == "stable"

    def test_losing_monoculture_is_unstable(self):
        verdict = equilibrium_stability([0.0, 1.0], constant_payoffs([2.0, 1.0]))
        assert verdict == "unstable"

    def test_flat_payoffs_are_marginal(self):
        verdict = equilibrium_stability([0.5, 0.5], constant_payoffs([1.0, 1.0]))
        assert verdict == "marginal"

    def test_interior_anti_coordination_point_is_stable(self):
        a = np.array([[0.0, 2.0], [1.0, 0.0]])
        assert equilibrium_stability([2 / 3, 1 / 3], lambda x: a @ x) == "stable"

    def test_non_fixed_point_rejected(self):
        with pytest.raises(ValueError):
            equilibrium_stability([0.5, 0.5], constant_payoffs([2.0, 1.0]))

    # the shares and payoffs integrate_replicator refuses, with its messages
    @pytest.mark.parametrize("x_star, payoff, message", [
        ([np.nan, 1.0], [2.0, 1.0], "share vector [nan, 1.0] has negative or non-finite"),
        ([3.0, -2.0], [1.0, 1.0], "share vector [3.0, -2.0] has negative or non-finite"),
        ([0.6, 0.6], [1.0, 1.0], "share vector sums to 1.2, not 1"),
        ([1.0, 0.0], [np.nan, 1.0],
         "payoff_fn returned [nan, 1.0] at shares [1.0, 0.0]; need 2 finite payoffs"),
        ([0.5, 0.5], [1.0, 1.0, 1.0],
         "payoff_fn returned [1.0, 1.0, 1.0] at shares [0.5, 0.5]; need 2 finite payoffs"),
    ], ids=["nan-share", "off-simplex", "sum-not-one", "nan-payoff", "payoff-length"])
    def test_bad_inputs_rejected(self, x_star, payoff, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            equilibrium_stability(x_star, constant_payoffs(payoff))

    def test_verdict_robust_to_fd_step(self, monkeypatch):
        payoff = constant_payoffs([2.0, 1.0])
        for h in (1e-5, 1e-6, 5e-7):
            monkeypatch.setattr(replicator, "_FD_STEP", h)
            assert equilibrium_stability([1.0, 0.0], payoff) == "stable"
