"""Replicator dynamics over the power-level share simplex.

The share vector x lives on the probability simplex of the L power levels;
each component grows when its strategy pays above the population average
and shrinks otherwise.  Integration is fixed-step forward Euler, which is
accurate enough here because the acceptance tolerances scale with dt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import _real

__all__ = [
    "Trajectory", "replicator_rhs", "integrate_replicator", "equilibrium_stability",
]

_SIMPLEX_TOL = 1e-9
# fixed point declared once the RHS stays this flat for this many steps
_FIXED_POINT_TOL = 1e-8
_FIXED_POINT_STEPS = 100
# central-difference step of the stability Jacobian
_FD_STEP = 1e-6


@dataclass
class Trajectory:
    """Forward-Euler share trajectory; row t of states is x(times[t])."""

    times: np.ndarray
    states: np.ndarray
    reached_fixed_point: bool


def replicator_rhs(x, payoffs) -> np.ndarray:
    """Share growth rates: x_a * (payoff_a - average payoff).

    The average is the share-weighted mean payoff, the one average under
    which the components sum to zero, so the flow stays on the simplex.
    """
    x = np.asarray(x, dtype=float)
    pi = np.asarray(payoffs, dtype=float)
    if x.shape != pi.shape:
        raise ValueError(f"shape mismatch: shares {x.shape} vs payoffs {pi.shape}")
    return x * (pi - float(pi @ x))


def _check_simplex(x: np.ndarray) -> None:
    if not np.all((x >= 0) & (x < np.inf)):
        raise ValueError(f"share vector {x.tolist()} has negative or non-finite entries")
    if abs(float(x.sum()) - 1.0) > _SIMPLEX_TOL:
        raise ValueError(f"share vector sums to {x.sum()}, not 1")


def _rhs(payoff_fn, x: np.ndarray, t: float = None) -> np.ndarray:
    """The growth rates at x under payoff_fn(x), refused unless that is one finite
    payoff per share; `t` is the integration time the refusal names, if any."""
    pi = np.asarray(payoff_fn(x), dtype=float)
    if pi.shape != x.shape or not np.isfinite(pi).all():
        when = "" if t is None else f", t = {t:g}"
        raise ValueError(f"payoff_fn returned {pi.tolist()} at shares {x.tolist()}{when}; "
                         f"need {x.size} finite payoffs")
    return replicator_rhs(x, pi)


def integrate_replicator(x0, payoff_fn, dt: float = 1e-2, horizon: float = 50.0) -> Trajectory:
    """Integrate the share dynamics from x0 under a state-dependent payoff.

    payoff_fn maps a share vector to the per-strategy payoff vector; the
    population average is recomputed from it every step.  Negative entries
    produced by an Euler overshoot are clipped to zero, and the vector is
    renormalized only when its sum has actually drifted, so exact runs stay
    bitwise untouched.  Integration stops early once the RHS has been flat
    for a while (a numerical fixed point).
    """
    dt, horizon = _real("dt", dt), _real("horizon", horizon)
    if not 0.0 < dt < np.inf:
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if not 0.0 < horizon < np.inf:
        raise ValueError(f"horizon must be finite and > 0, got {horizon}")
    steps = horizon / dt
    if not (steps < np.inf and round(steps) >= 1):
        raise ValueError(f"horizon / dt must round to a finite step count >= 1, got "
                         f"horizon = {horizon!r}, dt = {dt!r}")
    n_steps = round(steps)
    x = np.array(x0, dtype=float)
    _check_simplex(x)
    times = [0.0]
    states = [x.copy()]
    quiet = 0
    reached = False
    for k in range(1, n_steps + 1):
        rhs = _rhs(payoff_fn, x, (k - 1) * dt)
        x = x + dt * rhs
        x[x < 0] = 0.0
        total = float(x.sum())
        if abs(total - 1.0) > _SIMPLEX_TOL:
            x = x / total
        times.append(k * dt)
        states.append(x.copy())
        if float(np.max(np.abs(rhs))) < _FIXED_POINT_TOL:
            quiet += 1
            if quiet >= _FIXED_POINT_STEPS:
                reached = True
                break
        else:
            quiet = 0
    return Trajectory(times=np.asarray(times), states=np.vstack(states),
                      reached_fixed_point=reached)


def equilibrium_stability(x_star, payoff_fn) -> str:
    """Classify a replicator fixed point: 'stable', 'unstable', or 'marginal'.

    The Jacobian of the RHS is estimated by central differences and
    restricted to the simplex tangent space (directions with zero component
    sum); the off-simplex eigenvalue is an artifact of the embedding and
    must not influence the verdict.
    """
    x_star = np.asarray(x_star, dtype=float)
    _check_simplex(x_star)
    norm = float(np.linalg.norm(_rhs(payoff_fn, x_star)))
    if not norm <= 1e-6:
        raise ValueError(f"not a fixed point: |rhs| = {norm:.3e}, need <= 1e-06")
    n = x_star.size
    jac = np.empty((n, n))
    for j in range(n):
        bump = np.zeros(n)
        bump[j] = _FD_STEP
        jac[:, j] = _rhs(payoff_fn, x_star + bump) - _rhs(payoff_fn, x_star - bump)
    jac /= 2.0 * _FD_STEP
    # orthonormal basis of the zero-sum directions: the rows of V^T past the first
    tangent = np.linalg.svd(np.ones((1, n)))[2][1:].T
    eigenvalues = np.linalg.eigvals(tangent.T @ jac @ tangent)
    real_parts = eigenvalues.real
    if np.all(real_parts < -1e-8):
        return "stable"
    if np.any(real_parts > 1e-8):
        return "unstable"
    return "marginal"
