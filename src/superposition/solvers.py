"""Small convex solvers shared by the measure implementations.

The weight and robustness measures reduce, in oblique coordinates, to
linear objectives over spectrahedra with diagonal decision variables:

    weight:      maximize sum(w)  s.t.  0 <= diag(w) <= R
    robustness:  minimize sum(y)  s.t.  diag(y) >= R   (value = sum(y) - 1)

Their block generalizations (generalized.py) replace diag(w) and diag(y) by
block-diagonal Hermitian matrices.  One damped-Newton log-det barrier path,
``barrier_descent``, serves the plain and the block measures: each caller
supplies the gradient and Hessian of its barrier objective in its own real
coordinates and a strict-feasibility test.  Barrier continuation brings the
duality gap well below the test tolerances for the d <= 8 instances this
package targets (Boyd & Vandenberghe, Convex Optimization, section 11.3).
The relative-entropy projection onto the free simplex uses
exponentiated-gradient (mirror) descent.
"""

import numpy as np

BARRIER_T0 = 1.0
BARRIER_TMIN = 1e-9
BARRIER_SHRINK = 0.12
NEWTON_MAX = 60


def _newton_stage(x, grad_hess, feasible, t):
    """Damped Newton on f_t at fixed barrier weight t."""
    iters = 0
    for _ in range(NEWTON_MAX):
        g, H = grad_hess(x, t)
        try:
            dx = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            dx = -g
        decrement = float(-g @ dx)
        if decrement < 1e-14:
            break
        alpha = 1.0
        while alpha > 1e-12:
            trial = x + alpha * dx
            if feasible(trial):
                break
            alpha *= 0.5
        else:
            break
        x = x + alpha * dx
        iters += 1
        if decrement * alpha < 1e-13:
            break
    return x, iters


def barrier_descent(x, grad_hess, feasible):
    """Barrier continuation: damped-Newton centering at t = BARRIER_T0,
    shrinking by BARRIER_SHRINK down to BARRIER_TMIN.

    grad_hess(x, t) returns the gradient and Hessian of the barrier objective
    at weight t; feasible(x) tells whether x is strictly inside the domain.
    Returns (x, total Newton iterations).
    """
    total = 0
    t = BARRIER_T0
    while t >= BARRIER_TMIN:
        x, it = _newton_stage(x, grad_hess, feasible, t)
        total += it
        t *= BARRIER_SHRINK
    return x, total


def max_weight_diagonal(R: np.ndarray, eps: float = 1e-9):
    """Maximize sum(w) subject to w >= 0 and diag(w) <= R + eps*I.

    Returns (w, iterations).  The eps ridge guarantees a strictly feasible
    interior even for rank-deficient R; it perturbs the optimum by O(d*eps).
    """
    d = R.shape[0]
    Re = R + eps * np.eye(d)
    lam_min = float(np.linalg.eigvalsh(Re).min())
    w = np.full(d, max(lam_min, eps) * 0.5)

    def feasible(w):
        if np.min(w) <= 0:
            return False
        return float(np.linalg.eigvalsh(Re - np.diag(w)).min()) > 0

    def grad_hess(w, t):
        Minv = np.linalg.inv(Re - np.diag(w))
        g = -1.0 + t * np.diag(Minv).real - t / w
        H = t * (np.abs(Minv) ** 2) + np.diag(t / w**2)
        return g, H

    return barrier_descent(w, grad_hess, feasible)


def min_dominating_diagonal(R: np.ndarray):
    """Minimize sum(y) subject to diag(y) >= R.  Returns (y, iterations)."""
    d = R.shape[0]
    lam_max = float(np.linalg.eigvalsh(R).max())
    y = np.full(d, lam_max + 1.0)

    def feasible(y):
        return float(np.linalg.eigvalsh(np.diag(y) - R).min()) > 0

    def grad_hess(y, t):
        Ninv = np.linalg.inv(np.diag(y) - R)
        g = 1.0 - t * np.diag(Ninv).real
        H = t * (np.abs(Ninv) ** 2)
        return g, H

    return barrier_descent(y, grad_hess, feasible)


def mirror_descent_simplex(f_grad, d: int, max_iter: int = 2000,
                           tol: float = 1e-11, floor: float = 1e-12):
    """Minimize a smooth convex function over the probability simplex by
    exponentiated-gradient descent with backtracking.

    f_grad(q) returns (value, gradient).  Returns (q, value, iterations,
    converged).
    """
    q = np.full(d, 1.0 / d)
    val, g = f_grad(q)
    eta = 1.0
    stall = 0
    it = 0
    for it in range(1, max_iter + 1):
        step = g - g.min()  # shift for numerical stability of exp
        accepted = False
        while eta > 1e-14:
            trial = q * np.exp(-eta * step)
            trial = np.maximum(trial, floor)
            trial /= trial.sum()
            tval, tg = f_grad(trial)
            if tval <= val + 1e-15:
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            break
        improvement = val - tval
        q, val, g = trial, tval, tg
        eta = min(eta * 2.0, 1e3)
        if improvement < tol:
            stall += 1
            if stall >= 5:
                return q, val, it, True
        else:
            stall = 0
    return q, val, it, stall >= 5
