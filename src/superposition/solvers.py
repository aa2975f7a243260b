"""Small convex solvers shared by the measure implementations.

The weight and robustness measures reduce, in oblique coordinates, to
linear objectives over spectrahedra with diagonal decision variables:

    weight:      maximize sum(w)  s.t.  0 <= diag(w) <= R
    robustness:  minimize sum(y)  s.t.  diag(y) >= R   (value = sum(y) - 1)

Their block generalizations (generalized.py) replace diag(w) and diag(y) by
block-diagonal Hermitian matrices.  One damped-Newton log-det barrier path,
``barrier_descent``, serves the plain and the block measures: each caller
supplies, in its own real coordinates, its objective and log-barrier values
(the barrier +inf outside the domain) and the gradient and Hessian of
objective + t * barrier.  Barrier continuation brings the duality gap well
below the test tolerances for the d <= 8 instances this package targets
(Boyd & Vandenberghe, Convex Optimization, section 11.3).  The
relative-entropy projection onto the free simplex uses exponentiated-gradient
(mirror) descent.
"""

import numpy as np

BARRIER_T0 = 1.0
BARRIER_TMIN = 1e-9
BARRIER_SHRINK = 0.12
NEWTON_MAX = 60
BARRIER_RAISES = 8
ARMIJO = 0.25  # sufficient-decrease fraction of the Newton decrement
WEIGHT_RIDGE = 1e-10
MIRROR_TOL = 1e-11
MIRROR_FLOOR = 1e-12


def _newton_stage(x, fx, grad_hess, parts, t):
    """Damped Newton on f_t = objective + t * barrier at fixed t, stepping
    only on sufficient (Armijo) decrease.  fx = parts(x) on entry and exit."""
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
        f = fx[0] + t * fx[1]
        alpha = 1.0
        while alpha > 1e-12:
            trial = x + alpha * dx
            ft = parts(trial)
            if ft[0] + t * ft[1] <= f - ARMIJO * alpha * decrement:
                break
            alpha *= 0.5
        else:
            break
        x, fx = trial, ft
        iters += 1
        if decrement * alpha < 1e-13:
            break
    return x, fx, iters


def barrier_descent(x, grad_hess, parts):
    """Barrier continuation: damped-Newton centering at t = BARRIER_T0,
    shrinking by BARRIER_SHRINK down to BARRIER_TMIN.  A stage that uses
    all NEWTON_MAX steps is followed by one a grid step higher, at most
    BARRIER_RAISES times.

    parts(x) returns the objective and the log-barrier term at x, the latter
    +inf outside the domain; grad_hess(x, t) returns the gradient and
    Hessian of f_t = objective + t * barrier.  Returns (x, total Newton
    iterations).
    """
    fx = parts(x)
    total = 0
    raises = 0
    t = BARRIER_T0
    while t >= BARRIER_TMIN:
        x, fx, it = _newton_stage(x, fx, grad_hess, parts, t)
        total += it
        # Such a stage has not reached the central path: far from it each
        # damped step lowers f_t / t by a bounded amount, so on
        # ill-conditioned bases the steps creep along the boundary.
        if it == NEWTON_MAX and raises < BARRIER_RAISES:
            t /= BARRIER_SHRINK
            raises += 1
        else:
            t *= BARRIER_SHRINK
    return x, total


def neg_logdet(M: np.ndarray) -> float:
    """-log det of a Hermitian M, +inf unless M is positive definite."""
    s = np.linalg.eigvalsh(M)  # ascending
    return -float(np.log(s).sum()) if s[0] > 0 else np.inf


def max_weight_diagonal(R: np.ndarray):
    """Maximize sum(w) subject to w >= 0 and diag(w) <= R + WEIGHT_RIDGE*I.

    Returns (w, iterations).  The ridge keeps a strictly feasible interior
    even for rank-deficient R; it perturbs the optimum by O(d*WEIGHT_RIDGE).
    """
    d = R.shape[0]
    Re = R + WEIGHT_RIDGE * np.eye(d)
    lam_min = float(np.linalg.eigvalsh(Re).min())
    w = np.full(d, max(lam_min, WEIGHT_RIDGE) * 0.5)

    def parts(w):
        if w.min() <= 0:
            return 0.0, np.inf
        return -float(w.sum()), neg_logdet(Re - np.diag(w)) - float(np.log(w).sum())

    def grad_hess(w, t):
        Minv = np.linalg.inv(Re - np.diag(w))
        g = -1.0 + t * np.diag(Minv).real - t / w
        H = t * (np.abs(Minv) ** 2) + np.diag(t / w**2)
        return g, H

    return barrier_descent(w, grad_hess, parts)


def min_dominating_diagonal(R: np.ndarray):
    """Minimize sum(y) subject to diag(y) >= R.  Returns (y, iterations)."""
    d = R.shape[0]
    lam_max = float(np.linalg.eigvalsh(R).max())
    y = np.full(d, lam_max + 1.0)

    def parts(y):
        return float(y.sum()), neg_logdet(np.diag(y) - R)

    def grad_hess(y, t):
        Ninv = np.linalg.inv(np.diag(y) - R)
        g = 1.0 - t * np.diag(Ninv).real
        H = t * (np.abs(Ninv) ** 2)
        return g, H

    return barrier_descent(y, grad_hess, parts)


def mirror_descent_simplex(f_grad, d: int, max_iter: int = 2000):
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
            trial = np.maximum(trial, MIRROR_FLOOR)
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
        if improvement < MIRROR_TOL:
            stall += 1
            if stall >= 5:
                return q, val, it, True
        else:
            stall = 0
    return q, val, it, stall >= 5
