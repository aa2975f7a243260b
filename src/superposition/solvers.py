"""Small convex solvers shared by the measure implementations.

The weight and robustness measures reduce, in oblique coordinates, to
linear objectives over block-diagonal Hermitian matrices B and C, one block
per block of a partition of the basis indices (generalized.py):

    weight:      maximize Tr(B G)  s.t.  0 <= B <= R
    robustness:  minimize Tr(C G)  s.t.  C >= R   (value = Tr(C G) - 1)

Singleton blocks with G = I give the plain measures, over diag(w) and
diag(y).  Both programs are linear matrix inequalities in the real
coordinates of B or C (``weight_barrier``, ``robustness_barrier``), and one
class, ``LogDetBarrier``, supplies the objective, the log-det barrier and its
gradient and Hessian for every partition.  ``barrier_descent`` follows the
barrier path by predictor-corrector steps: damped-Newton centring, loose at
every barrier weight t but the last, with a step along the central path's
tangent from each t to the next, and a tight centring polished by full
Newton steps at the last t.  This brings the duality gap well below the
test tolerances for the d <= 8 instances this package targets (Boyd &
Vandenberghe, Convex Optimization, sections 11.3-11.5).  The relative-entropy
projection onto the free simplex uses exponentiated-gradient (mirror)
descent, ``mirror_descent_simplex``: it evaluates the objective on stacks of
points, takes the gradient only where it steps, and tries the step sizes of
its backtracking in pairs, in the order it would try them one at a time.
"""

import numpy as np

BARRIER_T0 = 1.0
BARRIER_TMIN = 1e-9
BARRIER_SHRINK = 0.12
_CENTRE_LOOSE = 0.1  # decrement / t that ends every stage but the last
_CENTRE_TIGHT = 1e-14  # decrement that ends the last stage
_PREDICTOR_HALVINGS = 10
_POLISH_STEPS = 2
NEWTON_MAX = 60
BARRIER_RAISES = 8
ARMIJO = 0.25  # sufficient-decrease fraction of the Newton decrement
WEIGHT_RIDGE = 1e-10
MIRROR_TOL = 1e-11
MIRROR_FLOOR = 1e-12
MIRROR_GAP = 1e-6  # Frank-Wolfe gap that counts as converged when no step decreases


def _newton_direction(g, H):
    try:
        return np.linalg.solve(H, -g)
    except np.linalg.LinAlgError:
        return -g


def _newton_stage(x, fx, grad_hess, parts, t, tol):
    """Damped Newton on f_t = objective + t * barrier at fixed t, stepping
    only on sufficient (Armijo) decrease, until the Newton decrement is at
    most tol.  fx = parts(x) on entry and exit; also returns the gradient
    and Hessian of f_t at the returned x."""
    iters = 0
    while True:
        g, H = grad_hess(x, t)
        if iters == NEWTON_MAX:
            break
        dx = _newton_direction(g, H)
        decrement = float(-g @ dx)
        if decrement <= tol:
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
            g, H = grad_hess(x, t)
            break
    return x, fx, iters, g, H


def _feasible_step(x, fx, dx, parts, halvings):
    """(x + 2^-j dx, its parts, 1) for the least j <= halvings at which parts
    is finite; (x, fx, 0) if there is none."""
    for _ in range(halvings + 1):
        trial = x + dx
        ft = parts(trial)
        if np.isfinite(ft[1]):
            return trial, ft, 1
        dx = 0.5 * dx
    return x, fx, 0


def barrier_descent(x, grad_hess, parts):
    """Predictor-corrector barrier path for a linear objective c.x (Boyd &
    Vandenberghe, Convex Optimization, sections 11.3-11.5).

    Stages run at t = BARRIER_T0, shrinking by BARRIER_SHRINK down to
    BARRIER_TMIN.  Every stage but the last centres loosely, to a Newton
    decrement of _CENTRE_LOOSE * t (the decrement of f_t / t, so the test is
    scale-invariant), and then steps along the tangent of the central path
    to the next t: dx = (1 - BARRIER_SHRINK) * H^-1 (g - c) from the stage's
    last gradient g and Hessian H of f_t, halved until feasible and skipped
    if it stays infeasible.  The last stage centres to an absolute decrement
    of _CENTRE_TIGHT and then takes up to _POLISH_STEPS full Newton steps,
    each kept only while it stays in the domain: the Armijo test cannot
    resolve the last digits of f_t at small t.  A stage that uses all
    NEWTON_MAX steps is followed by one a grid step higher, at most
    BARRIER_RAISES times.

    parts(x) returns the objective and the log-barrier term at x, the latter
    +inf outside the domain; grad_hess(x, t) returns the gradient and
    Hessian of f_t = objective + t * barrier, so grad_hess(x, 0.0) returns
    c.  Returns (x, total Newton iterations), predictor and polish steps
    included.
    """
    fx = parts(x)
    c = grad_hess(x, 0.0)[0]
    total = 0
    raises = 0
    t = BARRIER_T0
    while True:
        last = t * BARRIER_SHRINK < BARRIER_TMIN
        tol = _CENTRE_TIGHT if last else _CENTRE_LOOSE * t
        x, fx, it, g, H = _newton_stage(x, fx, grad_hess, parts, t, tol)
        total += it
        # Such a stage has not reached the central path: far from it each
        # damped step lowers f_t / t by a bounded amount, so on
        # ill-conditioned bases the steps creep along the boundary.
        if it == NEWTON_MAX and raises < BARRIER_RAISES:
            t /= BARRIER_SHRINK
            raises += 1
            continue
        if last:
            break
        try:
            dx = (1.0 - BARRIER_SHRINK) * np.linalg.solve(H, g - c)
        except np.linalg.LinAlgError:
            pass  # no tangent step
        else:
            x, fx, moved = _feasible_step(x, fx, dx, parts, _PREDICTOR_HALVINGS)
            total += moved
        t *= BARRIER_SHRINK
    for k in range(_POLISH_STEPS):
        if k:
            g, H = grad_hess(x, t)
        x, fx, moved = _feasible_step(x, fx, _newton_direction(g, H), parts, 0)
        if not moved:
            break
        total += 1
    return x, total


def _hermitian_coordinates(blocks):
    """Real coordinates of the block-diagonal Hermitian matrices over
    `blocks`: arrays (r, s, w) whose coordinate k has the matrix with w_k at
    (r_k, s_k) and conj(w_k) at (s_k, r_k): (a, a, 1) for every index a,
    (a, c, 1) and (a, c, i) for every pair a != c in one block."""
    r, s, w = zip(*[(a, c, wk) for b in blocks for pos, a in enumerate(b) for c in b[pos:]
                    for wk in ((1.0,) if a == c else (1.0, 1j))])
    return np.array(r), np.array(s), np.array(w, dtype=complex)


class LogDetBarrier:
    """Minimize Tr(K F(x)) subject to F(x) > 0, where F(x) is block
    diagonal with blocks F0[p] + sum_k x_k F_pk, F_pk the Hermitian matrix
    with w[p, k] at (rows[p, k], cols[p, k]).

    parts and grad_hess are barrier_descent's callbacks for -log det F(x),
    whose value and domain come from one Cholesky.  With W = F(x)^-1 its
    gradient is -Tr(W F_k) and its Hessian Tr(W F_k W F_l) (Boyd &
    Vandenberghe, section 11.6); each F_pk has at most two nonzero entries,
    so the Hessian is gathered from W by index.
    """

    def __init__(self, F0, K, rows, cols, w):
        P, d, _ = F0.shape
        p, k = np.arange(P)[:, None], np.arange(w.shape[1])
        A = np.zeros(F0.shape + k.shape, dtype=complex)
        A[p, rows, cols, k] = w
        A[p, cols, rows, k] = w.conj()
        self._F0, self._A = F0, A.reshape(-1, k.size)
        self._Ac = self._A.conj()
        self._c = self._traces(K)
        self._last = None, None
        # F_pk = a e_rs + conj(a) e_sr, so Tr(W F_k W F_l) is the sum over p of
        # 2 Re(a_k a_l W[s_k, r_l] W[s_l, r_k] + a_k conj(a_l) W[s_k, s_l] W[r_l, r_k])
        a = np.where(rows == cols, 0.5 * w, w)[:, :, None]

        def at(i, j):  # flat indices of W[p, i_k, j_l]
            return (p * d + i)[:, :, None] * d + j[:, None, :]

        self._ix = np.array([at(cols, rows), at(cols, cols)])
        self._iy = np.array([at(cols, rows), at(rows, rows)]).swapaxes(2, 3)
        aT = a.swapaxes(1, 2)
        self._coef = 2.0 * np.array([a * aT, a * aT.conj()])

    def matrix(self, x: np.ndarray) -> np.ndarray:
        """The diagonal blocks of F(x), shape (P, d, d)."""
        return self._F0 + (self._A @ x).reshape(self._F0.shape)

    def _traces(self, X: np.ndarray) -> np.ndarray:
        """Tr(X F_k) for every k, X Hermitian and shaped like F0."""
        return (X.ravel() @ self._Ac).real

    def parts(self, x: np.ndarray):
        F = self.matrix(x)
        self._last = x, F  # barrier_descent takes grad_hess where it last took parts
        try:
            L = np.linalg.cholesky(F)
        except np.linalg.LinAlgError:
            return float(self._c @ x), np.inf
        return float(self._c @ x), -2.0 * float(np.log(L.diagonal(0, 1, 2).real).sum())

    def grad_hess(self, x: np.ndarray, t: float):
        x_last, F = self._last
        W = np.linalg.inv(F if x is x_last else self.matrix(x))
        H = (self._coef * W.take(self._ix) * W.take(self._iy)).real.sum(axis=(0, 1))
        return self._c - t * self._traces(W), t * H


def weight_barrier(R: np.ndarray, G: np.ndarray, blocks):
    """max Tr(B G) over block-diagonal 0 <= B <= R + WEIGHT_RIDGE*I as the
    LMI diag(R + WEIGHT_RIDGE*I - B, B) > 0; the ridge keeps an interior for
    rank-deficient R.  Returns (problem, start), the start
    0.5*max(lambda_min(R + WEIGHT_RIDGE*I), WEIGHT_RIDGE)*I being feasible
    for every partition."""
    d = R.shape[0]
    r, s, w = _hermitian_coordinates(blocks)
    Re = R + WEIGHT_RIDGE * np.eye(d)
    Z = np.zeros((d, d))
    problem = LogDetBarrier(np.array([Re, Z]), np.array([Z, -G]),
                            np.array([r, r]), np.array([s, s]), np.array([-w, w]))
    return problem, 0.5 * max(float(np.linalg.eigvalsh(Re)[0]), WEIGHT_RIDGE) * (r == s)


def robustness_barrier(R: np.ndarray, G: np.ndarray, blocks):
    """min Tr(C G) over block-diagonal C >= R as the LMI C - R > 0.  Returns
    (problem, start), the start pinch(R) + (lambda_max(R - pinch R)_+ + 1/2)*I
    being feasible; pinch keeps the diagonal blocks."""
    r, s, w = _hermitian_coordinates(blocks)
    problem = LogDetBarrier(-R[None], G[None], r[None], s[None], w[None])
    pinched = (w.conj() * R[r, s]).real
    off = -problem.matrix(pinched)[0]  # R - pinch(R)
    return problem, pinched + (max(float(np.linalg.eigvalsh(off)[-1]), 0.0) + 0.5) * (r == s)


def max_weight_diagonal(R: np.ndarray):
    """Maximize sum(w) subject to 0 <= diag(w) <= R + WEIGHT_RIDGE*I: the
    singleton blocks of weight_barrier, G = I.  Returns (w, iterations)."""
    d = R.shape[0]
    problem, w = weight_barrier(R, np.eye(d), [(k,) for k in range(d)])
    return barrier_descent(w, problem.grad_hess, problem.parts)


def min_dominating_diagonal(R: np.ndarray):
    """Minimize sum(y) subject to diag(y) >= R: the singleton blocks of
    robustness_barrier, G = I.  Returns (y, iterations)."""
    d = R.shape[0]
    problem, y = robustness_barrier(R, np.eye(d), [(k,) for k in range(d)])
    return barrier_descent(y, problem.grad_hess, problem.parts)


def mirror_descent_simplex(values, gradient, d: int, max_iter: int = 2000):
    """Minimize a smooth convex function f over the probability simplex by
    exponentiated-gradient descent with backtracking (Beck & Teboulle, Oper.
    Res. Lett. 31, 2003).

    values(Q) evaluates f at each row of a (k, d) stack of simplex points and
    returns (their values, state); gradient(state, j) returns the gradient of
    f at row j of the stack that state came from, and is called only at the
    points where a step is taken.  Each backtracking round tries the step
    sizes eta and eta/2 from the same point in one values call and takes the
    first that does not raise the value (eta alone once eta/2 <= 1e-14), so
    the step sizes are tried in the same order as one at a time.  Returns
    (q, value, iterations, converged).  When no step size decreases the
    value, converged says whether the Frank-Wolfe gap <g, q> - min g is at
    most MIRROR_GAP.
    """
    q = np.full(d, 1.0 / d)
    vals, state = values(q[None])
    val, row = float(vals[0]), 0
    eta = 1.0
    stall = 0
    it = 0
    for it in range(1, max_iter + 1):
        g = gradient(state, row)
        step = g - g.min()  # shift for numerical stability of exp
        while eta > 1e-14:
            etas = [eta, 0.5 * eta] if 0.5 * eta > 1e-14 else [eta]
            trials = np.maximum(q * np.exp(-np.array(etas)[:, None] * step), MIRROR_FLOOR)
            trials /= trials.sum(axis=1, keepdims=True)
            tvals, state = values(trials)
            taken = [j for j, v in enumerate(tvals.tolist()) if v <= val + 1e-15]
            if taken:
                break
            eta = 0.5 * etas[-1]
        else:
            return q, val, it, float(g @ q - g.min()) <= MIRROR_GAP
        row = taken[0]
        eta, tval = etas[row], float(tvals[row])
        improvement = val - tval
        q, val = trials[row], tval
        eta = min(eta * 2.0, 1e3)
        if improvement < MIRROR_TOL:
            stall += 1
            if stall >= 5:
                return q, val, it, True
        else:
            stall = 0
    return q, val, it, stall >= 5
