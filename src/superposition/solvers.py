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
projection onto the free simplex, ``mirror_descent_simplex``, takes Newton
steps on the simplex's affine hull, damped where they fail, the KKT system
solved like the barrier's Newton systems; it evaluates the objective on
stacks of points, takes the gradient and Hessian only where it steps, and
tries the step sizes of its backtracking in pairs.  The roof's Stiefel
descent (``measures._stacked_riemannian_descent``) pairs its backtracking
the same way: both descents try two step sizes per call.

Each iterative method is written once, for one problem, as a generator that
yields its requests: ``_barrier_path``, ``_mirror_path``, the roof's
``measures._stiefel_path`` and the axiom trials of ``harness``.  One driver,
``_drive``, runs them all and alone picks between the one-problem and the
stacked kernels that each solver hands it: a lone problem has each request
answered at once, and many problems run in rounds, all pending requests of
one kind answered by one call on their stack.  Given a stack of problems (a
stack of starts for ``barrier_descent``, of R for the diagonal solvers,
``problems=n`` for the mirror descent) a solver returns a list of results,
each the one the problem gets alone: every stacked kernel is a stack of the
one-problem kernels, bit for bit, and ``LogDetBarrier`` carries a leading
problem axis.
"""

import functools
import math

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
ARMIJO = 0.25  # sufficient-decrease fraction of the predicted decrease
WEIGHT_RIDGE = 1e-10
MIRROR_FLOOR = 1e-12  # least weight of the simplex solve, about the resolution of sigma
MIRROR_GAP = 1e-6  # Frank-Wolfe gap that counts as converged
_GAP_ROUNDING = 1e-12  # Frank-Wolfe gap at which the simplex solve stops
_RESOLVE = 1e-10  # Newton decrement below which a failed Armijo test is put down to rounding
_KEEP = 0.01  # least fraction of a weight that one Newton step keeps
_DAMP_MAX = 1e12  # damping at which a step moves q by rounding only, so the solve stops


def _drive(problems, one, many):
    """Run the problem generators to their return values, in order.

    A problem yields requests (kind, *args) and is sent each reply, or has
    the LinAlgError that the request raised thrown in at its yield; it may
    also return before its first request.  A lone problem has each request
    answered at once by one[kind](*args).  Several run in rounds: each round
    takes every unfinished problem's pending request and answers all
    requests of one kind by one call many[kind](requests, owners), the
    requests' argument tuples and their problems' indices, which returns
    the replies in order, a LinAlgError instance for a request that raised
    one.
    """
    if len(problems) == 1:
        send, throw = problems[0].send, problems[0].throw
        try:
            ask = send(None)
            while True:
                try:
                    reply = one[ask[0]](*ask[1:])
                except np.linalg.LinAlgError as exc:
                    ask = throw(exc)
                else:
                    ask = send(reply)
        except StopIteration as stop:
            return [stop.value]
    found = [None] * len(problems)
    replies = dict.fromkeys(range(len(problems)))  # None starts each problem
    while replies:
        by_kind = {}
        for i, reply in replies.items():
            path = problems[i]
            try:
                kind, *args = (path.throw(reply) if isinstance(reply, np.linalg.LinAlgError)
                               else path.send(reply))
            except StopIteration as stop:
                found[i] = stop.value
            else:
                owners, requests = by_kind.setdefault(kind, ([], []))
                owners.append(i)
                requests.append(args)
        replies = {}
        for kind, (owners, requests) in by_kind.items():
            replies.update(zip(owners, many[kind](requests, np.array(owners))))
    return found


def _solve_many(requests, owners):
    """np.linalg.solve for each (H, b) request as one stacked solve, or one
    at a time if that raises, a singular H's reply being its LinAlgError."""
    H, b = (np.stack(a) for a in zip(*requests))
    try:
        return list(np.linalg.solve(H, b[..., None])[..., 0])
    except np.linalg.LinAlgError:
        return [_solve_or_error(*r) for r in requests]


def _solve_or_error(H, b):
    try:
        return np.linalg.solve(H, b)
    except np.linalg.LinAlgError as exc:
        return exc


def _newton_stage(x, fx, t, tol):
    """Damped Newton on f_t = objective + t * barrier at fixed t, stepping
    only on sufficient (Armijo) decrease, until the Newton decrement is at
    most tol.  fx = parts(x) on entry and exit; also returns the gradient
    and Hessian of f_t at the returned x.  A generator of barrier_descent's
    requests."""
    iters = 0
    while True:
        g, H = yield "grad_hess", x, t
        if iters == NEWTON_MAX:
            break
        try:
            dx = yield "solve", H, -g
        except np.linalg.LinAlgError:
            dx = -g
        decrement = float(-g @ dx)
        if decrement <= tol:
            break
        f = fx[0] + t * fx[1]
        alpha = 1.0
        while alpha > 1e-12:
            trial = x + alpha * dx
            ft = yield "parts", trial
            if ft[0] + t * ft[1] <= f - ARMIJO * alpha * decrement:
                break
            alpha *= 0.5
        else:
            break
        x, fx = trial, ft
        iters += 1
        if decrement * alpha < 1e-13:
            g, H = yield "grad_hess", x, t
            break
    return x, fx, iters, g, H


def _feasible_step(x, fx, dx, halvings):
    """(x + 2^-j dx, its parts, 1) for the least j <= halvings at which parts
    is finite; (x, fx, 0) if there is none.  A generator of requests."""
    for _ in range(halvings + 1):
        trial = x + dx
        ft = yield "parts", trial
        if math.isfinite(ft[1]):
            return trial, ft, 1
        dx = 0.5 * dx
    return x, fx, 0


def _barrier_path(x, c):
    """barrier_descent for one problem, as a generator of its requests."""
    fx = yield "parts", x
    total = 0
    raises = 0
    t = BARRIER_T0
    while True:
        last = t * BARRIER_SHRINK < BARRIER_TMIN
        tol = _CENTRE_TIGHT if last else _CENTRE_LOOSE * t
        x, fx, it, g, H = yield from _newton_stage(x, fx, t, tol)
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
            dx = (1.0 - BARRIER_SHRINK) * (yield "solve", H, g - c)
        except np.linalg.LinAlgError:
            pass  # no tangent step
        else:
            x, fx, moved = yield from _feasible_step(x, fx, dx, _PREDICTOR_HALVINGS)
            total += moved
        t *= BARRIER_SHRINK
    for k in range(_POLISH_STEPS):
        if k:
            g, H = yield "grad_hess", x, t
        try:
            dx = yield "solve", H, -g
        except np.linalg.LinAlgError:
            dx = -g
        x, fx, moved = yield from _feasible_step(x, fx, dx, 0)
        if not moved:
            break
        total += 1
    return x, total


def barrier_descent(problem, x):
    """Predictor-corrector barrier path for the LogDetBarrier problem, from
    the start x in its domain (Boyd & Vandenberghe, Convex Optimization,
    sections 11.3-11.5).

    Stages run at t = BARRIER_T0, shrinking by BARRIER_SHRINK down to
    BARRIER_TMIN.  Every stage but the last centres loosely, to a Newton
    decrement of _CENTRE_LOOSE * t (the decrement of f_t / t, so the test is
    scale-invariant), and then steps along the tangent of the central path
    to the next t: dx = (1 - BARRIER_SHRINK) * H^-1 (g - c) from the stage's
    last gradient g and Hessian H of f_t = c.x + t * barrier, halved until
    feasible and skipped if it stays infeasible.  The last stage centres to
    an absolute decrement of _CENTRE_TIGHT and then takes up to
    _POLISH_STEPS full Newton steps, each kept only while it stays in the
    domain: the Armijo test cannot resolve the last digits of f_t at small
    t.  A stage that uses all NEWTON_MAX steps is followed by one a grid
    step higher, at most BARRIER_RAISES times.  Returns (x, total Newton
    iterations), predictor and polish included.

    Given a stack of starts x, one row per problem of the stack, it follows
    every path as it would alone and returns a list of those pairs
    (_drive): a lone problem is evaluated by problem.parts(x) and
    problem.grad_hess(x, t), several together by the stacked forms of both.
    """
    def many_parts(requests, owners):
        obj, barrier = problem.parts(np.stack([x for x, in requests]), owners)
        return list(zip(obj.tolist(), barrier.tolist()))

    def many_grad_hess(requests, owners):
        X, T = np.stack([x for x, _ in requests]), np.array([t for _, t in requests])
        return list(zip(*problem.grad_hess(X, T, owners)))

    found = _drive([_barrier_path(row, problem.c) for row in np.atleast_2d(x)],
                   {"parts": problem.parts, "grad_hess": problem.grad_hess,
                    "solve": np.linalg.solve},
                   {"parts": many_parts, "grad_hess": many_grad_hess, "solve": _solve_many})
    return found if x.ndim == 2 else found[0]


def _hermitian_coordinates(blocks):
    """Real coordinates of the block-diagonal Hermitian matrices over
    `blocks`: arrays (r, s, w) whose coordinate k has the matrix with w_k at
    (r_k, s_k) and conj(w_k) at (s_k, r_k): (a, a, 1) for every index a,
    (a, c, 1) and (a, c, i) for every pair a != c in one block."""
    r, s, w = zip(*[(a, c, wk) for b in blocks for pos, a in enumerate(b) for c in b[pos:]
                    for wk in ((1.0,) if a == c else (1.0, 1j))])
    return np.array(r), np.array(s), np.array(w, dtype=complex)


def _neg_log_det(F):
    """-log det of each member of a stack F (n, P, d, d) of P blocks each,
    +inf where a block is not positive definite.  A stacked Cholesky raises
    if any one block fails, so on failure the members with a block whose
    least eigenvalue is below -1e-8 times its largest magnitude, far beyond
    Cholesky's rounding, get +inf and the rest are factored as one stack,
    or one at a time if that raises too."""
    out = np.full(len(F), np.inf)
    try:
        ok, L = slice(None), np.linalg.cholesky(F)
    except np.linalg.LinAlgError:
        if len(F) == 1:
            return out
        ev = np.linalg.eigvalsh(F)
        ok = np.flatnonzero((ev[..., 0] >= -1e-8 * np.abs(ev).max(axis=-1)).all(axis=-1))
        try:
            L = np.linalg.cholesky(F[ok])
        except np.linalg.LinAlgError:
            return np.concatenate([_neg_log_det(f[None]) for f in F])
    out[ok] = -2.0 * np.log(L.diagonal(0, -2, -1).real).sum(axis=(-2, -1))
    return out


@functools.lru_cache(maxsize=64)
def _lmi_plan(blocks: tuple, d: int, weight: bool):
    """The coordinates (r, s, w) of _hermitian_coordinates(blocks) and the
    F_pk of weight_barrier's LMI (weight) or robustness_barrier's over them,
    as LogDetBarrier uses them: F_pk is the Hermitian matrix with w[p, k]
    at (rows[p, k], cols[p, k]).  Built once per process and read-only."""
    r, s, w = _hermitian_coordinates(blocks)
    rows, cols, wpk = ((np.array([r, r]), np.array([s, s]), np.array([-w, w])) if weight
                       else (r[None], s[None], w[None]))
    P = len(rows)
    p, k = np.arange(P)[:, None], np.arange(wpk.shape[1])
    A = np.zeros((P, d, d, k.size), dtype=complex)
    A[p, rows, cols, k] = wpk
    A[p, cols, rows, k] = wpk.conj()
    A = A.reshape(-1, k.size)
    # F_pk = a e_rs + conj(a) e_sr, so Tr(W F_k W F_l) is the sum over p of
    # 2 Re(a_k a_l W[s_k, r_l] W[s_l, r_k] + a_k conj(a_l) W[s_k, s_l] W[r_l, r_k])
    a = np.where(rows == cols, 0.5 * wpk, wpk)[:, :, None]

    def at(i, j):  # flat indices of W[p, i_k, j_l]
        return (p * d + i)[:, :, None] * d + j[:, None, :]

    aT = a.swapaxes(1, 2)
    plan = (r, s, w, A, A.conj(), np.array([at(cols, rows), at(cols, cols)]),
            np.array([at(cols, rows), at(rows, rows)]).swapaxes(2, 3),
            2.0 * np.array([a * aT, a * aT.conj()]))
    for array in plan:
        array.flags.writeable = False
    return plan


class LogDetBarrier:
    """Minimize Tr(K F_n(x)) subject to F_n(x) > 0 for each problem n of a
    stack, where F_n(x) is block diagonal with blocks F0[n, p] + sum_k x_k
    F_pk, the F_pk those of plan (_lmi_plan).  The problems share K and the
    F_pk.

    barrier_descent(problem, x) solves it from x.  c = Tr(K F_k) is the
    objective's gradient; parts(x) returns c.x and -log det F(x), +inf
    outside the domain, both from one Cholesky; grad_hess(x, t) returns the
    gradient and Hessian of f_t = c.x - t log det F(x).  With W = F(x)^-1
    the barrier's gradient is -Tr(W F_k) and its Hessian Tr(W F_k W F_l)
    (Boyd & Vandenberghe, section 11.6); each F_pk has at most two nonzero
    entries, so the Hessian is gathered from W by index.  A point x belongs
    to problem owner; a stack of points X has row i in problem owner[i], at
    weight t[i].  Every stacked product is a stack of the one-point
    products, so each row gets the bits it would get alone.
    """

    def __init__(self, F0, K, plan):
        self._F0 = F0
        *_, self._A, self._Ac, self._ix, self._iy, self._coef = plan
        self.c = (K.ravel() @ self._Ac).real  # Tr(K F_k)
        self._last = None, None

    def matrix(self, x: np.ndarray, owner=0) -> np.ndarray:
        """The diagonal blocks of F(x), shape (P, d, d), or (n, P, d, d) for a stack."""
        if x.ndim == 1:
            return self._F0[owner] + (self._A @ x).reshape(self._F0.shape[1:])
        return self._F0[owner] + (self._A @ x[:, :, None]).reshape(x.shape[:1] + self._F0.shape[1:])

    def parts(self, x: np.ndarray, owner=0):
        F = self.matrix(x, owner)
        self._last = x, F  # barrier_descent takes grad_hess where it last took parts
        if x.ndim == 2:
            return (x[:, None, :] @ self.c[:, None])[:, 0, 0], _neg_log_det(F)
        try:
            L = np.linalg.cholesky(F)
        except np.linalg.LinAlgError:
            return float(self.c @ x), np.inf
        return float(self.c @ x), -2.0 * float(np.log(L.diagonal(0, 1, 2).real).sum())

    def grad_hess(self, x: np.ndarray, t, owner=0):
        x_last, F = self._last
        W = np.linalg.inv(F if x is x_last else self.matrix(x, owner))
        if x.ndim == 1:
            H = (self._coef * W.take(self._ix) * W.take(self._iy)).real.sum(axis=(0, 1))
            return self.c - t * (W.ravel() @ self._Ac).real, t * H
        W = W.reshape(len(x), -1)
        H = (self._coef * W.take(self._ix, axis=1) * W.take(self._iy, axis=1)).real.sum(axis=(1, 2))
        return (self.c - t[:, None] * (W[:, None, :] @ self._Ac)[:, 0].real,
                t[:, None, None] * H)


def weight_barrier(R: np.ndarray, G: np.ndarray, blocks):
    """max Tr(B G) over block-diagonal 0 <= B <= R + WEIGHT_RIDGE*I as the
    LMI diag(R + WEIGHT_RIDGE*I - B, B) > 0; the ridge keeps an interior for
    rank-deficient R.  Returns (problem, start), the start
    0.5*max(lambda_min(R + WEIGHT_RIDGE*I), WEIGHT_RIDGE)*I being feasible
    for every partition.  Given a stack of R, one problem each and a stack
    of starts."""
    d = R.shape[-1]
    plan = _lmi_plan(tuple(map(tuple, blocks)), d, True)
    r, s = plan[:2]
    Re = R + WEIGHT_RIDGE * np.eye(d)
    F0 = np.zeros(Re.shape[:-2] + (2, d, d), dtype=Re.dtype)
    F0[..., 0, :, :] = Re
    Z = np.zeros((d, d))
    problem = LogDetBarrier(F0.reshape(-1, 2, d, d), np.array([Z, -G]), plan)
    least = np.maximum(np.linalg.eigvalsh(Re)[..., 0], WEIGHT_RIDGE)
    return problem, 0.5 * least[..., None] * (r == s)


def robustness_barrier(R: np.ndarray, G: np.ndarray, blocks):
    """min Tr(C G) over block-diagonal C >= R as the LMI C - R > 0.  Returns
    (problem, start), the start pinch(R) + (lambda_max(R - pinch R)_+ + 1/2)*I
    being feasible; pinch keeps the diagonal blocks.  Given a stack of R,
    one problem each and a stack of starts."""
    d = R.shape[-1]
    plan = _lmi_plan(tuple(map(tuple, blocks)), d, False)
    r, s, w = plan[:3]
    problem = LogDetBarrier(-R.reshape(-1, 1, d, d), G[None], plan)
    pinched = (w.conj() * R[..., r, s]).real
    owner = np.arange(len(R)) if R.ndim == 3 else 0
    off = -problem.matrix(pinched, owner)[..., 0, :, :]  # R - pinch(R)
    top = np.maximum(np.linalg.eigvalsh(off)[..., -1], 0.0)
    return problem, pinched + (top + 0.5)[..., None] * (r == s)


def max_weight_diagonal(R: np.ndarray):
    """Maximize sum(w) subject to 0 <= diag(w) <= R + WEIGHT_RIDGE*I: the
    singleton blocks of weight_barrier, G = I.  Returns (w, iterations), or
    a list of them for a stack of R."""
    d = R.shape[-1]
    return barrier_descent(*weight_barrier(R, np.eye(d), [(k,) for k in range(d)]))


def min_dominating_diagonal(R: np.ndarray):
    """Minimize sum(y) subject to diag(y) >= R: the singleton blocks of
    robustness_barrier, G = I.  Returns (y, iterations), or a list of them
    for a stack of R."""
    d = R.shape[-1]
    return barrier_descent(*robustness_barrier(R, np.eye(d), [(k,) for k in range(d)]))


def _newton_direction(g, H, q, damping):
    """The step dq on the simplex's affine hull from the KKT system
    [H + damping diag(1/q) 1; 1^T 0][dq; nu] = [-g; 0], the Newton step at
    damping 0, and its decrement -g.dq; None if the solve fails or dq
    ascends by more than rounding.  A generator of requests."""
    d = len(g)
    kkt = np.ones((d + 1, d + 1))
    kkt[:d, :d] = H + damping * np.diag(1.0 / q)
    kkt[d, d] = 0.0
    try:
        x = yield "solve", kkt, np.append(-g, 0.0)
    except np.linalg.LinAlgError:
        return None
    decrement = float(-g @ x[:d])
    return (x[:d], decrement) if decrement > -_RESOLVE else None


def _first_armijo(q, val, g, trials, tvals):
    """The first row j of trials whose value tvals[j] lies an ARMIJO fraction
    of the predicted decrease g.(q - trials[j]) > 0 below val; None if none
    does."""
    drop = (q - trials) @ g
    return next((j for j, v in enumerate(tvals.tolist())
                 if drop[j] > 0 and v <= val - ARMIJO * drop[j]), None)


def _mirror_path(d, max_iter):
    """mirror_descent_simplex for one problem, as a generator of its requests."""
    q = np.full(d, 1.0 / d)
    vals, state = yield "values", q[None]
    val, row = float(vals[0]), 0
    carried = 1.0  # the first damping tried
    it = 0
    polished = False
    while True:
        g, H = yield "gradient", state, row
        gap = float(g @ q - g.min())
        floored = gap - MIRROR_FLOOR * (g - g.min()).sum()  # the gap a floored q can close
        if floored <= _GAP_ROUNDING or polished or it == max_iter:
            return q, val, it, gap <= MIRROR_GAP
        it += 1
        damping, row = 0.0, None
        while row is None:
            if damping > _DAMP_MAX:
                return q, val, it, gap <= MIRROR_GAP
            step = yield from _newton_direction(g, H, q, damping)
            if step is not None:
                dq, decrement = step
                # q + dq and q + dq/2, where a weight that the step would take
                # below _KEEP times its value, or below MIRROR_FLOOR, shrinks
                # to that instead, so that it blocks no other weight
                trials = np.maximum(q + np.array([[1.0], [0.5]]) * dq,
                                    np.maximum(_KEEP * q, MIRROR_FLOOR))
                trials /= trials.sum(axis=1, keepdims=True)
                tvals, state = yield "values", trials
                row = _first_armijo(q, val, g, trials, tvals)
                # where Armijo cannot resolve the decrease, take the full
                # step, as barrier_descent's polish steps do, and stop
                if row is None and decrement < _RESOLVE:
                    row, polished = 0, True
            if row is None:
                damping = 4.0 * damping if damping else carried
        if damping:
            carried = damping / 4.0
        q, val = trials[row], float(tvals[row])


def mirror_descent_simplex(values, gradient, d: int, max_iter: int = 2000, problems=None):
    """Minimize a smooth convex function f over the probability simplex by
    damped Newton steps, from the uniform q.

    values(Q) evaluates f at each row of a (k, d) stack of simplex points and
    returns (their values, state); gradient(state, j) returns the gradient g
    and Hessian H of f at row j of the stack that state came from, and is
    called only at the points where a step is taken.  Each iteration solves
    the KKT system [H + lam diag(1/q) 1; 1^T 0][dq; nu] = [-g; 0] for a step
    dq on the simplex's affine hull and tries q + dq and q + dq/2 in one
    values call, a weight that the step would take below _KEEP times its
    value, or below MIRROR_FLOOR, shrinking to that instead, and
    renormalized; it takes the first trial whose value lies an ARMIJO
    fraction of the predicted decrease g.(q - trial) below f(q).  Where
    neither does and the decrement -g.dq is below _RESOLVE, so that Armijo's
    test cannot resolve the decrease, it takes the full step, as
    barrier_descent's polish steps do, and stops.  lam is 0, the Newton
    step, unless the KKT solve fails, dq ascends or neither trial passes;
    then lam, diag(1/q) being the Hessian of the negative entropy, runs up
    from a quarter of the last lam that passed (1 at first) in fourfold
    rounds (Levenberg-Marquardt), and the solve stops past _DAMP_MAX.  It
    also stops once <g, q> - min g, the Frank-Wolfe gap, less the part that
    MIRROR_FLOOR keeps open, is at rounding level (_GAP_ROUNDING), or after
    max_iter steps, and returns (q, value, iterations, converged), converged
    saying whether the gap is at most MIRROR_GAP.

    With problems=n it minimizes n functions, each as it would alone, and
    returns a list of their n tuples.  Several problems are evaluated
    together (_drive): values(Q, owner) then evaluates row i of Q for
    problem owner[i], gradient(state, J) returns the stacks of gradients and
    Hessians at the rows J, and the KKT systems of a round are solved as one
    stack (_solve_many); a lone one gets the one-problem calls, which are
    problem 0's.
    """
    # a reply to a values request locates its rows by (state, first row);
    # every gradient request of a round is at rows of the last round's call
    def many_values(requests, owners):
        counts = [len(Q) for Q, in requests]
        vals, state = values(np.concatenate([Q for Q, in requests]), np.repeat(owners, counts))
        firsts = np.cumsum([0] + counts[:-1]).tolist()
        return [(vals[a:a + k], (state, a)) for a, k in zip(firsts, counts)]

    def many_gradient(requests, owners):
        (state, _), _ = requests[0]
        return list(zip(*gradient(state, np.array([a + j for (_, a), j in requests]))))

    found = _drive([_mirror_path(d, max_iter) for _ in range(problems or 1)],
                   {"values": values, "gradient": gradient, "solve": np.linalg.solve},
                   {"values": many_values, "gradient": many_gradient, "solve": _solve_many})
    return found[0] if problems is None else found
