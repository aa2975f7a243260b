"""Superposition measures: closed-form, variational, convex-roof and the
transposition-based measure for real bases.

All logarithms are base 2.  Solver-backed measures return a MeasureResult
whose certificate reproduces the value when re-evaluated (optimal free
weights for the relative-entropy measure, mixing data for robustness and
weight, the best ensemble found for convex roofs).
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .basis import SuperpositionBasis, matrix_to_json
from .channels import KrausChannel, apply, example1_channel, make_channel
from .errors import ChannelMismatch, ComplexBasis, ComplexCoefficients, ParameterOutOfRange
from .qstate import (
    DensityMatrix,
    PureState,
    MEMBER_TOL,
    _check_dims,
    coefficients_of,
    ensemble_from_isometry,
    free_state,
    clip_to_psd,
    pure_coefficients,
    random_density,
    random_isometry,
    require_isometry_shape,
    rho_x,
    rho_x_eigenvalues,
    weighted_eigvecs,
)
from .solvers import _drive, max_weight_diagonal, min_dominating_diagonal, mirror_descent_simplex

LN2 = math.log(2.0)
SUPPORT_TOL = 1e-10
# Pattern search (derivative-free roofs, max_measure_value): first and
# smallest step along an ambient coordinate.
STEP0 = 0.7
STEP_MIN = 1e-4
# A roof search stops once the reported cost of a decomposition is within
# this distance of the certified lower bound it was given.
ROOF_GAP = 1e-9
# A Stiefel descent start stops below this projected gradient or after this many accepted steps.
STIEFEL_GTOL = 1e-10
STIEFEL_MAX_ITER = 400


@dataclass(frozen=True)
class MeasureResult:
    value: float
    certificate: object = None
    iterations: int = 0
    converged: bool = True

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "certificate": _jsonable(self.certificate),
            "iterations": self.iterations,
            "converged": self.converged,
        }


def _jsonable(obj):
    """A certificate as JSON, complex arrays as [re, im] pairs."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return matrix_to_json(obj) if np.iscomplexobj(obj) else obj.tolist()
    return obj.to_json() if hasattr(obj, "to_json") else obj


@dataclass(frozen=True)
class RoofOptions:
    """Knobs for the ensemble-decomposition search.

    The starts are the identity, the free-leaning start, every extra_starts
    entry, then restarts - 2 seeded random starts (none for restarts <= 2):
    there are 2 + len(extra_starts) + max(restarts - 2, 0), so restarts=1
    gives two, and none is searched once one meets the roof's lower bound.
    Adding an extra start or raising restarts only adds starts, so it never
    raises the roof by more than ROOF_GAP.  ensemble_size_cap
    (default rank squared) sets the member count of the identity and the
    random starts only: the free-leaning start has d members and an extra
    start as many as its rows, so the result can have more than the cap.
    max_evals bounds one derivative-free search, run only by convex_roof
    with a caller's pure measure.  Random start j is random_isometry(n, r,
    seed * 7919 + 2 + j), built once per process.  restarts, max_evals and a
    given cap must be integers >= 1, seed an integer >= 0 (else
    ParameterOutOfRange).
    """

    ensemble_size_cap: Optional[int] = None
    restarts: int = 32
    max_evals: int = 6000
    seed: int = 0
    extra_starts: tuple = ()  # isometries (any row count >= rank) to seed from

    def __post_init__(self):
        _require_options(self.seed, ensemble_size_cap=self.ensemble_size_cap,
                         restarts=self.restarts, max_evals=self.max_evals)


def _require_options(seed, **counts):
    """Raise ParameterOutOfRange unless seed is an integer >= 0 and each
    count an integer >= 1 or None."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ParameterOutOfRange(f"seed must be an integer >= 0, got {seed!r}")
    for name, value in counts.items():
        if value is not None and (not isinstance(value, (int, np.integer)) or value < 1):
            raise ParameterOutOfRange(f"{name} must be an integer at least 1, got {value!r}")


# ---------------------------------------------------------------------------
# closed-form measures


def m_l1(rho: DensityMatrix, basis: SuperpositionBasis) -> MeasureResult:
    """Sum of off-diagonal magnitudes of the oblique coefficient matrix."""
    R = coefficients_of(rho, basis).entries
    value = float(np.sum(np.abs(R)) - np.sum(np.abs(np.diag(R))))
    return MeasureResult(value=value)


def m_l1_pure(phi: PureState, basis: SuperpositionBasis) -> float:
    c = np.abs(pure_coefficients(phi, basis))
    return float(c.sum() ** 2 - (c**2).sum())


def m_rank_pure(phi: PureState, basis: SuperpositionBasis,
                tol: float = 1e-6) -> MeasureResult:
    c = np.abs(pure_coefficients(phi, basis))
    r = int(np.count_nonzero(c > tol))
    return MeasureResult(value=math.log2(max(r, 1)))


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """S(rho||sigma) in bits; +inf when supp(rho) is not within supp(sigma)."""
    lr, Ur = np.linalg.eigh(rho.matrix)
    ls, Us = np.linalg.eigh(sigma.matrix)
    lr = np.clip(lr, 0.0, None)
    tr_rho_log_rho = float(np.sum(lr[lr > SUPPORT_TOL] * np.log(lr[lr > SUPPORT_TOL])))
    null = ls <= SUPPORT_TOL
    if np.any(null):
        Pnull = Us[:, null]
        leak = float(np.trace(Pnull.conj().T @ rho.matrix @ Pnull).real)
        if leak > 1e-9:
            return math.inf
    supp = ~null
    diag = np.einsum("ij,jk,ki->i", Us.conj().T, rho.matrix, Us).real
    tr_rho_log_sigma = float(np.sum(diag[supp] * np.log(ls[supp])))
    return max((tr_rho_log_rho - tr_rho_log_sigma) / LN2, 0.0)


# ---------------------------------------------------------------------------
# variational measures over the free simplex


def m_rel_ent(rho: DensityMatrix, basis: SuperpositionBasis,
              max_iter: int = 2000) -> MeasureResult:
    """min_q S(rho || sum_i q_i |c_i><c_i|) by damped Newton steps on the
    simplex (mirror_descent_simplex).  The certificate is q; converged says
    that the Frank-Wolfe gap at q is at most solvers.MIRROR_GAP (in nats)."""
    return _m_rel_ent_many([rho], basis, max_iter)[0]


def _m_rel_ent_many(rhos, basis: SuperpositionBasis, max_iter: int = 2000) -> list:
    """m_rel_ent of each state, all in one mirror_descent_simplex call.
    The objective is f(q) = Tr rho log rho - Tr rho log sigma(q) in nats,
    and gradient(state, j) returns its gradient and Hessian in q."""
    for rho in rhos:
        _check_dims(rho.dimension, basis.dimension)
    d = basis.dimension
    V = basis.vectors
    P = np.stack([rho.matrix for rho in rhos])
    const = np.array([float(np.sum(lr[lr > SUPPORT_TOL] * np.log(lr[lr > SUPPORT_TOL])))
                      for lr in np.clip(np.linalg.eigvalsh(P), 0.0, None)])

    def values(Q, owner=0):
        s, U = np.linalg.eigh((V * Q[:, None, :]) @ V.conj().T)
        s = np.clip(s, 1e-300, None)
        A = U.conj().swapaxes(-1, -2) @ P[owner] @ U
        ls = np.log(s)
        return const[owner] - np.sum(A.diagonal(0, -2, -1).real * ls, axis=-1), (s, U, A, ls)

    def gradient(state, j):
        # Frechet derivative of log via the Loewner matrix L (first divided
        # differences of log at the eigenvalues of sigma), its second
        # derivative via the second divided differences L2[a, c, b] (Bhatia,
        # Matrix Analysis, ch. V)
        s, U, A, ls = (x[j] for x in state)
        diff = s[..., :, None] - s[..., None, :]
        top = np.maximum(s[..., :, None], s[..., None, :])
        # log(s_a / s_b) by log1p where s_a / s_b lies in (1/2, 2), so that
        # near-equal eigenvalues keep every digit of their quotient
        close = np.abs(diff) < 0.5 * top
        safe = np.where(diff == 0.0, 1.0, diff)
        L = np.where(diff == 0.0, 1.0 / s[..., :, None],
                     np.where(close, np.log1p(np.where(close, diff, 0.0) / s[..., None, :]),
                              ls[..., :, None] - ls[..., None, :]) / safe)
        B = U.conj().swapaxes(-1, -2) @ V
        At = A.swapaxes(-1, -2)
        g = -np.einsum("...ai,...ab,...bi->...i", B, L * At, B.conj()).real
        # close pairs take the limit at the first point, so that no
        # difference quotient loses more than half the digits
        far = np.abs(diff) > 1e-8 * top
        step = np.where(far, diff, 1.0)
        dL = np.where(far, (1.0 / s[..., :, None] - L) / step,
                      -0.5 / s[..., :, None] ** 2)  # d/dx log[x, s_c] at x = s_a
        L2 = np.where(far[..., :, None, :],
                      (L[..., :, :, None] - L[..., None, :, :]) / step[..., :, None, :],
                      dL[..., :, :, None])
        # K_ij = sum_c conj(B_ci) B_cj (B^T M_c conj(B))_ij, M_c[a, b] = A_ba L2[a, c, b]
        M = L2.swapaxes(-3, -2) * At[..., None, :, :]
        N = B.swapaxes(-1, -2)[..., None, :, :] @ M @ B.conj()[..., None, :, :]
        K = (B.conj()[..., :, :, None] * B[..., :, None, :] * N).sum(axis=-3)
        return g, -(K + K.swapaxes(-1, -2)).real

    found = mirror_descent_simplex(values, gradient, d, max_iter=max_iter, problems=len(rhos))
    return [MeasureResult(value=max(val / LN2, 0.0), certificate=q,
                          iterations=iters, converged=converged)
            for q, val, iters, converged in found]


def m_robustness(rho: DensityMatrix, basis: SuperpositionBasis) -> MeasureResult:
    """Smallest s with (1+s) * (free state) - rho >= 0.

    In oblique coordinates this is min sum(y) - 1 over diag(y) >= R.
    """
    return _m_robustness_many([rho], basis)[0]


def _m_robustness_many(rhos, basis: SuperpositionBasis) -> list:
    """m_robustness of each state, all in one min_dominating_diagonal call."""
    R = np.stack([coefficients_of(rho, basis).entries for rho in rhos])
    found = []
    for rho, (y, iters) in zip(rhos, min_dominating_diagonal(R)):
        total = float(y.sum())
        s = max(total - 1.0, 0.0)
        q = y / total
        cert = {"s": s, "q": q, "tau": None}
        if s > 1e-6:
            delta = free_state(basis, q)
            tau = ((1.0 + s) * delta.matrix - rho.matrix) / s
            cert["tau"] = DensityMatrix(clip_to_psd(tau))
        found.append(MeasureResult(value=s, certificate=cert, iterations=iters))
    return found


def m_weight(rho: DensityMatrix, basis: SuperpositionBasis) -> MeasureResult:
    """1 - (largest free-state fraction in any split rho = lambda*delta + (1-lambda)*tau).

    In oblique coordinates: 1 - max sum(w) over 0 <= diag(w) <= R.
    """
    return _m_weight_many([rho], basis)[0]


def _m_weight_many(rhos, basis: SuperpositionBasis) -> list:
    """m_weight of each state, all in one max_weight_diagonal call."""
    R = np.stack([coefficients_of(rho, basis).entries for rho in rhos])
    V = basis.vectors
    found = []
    for rho, (w, iters) in zip(rhos, max_weight_diagonal(R)):
        lam = float(np.clip(w.sum(), 0.0, 1.0))
        value = 1.0 - lam
        cert = {"w": w, "tau": None}
        if value > 1e-6:
            tau = (rho.matrix - (V * w) @ V.conj().T) / value
            cert["tau"] = DensityMatrix(clip_to_psd(tau))
        found.append(MeasureResult(value=value, certificate=cert, iterations=iters))
    return found


# ---------------------------------------------------------------------------
# convex roof


def _pattern_search(fun, T0, value, budget):
    """Coordinate descent from the isometry T0, whose value fun(T0) the
    caller has evaluated, over the real and imaginary parts of an ambient
    step X, each trial point retracted: T = _retract(T0 + X).  A coordinate
    step that lowers fun is repeated while it keeps lowering it; the step
    halves after a sweep without a decrease.  Returns (T, value,
    evaluations, converged): T0 and value if no step lowers fun, evaluations
    counting the trial points only, and converged once the step falls to
    STEP_MIN within budget evaluations, T0's among them."""
    def chart(x):
        return _retract(T0 + x.view(complex).reshape(T0.shape))

    x = np.zeros(2 * T0.size)
    best = value
    evals = 1  # T0's
    step = STEP0
    while step > STEP_MIN and evals < budget:
        improved = False
        for k in range(x.size):
            for s in (step, -step):
                old = x[k]
                x[k] = old + s
                v = fun(chart(x))
                evals += 1
                if v < best - 1e-13:
                    best = v
                    improved = True
                    while evals < budget:  # ride the descent direction
                        x[k] += s
                        v2 = fun(chart(x))
                        evals += 1
                        if v2 < best - 1e-13:
                            best = v2
                        else:
                            x[k] -= s
                            break
                    break
                x[k] = old
        if not improved:
            step *= 0.5
    return T0 if best == value else chart(x), best, evals - 1, step <= STEP_MIN


@functools.lru_cache(maxsize=1024)
def _seeded_isometry(n: int, r: int, seed: int) -> np.ndarray:
    """random_isometry(n, r, seed), built once per process and read-only."""
    T = random_isometry(n, r, seed)
    T.flags.writeable = False
    return T


def _roof_engine(rho: DensityMatrix, basis: SuperpositionBasis, opts: RoofOptions,
                 value_grad, lower: float = 0.0) -> MeasureResult:
    """Minimize an ensemble cost over ensembles of bounded size.

    Ensembles are isometries T applied to the eigen-decomposition: member m
    has oblique coefficients X[:, m] of X = Cc @ T.T and raw vector
    V @ X[:, m].  value_grad(X) gives the costs of a stack of X and either
    G = None or a gradient G per X: the real gradient df/dRe X + i df/dIm X
    (_l1_value_grad) or half of it, df/dconj(X) (_rel_ent_value_grad), as
    the factor only rescales the descent's steps.  The starts form one list
    (identity, free-leaning, opts.extra_starts, then seeded random
    isometries, which depend only on (n, r, opts.seed) and are built once
    per process).  Every start is zero-padded to the largest row count (a
    zero row is a member of weight 0) and the one stack is evaluated once,
    as the start check and as every search's start: given G, one stacked
    Riemannian descent (_stacked_riemannian_descent), which tries its step
    ladder in pairs (a zero G stops every search at its start); given
    G = None, a retracted pattern search per unpadded start of at most
    opts.max_evals evaluations, the start's included.  Both move T, with
    polar retraction, and accept only decreases.  lower is a certified lower
    bound on the roof.
    One rule picks the winner among the starts and, unless one is within
    ROOF_GAP of lower, among the searches: the lowest value, ties to the
    earlier start, every value within ROOF_GAP of lower counting as lowest,
    so the earliest of those wins and is converged.  iterations counts every
    cost evaluation: one per start, then every search's further ones.
    """
    _check_dims(rho.dimension, basis.dimension)
    B = weighted_eigvecs(rho)                   # d x r
    Cc = basis.biorthogonal_duals.conj().T @ B  # X = Cc @ T.T
    r = B.shape[1]
    n = max(opts.ensemble_size_cap or r * r, r)

    def result(T, value, total, conv):
        return MeasureResult(value=max(value, 0.0),
                             certificate=ensemble_from_isometry(rho, T),
                             iterations=total, converged=conv)

    if r == 1:
        T = np.eye(1, 1, dtype=complex)
        return result(T, float(value_grad(Cc @ T.T)[0]), 1, True)

    starts = [np.eye(n, r, dtype=complex)]
    # free-leaning start: members aimed at the basis directions weighted by
    # the coefficient diagonal; the exact optimum whenever rho is free
    q = np.sum(np.abs(Cc) ** 2, axis=1)
    starts.append(_retract((np.linalg.pinv(B) @ (basis.vectors * np.sqrt(q))).T))
    for extra in opts.extra_starts:
        starts.append(_retract(require_isometry_shape(extra, r)))
    # random start j has its own seed, so extra starts add to the random
    # ones instead of taking their places: more effort never loses a start
    for j in range(opts.restarts - 2):
        starts.append(_seeded_isometry(n, r, opts.seed * 7919 + 2 + j))

    def cost_grad(T):
        val, G = value_grad(Cc @ T.swapaxes(-1, -2))
        return val, None if G is None else G.swapaxes(-1, -2) @ Cc.conj()

    def best(found):
        # every record within ROOF_GAP of lower ties at the clamp, so the
        # earliest of them wins; min keeps the earliest of any exact tie
        T, val, _, conv = min(found, key=lambda f: max(f[1], lower + ROOF_GAP))
        return T, val, conv or val - lower <= ROOF_GAP

    T0 = np.zeros((len(starts), max(len(S) for S in starts), r), dtype=complex)
    for row, S in zip(T0, starts):
        row[:len(S)] = S
    val0, G0 = cost_grad(T0)
    found = [(S, float(v), 0, False) for S, v in zip(starts, val0)]
    T, val, conv = best(found)
    if not conv:
        if G0 is None:  # coordinate probes on a zero row would add members
            found = [_pattern_search(lambda T: float(value_grad(Cc @ T.T)[0]),
                                     S, float(v), opts.max_evals) for S, v in zip(starts, val0)]
        else:
            found = [(*f, True) for f in _stacked_riemannian_descent(cost_grad, T0, val0, G0)]
        T, val, conv = best(found)
    return result(T, val, len(starts) + sum(f[2] for f in found), conv)


def _project_stiefel_tangent(T, G):
    A = T.conj().swapaxes(-1, -2) @ G
    return G - T @ (0.5 * (A + A.conj().swapaxes(-1, -2)))


def _retract(M):
    """Polar retraction onto the Stiefel manifold."""
    U, _, Vh = np.linalg.svd(M, full_matrices=False)
    return U @ Vh


def _stiefel_path(T, val, PG, norm):
    """_stacked_riemannian_descent for one start, as a generator of its
    requests; each trial's reply is (T, value, PG, |PG|) at the trial point."""
    evals = iters = stall = 0
    step = 1.0
    while not (norm < STIEFEL_GTOL or stall >= 5 or iters >= STIEFEL_MAX_ITER or step <= 1e-13):
        steps = (step, 0.5 * step) if 0.5 * step > 1e-13 else (step,)
        trials = yield "trials", T, PG, steps
        # the first trial that lowers the value, else the last
        j = next((j for j, trial in enumerate(trials) if trial[1] < val - 1e-14), len(steps) - 1)
        evals += j + 1
        if trials[j][1] < val - 1e-14:
            stall = stall + 1 if val - trials[j][1] < 1e-11 else 0
            iters += 1
            T, val, PG, norm = trials[j]
            step = min(steps[j] * 2.0, 10.0)
        else:
            step = steps[j] * 0.5
    return T, val, evals


def _stacked_riemannian_descent(value_grad, T, val, G):
    """Backtracking gradient descent on the Stiefel manifold from each
    isometry of the stack T, from the values val and gradients G that the
    caller evaluated at T.

    value_grad(T) returns the values and Euclidean gradients of a stack T:
    the real gradient df/dRe T + i df/dIm T or a fixed positive multiple of
    it, such as df/dconj(T), its half.  Steps start at length 1, so the
    multiple changes the path taken, not the direction.  Every start keeps
    its own step size, stall counter and iteration count, so it follows the
    trajectory it would follow alone (_stiefel_path).  A start stops when
    its projected gradient is below STIEFEL_GTOL, after STIEFEL_MAX_ITER
    accepted steps, after 5 steps that each gain < 1e-11, or when its step
    falls to 1e-13.
    Returns (T, value, evaluations) per start, in order; evaluations counts
    trial points only.

    The ladder is tried in pairs: each round evaluates step and step/2 (if
    above 1e-13) of every live start from the same T, all starts' trials in
    one stacked _retract, value_grad and tangent projection (solvers._drive),
    and a start takes the first trial that lowers its value.  Each stack row
    gets the bits it gets alone, so every T, value and evaluation count
    (step/2 counted only when step fails) is that of one trial per round.
    """
    PG = _project_stiefel_tangent(T, G)

    def trials(requests, owners):
        T, PG, steps = (np.stack(a) for a in zip(*[(T0, PG0, step) for T0, PG0, steps in requests
                                                   for step in steps]))
        cand = _retract(T - steps[:, None, None] * PG)
        cval, cG = value_grad(cand)
        cPG = _project_stiefel_tangent(cand, cG)
        found = iter(zip(cand, cval.tolist(), cPG, np.linalg.norm(cPG, axis=(-2, -1)).tolist()))
        return [[next(found) for _ in steps] for _, _, steps in requests]

    paths = [_stiefel_path(*start) for start in
             zip(T, val.tolist(), PG, np.linalg.norm(PG, axis=(-2, -1)).tolist())]
    return _drive(paths, {"trials": lambda *args: trials([args], None)[0]}, {"trials": trials})


def _l1_value_grad(X):
    """Ensemble l1 cost sum_m ((sum_i a_im)^2 - sum_i a_im^2), a = |X|, of
    the member coefficient columns X (or of each matrix of a stack), and its
    (almost-everywhere) real gradient G = df/dRe X + i df/dIm X, which is
    2 df/dconj(X)."""
    a = np.abs(X)
    s = a.sum(axis=-2)
    grad = (2.0 * s[..., None, :] - 2.0 * a) * X / np.maximum(a, 1e-300)
    return (s**2).sum(axis=-1) - (a**2).sum(axis=(-2, -1)), grad


def _rank_value_grad(X, V, tol):
    """Ensemble rank cost sum_m p_m log2 #{i : |X_im| > tol sqrt(p_m)} over the
    members m with p_m = |V @ X[:, m]|^2 >= MEMBER_TOL, for X or each matrix of
    a stack, and its gradient: zero, as the cost is piecewise constant.  The
    cost is rounded to 12 decimals, far above its rounding and far below
    ROOF_GAP, so that ensembles of equal cost compare equal whatever shape
    BLAS sees, and the roof's min keeps the earliest start among them."""
    p = (np.abs(V @ X) ** 2).sum(axis=-2)
    counts = (np.abs(X) > tol * np.sqrt(p)[..., None, :]).sum(axis=-2)
    terms = np.where(p < MEMBER_TOL, 0.0, p * np.log2(np.maximum(counts, 1)))
    return np.round(terms.sum(axis=-1), 12), np.zeros_like(X)


def _rel_ent_value_grad(X, basis):
    """Ensemble relative-entropy cost sum_m p_m m_rel_ent(phi_m) over the
    members m of X (or of each matrix of a stack) with raw vector
    v_m = V @ X[:, m] and p_m = |v_m|^2 >= MEMBER_TOL, and its gradient
    G = df/dconj(X), half the real gradient: df/dRe X = 2 Re G.  A member's
    term min_q -v^dag log(sigma_q) v / ln 2 is quadratic in v at fixed q,
    so by the envelope theorem its gradient is -V^dag log(sigma_q*) v / ln 2
    at the inner optimum q*.  The members' inner solves run together, and
    their sigma_q* are decomposed as one stack."""
    V = basis.vectors
    raw = V @ X
    p = (np.abs(raw) ** 2).sum(axis=-2)
    val, grad = np.zeros(p.shape), np.zeros(X.shape, dtype=complex)
    members = [((*k, slice(None), m), (*k, m)) for *k, m in zip(*np.nonzero(p >= MEMBER_TOL))]
    found = _m_rel_ent_many([PureState(raw[col] / math.sqrt(p[at])).density()
                             for col, at in members], basis, 400)
    s, U = np.linalg.eigh((V * np.array([res.certificate for res in found])[:, None, :])
                          @ V.conj().T)
    log_sigma = (U * np.log(np.clip(s, 1e-300, None))[:, None, :]) @ U.conj().swapaxes(-1, -2)
    for (col, at), res, L in zip(members, found, log_sigma):
        val[at] = p[at] * res.value
        grad[col] = -(V.conj().T @ (L @ raw[col])) / LN2
    return val.sum(axis=-1), grad


def ensemble_warm_start(rho: DensityMatrix, weighted_members) -> np.ndarray:
    """Isometry seeding the roof search from a known decomposition of rho.

    weighted_members: iterable of (probability, PureState) summing to rho.
    Useful for convexity checks: concatenating the optimal ensembles of the
    mixture components gives a decomposition of the mixture.
    """
    B = weighted_eigvecs(rho)
    raw = np.stack([math.sqrt(max(p, 0.0)) * phi.vector
                    for p, phi in weighted_members], axis=1)
    return (np.linalg.pinv(B) @ raw).T


def convex_roof(rho: DensityMatrix, basis: SuperpositionBasis,
                pure_measure: Callable[[PureState], float],
                opts: RoofOptions = RoofOptions()) -> MeasureResult:
    """Approximate min over decompositions of the ensemble average of a
    pure-state measure, searched on that average itself; the result is the
    cost of the returned decomposition, an upper bound on the true roof.

    pure_measure must be nonnegative, as every superposition measure is:
    0 is its lower bound for the roof engine.  It needs no gradient: each
    start is searched by the derivative-free retracted pattern search, at
    most opts.max_evals evaluations.
    """
    V = basis.vectors

    def value_grad(X):  # no gradient: the pattern search
        raw = V @ X
        total = np.zeros(raw.shape[:-2])
        for k in np.ndindex(total.shape):
            for v in raw[k].T:
                p = float(np.sum(np.abs(v) ** 2))
                if p >= MEMBER_TOL:
                    total[k] += p * pure_measure(PureState(v / math.sqrt(p)))
        return total, None

    return _roof_engine(rho, basis, opts, value_grad)


def m_l1_roof(rho: DensityMatrix, basis: SuperpositionBasis,
              opts: RoofOptions = RoofOptions()) -> MeasureResult:
    return _roof_engine(rho, basis, opts, value_grad=_l1_value_grad,
                        lower=m_l1(rho, basis).value)


def m_rank(rho: DensityMatrix, basis: SuperpositionBasis,
           opts: RoofOptions = RoofOptions(), tol: float = 1e-6) -> MeasureResult:
    return _roof_engine(rho, basis, opts,
                        value_grad=lambda X: _rank_value_grad(X, basis.vectors, tol))


def m_rel_ent_roof(rho: DensityMatrix, basis: SuperpositionBasis,
                   opts: RoofOptions = RoofOptions()) -> MeasureResult:
    return _roof_engine(rho, basis, opts, value_grad=lambda X: _rel_ent_value_grad(X, basis))


# ---------------------------------------------------------------------------
# state-transformation measure on the worked qubit family


def example1_optimal_state(x: float, mu: float) -> PureState:
    """The closed-form pure state whose two-branch channel image is rho(x)."""
    lam1, lam2 = rho_x_eigenvalues(x, mu)
    lam1 = max(lam1, 0.0)
    lam2 = max(lam2, 0.0)
    _, basis = rho_x(x, mu)
    norm = math.sqrt(0.5 * (lam1 + lam2))
    a = (math.sqrt(lam1 / (4 * mu + 4)) + math.sqrt(lam2 / (4 - 4 * mu))) / norm
    b = (math.sqrt(lam1 / (4 * mu + 4)) - math.sqrt(lam2 / (4 - 4 * mu))) / norm
    vec = a * basis.vectors[:, 0] + b * basis.vectors[:, 1]
    return PureState(vec / np.linalg.norm(vec))


def gamma_example1(x: float, mu: float):
    """State-transformation value on the worked family, with the channel
    identity verified: the two-branch channel maps the optimal pure state
    onto rho(x), and the value is the closed form 2|x|/(1+2*mu*x)."""
    rho, basis = rho_x(x, mu)
    phi0 = example1_optimal_state(x, mu)
    chan = example1_channel(basis)
    image = apply(chan, phi0.density())
    if np.max(np.abs(image.matrix - rho.matrix)) > 1e-9:
        raise ChannelMismatch("channel image does not reproduce rho(x)")
    value = m_l1_pure(phi0, basis)
    closed = 2.0 * abs(x) / (1.0 + 2.0 * mu * x)
    if abs(value - closed) > 1e-9:
        raise ChannelMismatch(
            f"measure of the optimal state {value} != closed form {closed}")
    return phi0, MeasureResult(value=value, certificate={"x": x, "mu": mu})


# ---------------------------------------------------------------------------
# transposition-based measure for real bases


def _require_real_basis(basis: SuperpositionBasis):
    if not basis.is_real:
        raise ComplexBasis("operation requires a real basis matrix")


def _delta_raw(matrix: np.ndarray, basis: SuperpositionBasis) -> np.ndarray:
    Vinv = basis.biorthogonal_duals.conj().T
    R = Vinv @ matrix @ Vinv.conj().T
    Rp = 0.5 * (R + R.T)
    return basis.vectors @ Rp @ basis.vectors.conj().T


def delta_map(rho: DensityMatrix, basis: SuperpositionBasis) -> DensityMatrix:
    """Average of rho with its oblique-coefficient transpose; fixed points
    are exactly the states with real coefficient matrix."""
    _require_real_basis(basis)
    _check_dims(rho.dimension, basis.dimension)
    out = _delta_raw(rho.matrix, basis)
    return DensityMatrix(0.5 * (out + out.conj().T))


def m_delta(rho: DensityMatrix, basis: SuperpositionBasis) -> MeasureResult:
    _require_real_basis(basis)
    return MeasureResult(value=relative_entropy(rho, delta_map(rho, basis)))


def real_dual_kraus(basis: SuperpositionBasis, coefficient_matrices) -> KrausChannel:
    """Channel with operators W c_n W^T built from unit-norm duals W.

    The coefficient matrices are rescaled on the right by the
    Gram-weighted factor that makes the Kraus sum exactly complete; the
    rescaling is real, so the real-coefficient structure (and hence
    commutation with the transposition average) is preserved.
    """
    _require_real_basis(basis)
    cs = [np.asarray(c, dtype=float if np.isrealobj(c) else complex)
          for c in coefficient_matrices]
    for c in cs:
        if np.iscomplexobj(c) and np.max(np.abs(c.imag)) > 1e-12:
            raise ComplexCoefficients("coefficient matrices must be real")
    cs = [np.asarray(c, dtype=float).real if np.iscomplexobj(c) else c for c in cs]
    W = basis.duals.real
    H = W.T @ W
    Q = sum(c.T @ H @ c for c in cs)
    evq, Uq = np.linalg.eigh(Q)
    if evq.min() <= 1e-12:
        raise ComplexCoefficients("degenerate coefficient family")
    Qinvsqrt = (Uq / np.sqrt(evq)) @ Uq.T
    evh, Uh = np.linalg.eigh(H)
    Hinvsqrt = (Uh / np.sqrt(evh)) @ Uh.T
    N = Qinvsqrt @ Hinvsqrt
    ops = [W @ (c @ N) @ W.T for c in cs]
    chan = make_channel(ops)
    # commutation sanity check on a couple of seeded states
    for seed in (11, 12):
        probe = random_density(basis.dimension, basis.dimension, seed).matrix
        for K in chan.operators:
            lhs = _delta_raw(K @ probe @ K.conj().T, basis)
            rhs = K @ _delta_raw(probe, basis) @ K.conj().T
            if np.max(np.abs(lhs - rhs)) > 1e-8:
                raise ChannelMismatch("transposition average does not commute")
    return chan


# ---------------------------------------------------------------------------
# numerical maximum over pure states


def max_measure_value(basis: SuperpositionBasis,
                      pure_measure: Callable[[PureState], float],
                      restarts: int = 16, seed: int = 0,
                      max_evals: int = 4000) -> float:
    """Best-effort maximum of a pure-state measure over the unit sphere, by
    the retracted pattern search over d x 1 isometries from seeded starts.
    restarts and max_evals must be integers >= 1, and seed an integer >= 0
    (ParameterOutOfRange otherwise)."""
    _require_options(seed, restarts=restarts, max_evals=max_evals)
    d = basis.dimension
    if d == 1:
        return 0.0

    def cost(T):
        return -pure_measure(PureState(T[:, 0]))

    best = 0.0
    for restart in range(restarts):
        T0 = random_isometry(d, 1, seed * 7919 + restart)
        _, val, _, _ = _pattern_search(cost, T0, cost(T0), max_evals)
        best = max(best, -val)
    return best
