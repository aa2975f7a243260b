"""Superposition measures: closed-form, variational, convex-roof and the
transposition-based measure for real bases.

All logarithms are base 2.  Solver-backed measures return a MeasureResult
whose certificate reproduces the value when re-evaluated (optimal free
weights for the relative-entropy measure, mixing data for robustness and
weight, the best ensemble found for convex roofs).
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .basis import SuperpositionBasis
from .channels import KrausChannel, apply, example1_channel, make_channel
from .errors import ChannelMismatch, ComplexBasis, ComplexCoefficients
from .qstate import (
    DensityMatrix,
    Ensemble,
    PureState,
    MEMBER_TOL,
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
from .solvers import max_weight_diagonal, min_dominating_diagonal, mirror_descent_simplex

LN2 = math.log(2.0)
SUPPORT_TOL = 1e-10
# Pattern search (derivative-free roofs, max_measure_value): first and
# smallest step along an ambient coordinate.
STEP0 = 0.7
STEP_MIN = 1e-4
# A roof search stops once the reported cost of a decomposition is within
# this distance of the certified lower bound it was given.
ROOF_GAP = 1e-9


@dataclass(frozen=True)
class MeasureResult:
    value: float
    certificate: object = None
    iterations: int = 0
    converged: bool = True

    def to_json(self) -> dict:
        cert = self.certificate
        if isinstance(cert, np.ndarray):
            cert = cert.tolist()
        elif isinstance(cert, Ensemble):
            cert = cert.to_json()
        elif isinstance(cert, dict):
            cert = {k: (v.tolist() if isinstance(v, np.ndarray) else
                        v.to_json() if hasattr(v, "to_json") else v)
                    for k, v in cert.items()}
        return {
            "value": self.value,
            "certificate": cert,
            "iterations": self.iterations,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class RoofOptions:
    """Knobs for the ensemble-decomposition search.

    ensemble_size_cap defaults to rank squared.  It sets the member count of
    the identity and the random starts only: the free-leaning start has d
    members and each of extra_starts as many as it has rows, so a search
    from one of them can return a larger ensemble than the cap.  restarts
    is the most starts searched (fewer once one meets the roof's lower
    bound); max_evals bounds one derivative-free search, run only by
    convex_roof with a caller's pure measure and roofs with a member_filter.
    member_filter restricts the admissible pure members (roofs over a
    restricted closed set); decompositions containing a rejected member are
    discarded.
    """

    ensemble_size_cap: Optional[int] = None
    restarts: int = 32
    max_evals: int = 6000
    seed: int = 0
    member_filter: Optional[Callable[[PureState], bool]] = None
    extra_starts: tuple = ()  # isometries (any row count >= rank) to seed from


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
    """min_q S(rho || sum_i q_i |c_i><c_i|) by exponentiated-gradient descent."""
    d = basis.dimension
    V = basis.vectors
    lr = np.clip(np.linalg.eigvalsh(rho.matrix), 0.0, None)
    const = float(np.sum(lr[lr > SUPPORT_TOL] * np.log(lr[lr > SUPPORT_TOL])))

    def f_grad(q):
        sigma = (V * q) @ V.conj().T
        s, U = np.linalg.eigh(sigma)
        s = np.clip(s, 1e-300, None)
        A = U.conj().T @ rho.matrix @ U
        val = const - float(np.sum(np.diag(A).real * np.log(s)))
        # Frechet derivative of log via the Loewner matrix
        ls = np.log(s)
        diff = s[:, None] - s[None, :]
        L = np.where(np.abs(diff) > 1e-14,
                     (ls[:, None] - ls[None, :]) / np.where(np.abs(diff) > 1e-14, diff, 1.0),
                     1.0 / s[:, None])
        B = U.conj().T @ V
        C = L * A.T
        g = -np.einsum("ai,ab,bi->i", B, C, B.conj()).real
        return val, g

    q, val, iters, converged = mirror_descent_simplex(f_grad, d, max_iter=max_iter)
    return MeasureResult(value=max(val / LN2, 0.0), certificate=q,
                         iterations=iters, converged=converged)


def m_robustness(rho: DensityMatrix, basis: SuperpositionBasis) -> MeasureResult:
    """Smallest s with (1+s) * (free state) - rho >= 0.

    In oblique coordinates this is min sum(y) - 1 over diag(y) >= R.
    """
    R = coefficients_of(rho, basis).entries
    y, iters = min_dominating_diagonal(R)
    total = float(y.sum())
    s = max(total - 1.0, 0.0)
    q = y / total
    cert = {"s": s, "q": q, "tau": None}
    if s > 1e-6:
        delta = free_state(basis, q)
        tau = ((1.0 + s) * delta.matrix - rho.matrix) / s
        cert["tau"] = DensityMatrix(clip_to_psd(tau))
    return MeasureResult(value=s, certificate=cert, iterations=iters)


def m_weight(rho: DensityMatrix, basis: SuperpositionBasis) -> MeasureResult:
    """1 - (largest free-state fraction in any split rho = lambda*delta + (1-lambda)*tau).

    In oblique coordinates: 1 - max sum(w) over 0 <= diag(w) <= R.
    """
    R = coefficients_of(rho, basis).entries
    w, iters = max_weight_diagonal(R)
    lam = float(np.clip(w.sum(), 0.0, 1.0))
    value = 1.0 - lam
    cert = {"w": w, "tau": None}
    if value > 1e-6:
        V = basis.vectors
        tau = (rho.matrix - (V * w) @ V.conj().T) / value
        cert["tau"] = DensityMatrix(clip_to_psd(tau))
    return MeasureResult(value=value, certificate=cert, iterations=iters)


# ---------------------------------------------------------------------------
# convex roof


def _coordinate_descent(fun, x0, budget, step0):
    x = np.array(x0, dtype=float)
    best = fun(x)
    evals = 1
    step = step0
    while step > STEP_MIN and evals < budget:
        improved = False
        for k in range(x.size):
            for s in (step, -step):
                old = x[k]
                x[k] = old + s
                v = fun(x)
                evals += 1
                if v < best - 1e-13:
                    best = v
                    improved = True
                    while evals < budget:  # ride the descent direction
                        x[k] += s
                        v2 = fun(x)
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
    return x, best, evals, step <= STEP_MIN


def _pattern_search(fun, T0, budget):
    """Coordinate descent from the isometry T0 over the real and imaginary
    parts of an ambient step X, each trial point retracted:
    T = _retract(T0 + X), so that X = 0 is T0 itself."""
    def chart(x):
        return _retract(T0 + x.view(complex).reshape(T0.shape))

    x, val, evals, conv = _coordinate_descent(
        lambda x: fun(chart(x)), np.zeros(2 * T0.size), budget, STEP0)
    return chart(x), val, evals, conv


def _roof_engine(rho: DensityMatrix, basis: SuperpositionBasis,
                 opts: RoofOptions, cost=None, value_grad=None,
                 lower: float = 0.0) -> MeasureResult:
    """Minimize an ensemble cost over ensembles of bounded size.

    Ensembles are isometries T applied to the eigen-decomposition: member m
    has oblique coefficients X[:, m] of X = Cc @ T.T and raw vector
    V @ X[:, m].  The starts form one list (identity, free-leaning,
    opts.extra_starts, then seeded random isometries).  lower is a certified
    lower bound on the roof.  If the cost of some start is within ROOF_GAP
    of it, the cheapest such start is returned unsearched.  Otherwise the
    starts are searched locally on the cost: all at once, one stack per
    start shape, by Riemannian descent when value_grad(X) gives the cost and
    its gradient wrt conj(X) for each of a stack of X (a zero gradient
    stops every search at its start); otherwise one after another by a
    retracted pattern search on cost(X), at most opts.max_evals evaluations
    each.  Both move the isometry T itself, with polar retraction, and
    accept only decreases, so the lowest search value wins (exact ties to
    the earlier start); this stops, and no further pattern search runs,
    once the winner is within ROOF_GAP of lower.
    A result within ROOF_GAP of lower is converged, and iterations counts
    every cost evaluation, the start checks and every search included.
    """
    B = weighted_eigvecs(rho)                   # d x r
    Cc = basis.biorthogonal_duals.conj().T @ B  # X = Cc @ T.T
    r = B.shape[1]
    n = max(opts.ensemble_size_cap or r * r, r)
    cost = cost or (lambda X: float(value_grad(X)[0]))

    def result(T, value, total, conv):
        return MeasureResult(value=max(value, 0.0),
                             certificate=ensemble_from_isometry(rho, T),
                             iterations=total, converged=conv)

    if r == 1:
        T = np.eye(1, 1, dtype=complex)
        return result(T, cost(Cc @ T.T), 1, True)

    starts = [np.eye(n, r, dtype=complex)]
    # free-leaning start: members aimed at the basis directions weighted by
    # the coefficient diagonal; the exact optimum whenever rho is free
    q = np.sum(np.abs(Cc) ** 2, axis=1)
    if q.sum() > 1e-12:
        starts.append(_retract((np.linalg.pinv(B) @ (basis.vectors * np.sqrt(q))).T))
    for extra in opts.extra_starts:
        starts.append(_retract(require_isometry_shape(extra, r)))
    while len(starts) < max(opts.restarts, 1):
        starts.append(random_isometry(n, r, opts.seed * 7919 + len(starts)))

    start_costs = [cost(Cc @ T0.T) for T0 in starts]
    total = len(starts)
    cheapest = min(range(len(starts)), key=start_costs.__getitem__)
    if start_costs[cheapest] - lower <= ROOF_GAP:
        return result(starts[cheapest], start_costs[cheapest], total, True)

    if value_grad is not None:
        def cost_grad(T):
            val, G = value_grad(Cc @ T.swapaxes(-1, -2))
            return val, G.swapaxes(-1, -2) @ Cc.conj()

        found = _stacked_riemannian_descent(cost_grad, starts)
        total += sum(evals for _, _, evals in found)
        searches = ((T, val, 0, True) for T, val, _ in found)
    else:
        searches = (_pattern_search(lambda T: cost(Cc @ T.T), T0, opts.max_evals)
                    for T0 in starts)
    best_cost, best_T, best_conv = math.inf, None, False
    for T, val, evals, conv in searches:
        total += evals
        if val < best_cost:
            best_cost, best_T, best_conv = val, T, conv
        if best_cost - lower <= ROOF_GAP:
            best_conv = True
            break
    return result(best_T, best_cost, total, best_conv)


def _generic_cost(pure_measure, member_filter, V):
    def cost(X):
        raw = V @ X
        total = 0.0
        for m in range(raw.shape[1]):
            p = float(np.sum(np.abs(raw[:, m]) ** 2))
            if p < MEMBER_TOL:
                continue
            phi = PureState(raw[:, m] / math.sqrt(p))
            if member_filter is not None and not member_filter(phi):
                return 1e6  # rejected member: far above any measure value
            total += p * pure_measure(phi)
        return total

    return cost


def _project_stiefel_tangent(T, G):
    A = T.conj().swapaxes(-1, -2) @ G
    return G - T @ (0.5 * (A + A.conj().swapaxes(-1, -2)))


def _retract(M):
    """Polar retraction onto the Stiefel manifold."""
    U, _, Vh = np.linalg.svd(M, full_matrices=False)
    return U @ Vh


def _stacked_riemannian_descent(value_grad, starts, max_iter=400, gtol=1e-10):
    """Backtracking gradient descent on the Stiefel manifold from each start,
    all starts of one shape in lockstep as one stack.

    value_grad(T) takes a stack T of isometries and returns their values and
    Euclidean gradients wrt conj(T).  Every start keeps its own step size,
    stall counter and iteration count, so it follows the trajectory it would
    follow alone; a start that stops leaves the stack.  A start stops when
    its projected gradient is below gtol, after max_iter accepted steps,
    after 5 steps that each gain < 1e-11, or when its backtracking step falls
    to 1e-13.  Returns (T, value, evaluations) per start, in order.
    """
    found = [None] * len(starts)
    for shape in dict.fromkeys(T0.shape for T0 in starts):
        idx = np.array([i for i, T0 in enumerate(starts) if T0.shape == shape])
        T = np.stack([starts[i] for i in idx])
        val, G = value_grad(T)
        PG = _project_stiefel_tangent(T, G)
        k = len(idx)
        evals, iters = np.ones(k, dtype=int), np.zeros(k, dtype=int)
        step, stall = np.ones(k), np.zeros(k, dtype=int)
        stop = np.linalg.norm(PG, axis=(-2, -1)) < gtol
        while True:
            if stop.any():
                for j in np.flatnonzero(stop):
                    found[idx[j]] = (T[j], float(val[j]), int(evals[j]))
                keep = ~stop
                T, val, PG, step, stall = T[keep], val[keep], PG[keep], step[keep], stall[keep]
                idx, evals, iters = idx[keep], evals[keep], iters[keep]
                if not idx.size:
                    break
            cand = _retract(T - step[:, None, None] * PG)
            cval, cG = value_grad(cand)
            evals += 1
            ok = cval < val - 1e-14
            stall = np.where(ok, np.where(val - cval < 1e-11, stall + 1, 0), stall)
            iters += ok
            val = np.where(ok, cval, val)
            T = np.where(ok[:, None, None], cand, T)
            PG = np.where(ok[:, None, None], _project_stiefel_tangent(cand, cG), PG)
            step = np.where(ok, np.minimum(step * 2.0, 10.0), step * 0.5)
            stop = np.where(ok, (stall >= 5) | (iters >= max_iter)
                            | (np.linalg.norm(PG, axis=(-2, -1)) < gtol), step <= 1e-13)
    return found


def _l1_value_grad(X):
    """Ensemble l1 cost sum_m ((sum_i a_im)^2 - sum_i a_im^2), a = |X|, of
    the member coefficient columns X (or of each matrix of a stack), and its
    (almost-everywhere) gradient wrt conj(X)."""
    a = np.abs(X)
    s = a.sum(axis=-2)
    grad = (2.0 * s[..., None, :] - 2.0 * a) * X / np.maximum(a, 1e-300)
    return (s**2).sum(axis=-1) - (a**2).sum(axis=(-2, -1)), grad


def _rank_value_grad(X, V, tol):
    """Ensemble rank cost sum_m p_m log2 #{i : |X_im| > tol sqrt(p_m)} over the
    members m with p_m = |V @ X[:, m]|^2 >= MEMBER_TOL, for X or each matrix of
    a stack, and its gradient: zero, as the cost is piecewise constant."""
    p = (np.abs(V @ X) ** 2).sum(axis=-2)
    counts = (np.abs(X) > tol * np.sqrt(p)[..., None, :]).sum(axis=-2)
    terms = np.where(p < MEMBER_TOL, 0.0, p * np.log2(np.maximum(counts, 1)))
    return terms.sum(axis=-1), np.zeros_like(X)


def _rel_ent_value_grad(X, basis):
    """Ensemble relative-entropy cost sum_m p_m m_rel_ent(phi_m) over the
    members m of X (or of each matrix of a stack) with raw vector
    v_m = V @ X[:, m] and p_m = |v_m|^2 >= MEMBER_TOL, and its gradient wrt
    conj(X).  A member's term min_q -v^dag log(sigma_q) v / ln 2 is
    quadratic in v at fixed q, so by the envelope theorem its gradient is
    -V^dag log(sigma_q*) v / ln 2 at the inner optimum q*."""
    V = basis.vectors
    raw = V @ X
    p = (np.abs(raw) ** 2).sum(axis=-2)
    val, grad = np.zeros(p.shape), np.zeros(X.shape, dtype=complex)
    for *k, m in zip(*np.nonzero(p >= MEMBER_TOL)):
        v = raw[(*k, slice(None), m)]
        res = m_rel_ent(PureState(v / math.sqrt(p[(*k, m)])).density(), basis, max_iter=400)
        s, U = np.linalg.eigh((V * res.certificate) @ V.conj().T)
        log_sigma = (U * np.log(np.clip(s, 1e-300, None))) @ U.conj().T
        val[(*k, m)] = p[(*k, m)] * res.value
        grad[(*k, slice(None), m)] = -(V.conj().T @ (log_sigma @ v)) / LN2
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
    the search stops at a decomposition of cost within ROOF_GAP of 0.  It
    needs no gradient: each start is searched by the derivative-free
    retracted pattern search, at most opts.max_evals evaluations.
    """
    return _roof_engine(rho, basis, opts,
                        cost=_generic_cost(pure_measure, opts.member_filter, basis.vectors))


def m_l1_roof(rho: DensityMatrix, basis: SuperpositionBasis,
              opts: RoofOptions = RoofOptions()) -> MeasureResult:
    if opts.member_filter is not None:
        return convex_roof(rho, basis, lambda phi: m_l1_pure(phi, basis), opts)
    return _roof_engine(rho, basis, opts, value_grad=_l1_value_grad,
                        lower=m_l1(rho, basis).value)


def m_rank(rho: DensityMatrix, basis: SuperpositionBasis,
           opts: RoofOptions = RoofOptions(), tol: float = 1e-6) -> MeasureResult:
    if opts.member_filter is not None:
        return convex_roof(
            rho, basis, lambda phi: m_rank_pure(phi, basis, tol).value, opts)
    return _roof_engine(rho, basis, opts,
                        value_grad=lambda X: _rank_value_grad(X, basis.vectors, tol))


def m_rel_ent_roof(rho: DensityMatrix, basis: SuperpositionBasis,
                   opts: RoofOptions = RoofOptions()) -> MeasureResult:
    if opts.member_filter is not None:
        return convex_roof(
            rho, basis, lambda phi: m_rel_ent(phi.density(), basis, max_iter=400).value, opts)
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
    the retracted pattern search over d x 1 isometries from seeded starts."""
    d = basis.dimension
    if d == 1:
        return 0.0
    best = 0.0
    for restart in range(restarts):
        _, val, _, _ = _pattern_search(lambda T: -pure_measure(PureState(T[:, 0])),
                                       random_isometry(d, 1, seed * 7919 + restart), max_evals)
        best = max(best, -val)
    return best
