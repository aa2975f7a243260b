"""Superposition-free Kraus channels.

A Kraus operator is superposition-free when it maps every basis vector to
a scalar multiple of a basis vector; such operators have the dyadic form
K = sum_k coeff_k |c_{f(k)}><c_k^perp| with an index map f, that is
K = V A V^-1 with at most one nonzero entry per column of A.  The channel
families here (cyclic preparations, permutation mixtures, the two-branch
qubit channel of the worked example) are the singleton-block case of the
block permutations in generalized.py, and one helper builds them all.
They are complete whenever every permutation preserves the Gram matrix,
as on constant-overlap bases; make_channel rejects any family that is not.
"""

from dataclasses import dataclass

import numpy as np

from .basis import SuperpositionBasis
from .errors import (
    DimensionMismatch,
    InvalidProbabilities,
    NotTracePreserving,
    WrongDimension,
)
from .qstate import DensityMatrix, _check_dims, matrix_to_json

COMPLETENESS_TOL = 1e-8
OUTCOME_TOL = 1e-12


@dataclass(frozen=True)
class KrausChannel:
    operators: tuple  # of d x d complex arrays
    completeness_defect: float

    @property
    def dimension(self) -> int:
        return self.operators[0].shape[0]

    def to_json(self) -> dict:
        return {
            "operators": [matrix_to_json(K) for K in self.operators],
            "metadata": {
                "trace_preserving": bool(self.completeness_defect <= COMPLETENESS_TOL),
                "superposition_free": None,  # depends on a basis; filled by callers
            },
        }


@dataclass(frozen=True)
class FreeKrausSpec:
    """One superposition-free Kraus operator: index map f on {0..d-1} and a
    complex coefficient per source index."""

    index_map: tuple
    coefficients: tuple


def completeness_defect(operators) -> float:
    d = operators[0].shape[0]
    acc = np.zeros((d, d), dtype=complex)
    for K in operators:
        acc += K.conj().T @ K
    return float(np.linalg.norm(acc - np.eye(d), ord=2))


def make_channel(operators, check: bool = True) -> KrausChannel:
    ops = tuple(np.array(K, dtype=complex) for K in operators)
    if not ops:
        raise NotTracePreserving("no Kraus operators given")
    for K in ops:
        K.setflags(write=False)
    defect = completeness_defect(ops)
    if check and defect > COMPLETENESS_TOL:
        raise NotTracePreserving(f"completeness defect {defect:g}")
    return KrausChannel(operators=ops, completeness_defect=defect)


def _oblique_channel(basis: SuperpositionBasis, matrices) -> KrausChannel:
    """Channel with Kraus operators V A V^-1, one per oblique matrix A."""
    Vinv = basis.biorthogonal_duals.conj().T
    return make_channel([basis.vectors @ A @ Vinv for A in matrices])


def build_free_kraus(basis: SuperpositionBasis, specs) -> KrausChannel:
    """A[f(k), k] = coefficient_k xi_k, since <c_k^perp| = xi_k <chat_k|."""
    d = basis.dimension
    mats = []
    for spec in specs:
        if len(spec.index_map) != d or len(spec.coefficients) != d:
            raise DimensionMismatch("spec arity does not match the basis dimension")
        if any(not (0 <= f < d) for f in spec.index_map):
            raise DimensionMismatch("index map value out of range")
        A = np.zeros((d, d), dtype=complex)
        A[list(spec.index_map), range(d)] = np.asarray(spec.coefficients) * basis.xi
        mats.append(A)
    return _oblique_channel(basis, mats)


def apply(channel: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    _check_dims(channel.dimension, rho.dimension)
    out = np.zeros_like(rho.matrix)
    for K in channel.operators:
        out = out + K @ rho.matrix @ K.conj().T
    return DensityMatrix(0.5 * (out + out.conj().T))


def apply_selective(channel: KrausChannel, rho: DensityMatrix):
    """Selective measurement outcomes [(p_n, rho_n)], zero-probability
    branches omitted."""
    _check_dims(channel.dimension, rho.dimension)
    outcomes = []
    for K in channel.operators:
        raw = K @ rho.matrix @ K.conj().T
        p = float(np.trace(raw).real)
        if p < OUTCOME_TOL:
            continue
        outcomes.append((p, DensityMatrix(0.5 * (raw + raw.conj().T) / p)))
    return outcomes


def is_superposition_free(channel: KrausChannel, basis: SuperpositionBasis,
                          tol: float = 1e-8) -> bool:
    """True iff every Kraus operator maps each basis vector to a scalar
    multiple of some basis vector, i.e. the oblique matrix V^-1 K V has at
    most one nonzero entry per column."""
    _check_dims(channel.dimension, basis.dimension)
    Vinv = basis.biorthogonal_duals.conj().T
    for K in channel.operators:
        A = Vinv @ K @ basis.vectors
        significant = np.abs(A) > tol
        if np.any(significant.sum(axis=0) > 1):
            return False
    return True


def _probabilities(probs, n: int) -> np.ndarray:
    """probs as a float vector of shape (n,), nonnegative up to 1e-12 and
    summing to 1 within 1e-9; InvalidProbabilities otherwise."""
    try:
        p = np.asarray(probs, dtype=float)
    except (TypeError, ValueError):
        p = None
    if p is None or p.shape != (n,) or not np.all(p >= -1e-12) or abs(p.sum() - 1) > 1e-9:
        raise InvalidProbabilities(f"not a probability vector of length {n}: {probs!r}")
    return p


def _permutation_channel(basis: SuperpositionBasis, blocks, permutations,
                         weights) -> KrausChannel:
    """Kraus operators sqrt(q_n) V P_n V^-1, where P_n moves block i onto
    block permutations[n][i] by the identity (moved blocks have equal
    sizes); singleton blocks give the plain index permutations.  The family
    is complete, and accepted by make_channel, when every P_n preserves the
    Gram matrix."""
    d = basis.dimension
    cols = np.concatenate(blocks)
    mats = []
    for perm, q in zip(permutations, weights):
        P = np.zeros((d, d))
        P[np.concatenate([blocks[j] for j in perm]), cols] = np.sqrt(max(q, 0.0))
        mats.append(P)
    return _oblique_channel(basis, mats)


def cyclic_preparation_channel(basis: SuperpositionBasis, probs) -> KrausChannel:
    """d operators K_i = sqrt(p_i) sum_k (1/xi_k)|c_{shift_i(k)}><c_k^perp|,
    the permutation mixture of the d cyclic shifts.

    Applied to |c_0><c_0| this prepares the free state sum_i p_i|c_i><c_i|.
    Exactly trace-preserving for constant-overlap bases; make_channel
    rejects it where it is not complete.
    """
    d = basis.dimension
    shifts = [[(k + i) % d for k in range(d)] for i in range(d)]
    return permutation_mixture_channel(basis, shifts, probs)


def permutation_mixture_channel(basis: SuperpositionBasis, permutations, weights) -> KrausChannel:
    """Kraus operators sqrt(q_n) V P_n V^-1 for index permutations P_n: the
    singleton-block case of the block permutations.

    Complete whenever every permutation preserves the Gram matrix, as on
    constant-overlap bases; make_channel rejects the family otherwise.
    """
    permutations = list(permutations)
    w = _probabilities(weights, len(permutations))
    d = basis.dimension
    for perm in permutations:
        if sorted(perm) != list(range(d)):
            raise DimensionMismatch(f"not a permutation of 0..{d - 1}: {perm!r}")
    return _permutation_channel(basis, [[k] for k in range(d)], permutations, w)


def example1_channel(basis: SuperpositionBasis) -> KrausChannel:
    """The two-branch qubit channel {K_1 identity-indexed, K_2 swap-indexed},
    each weighted sqrt(1/2): the identity-and-swap permutation mixture."""
    if basis.dimension != 2:
        raise WrongDimension("channel is defined for d = 2")
    return permutation_mixture_channel(basis, [(0, 1), (1, 0)], [0.5, 0.5])


def compose(a: KrausChannel, b: KrausChannel) -> KrausChannel:
    """Channel acting as a after b: Kraus list {A_m B_n}."""
    if a.dimension != b.dimension:
        raise DimensionMismatch(f"{a.dimension} vs {b.dimension}")
    ops = [A @ B for A in a.operators for B in b.operators]
    return make_channel(ops)


def random_free_channel(basis: SuperpositionBasis, seed) -> KrausChannel:
    """Random composition of cyclic preparations and permutation mixtures.

    Sampled from closed families known to be exactly trace-preserving and
    superposition-free on constant-overlap bases; this supplies concrete
    channels for the monotonicity property campaigns.
    """
    rng = np.random.default_rng(seed)
    d = basis.dimension
    parts = []
    for _ in range(int(rng.integers(1, 3))):
        if rng.random() < 0.5:
            p = rng.exponential(size=d)
            parts.append(cyclic_preparation_channel(basis, p / p.sum()))
        else:
            n = int(rng.integers(2, 4))
            perms = [rng.permutation(d) for _ in range(n)]
            q = rng.exponential(size=n)
            parts.append(permutation_mixture_channel(basis, perms, q / q.sum()))
    chan = parts[0]
    for nxt in parts[1:]:
        chan = compose(nxt, chan)
    return chan
