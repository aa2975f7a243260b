"""Superposition-free Kraus channels.

A Kraus operator is superposition-free when it maps every basis vector to
a scalar multiple of a basis vector; such operators have the dyadic form
K = sum_k coeff_k |c_{f(k)}><c_k^perp| with an index map f.  The channel
families here (cyclic preparations, permutation mixtures, the two-branch
qubit channel of the worked example) are exactly trace-preserving by
construction on permutation-invariant Gram matrices.
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
from .qstate import DensityMatrix, matrix_to_json

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


def _assemble(specs, basis: SuperpositionBasis):
    d = basis.dimension
    ops = []
    for spec in specs:
        if len(spec.index_map) != d or len(spec.coefficients) != d:
            raise DimensionMismatch("spec arity does not match the basis dimension")
        if any(not (0 <= f < d) for f in spec.index_map):
            raise DimensionMismatch("index map value out of range")
        K = np.zeros((d, d), dtype=complex)
        for k in range(d):
            K += spec.coefficients[k] * np.outer(
                basis.vectors[:, spec.index_map[k]], basis.duals[:, k].conj())
        ops.append(K)
    return ops


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


def build_free_kraus(basis: SuperpositionBasis, specs) -> KrausChannel:
    return make_channel(_assemble(specs, basis))


def apply(channel: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    out = np.zeros_like(rho.matrix)
    for K in channel.operators:
        out = out + K @ rho.matrix @ K.conj().T
    return DensityMatrix(0.5 * (out + out.conj().T))


def apply_selective(channel: KrausChannel, rho: DensityMatrix):
    """Selective measurement outcomes [(p_n, rho_n)], zero-probability
    branches omitted."""
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
    Vinv = basis.biorthogonal_duals.conj().T
    for K in channel.operators:
        A = Vinv @ K @ basis.vectors
        significant = np.abs(A) > tol
        if np.any(significant.sum(axis=0) > 1):
            return False
    return True


def _check_gram_permutation_invariant(basis: SuperpositionBasis):
    G = basis.gram
    off = G[~np.eye(basis.dimension, dtype=bool)]
    if off.size and (np.max(np.abs(off - off[0])) > 1e-9 or np.max(np.abs(off.imag)) > 1e-9):
        raise NotTracePreserving(
            "channel family needs a permutation-invariant Gram matrix "
            "(constant real overlap)")


def cyclic_preparation_channel(basis: SuperpositionBasis, probs) -> KrausChannel:
    """d operators K_i = sqrt(p_i) sum_k (1/xi_k)|c_{shift_i(k)}><c_k^perp|.

    Applied to |c_0><c_0| this prepares the free state sum_i p_i|c_i><c_i|.
    Exactly trace-preserving for constant-overlap bases.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size != basis.dimension or np.min(p) < -1e-12 or abs(p.sum() - 1) > 1e-9:
        raise InvalidProbabilities(f"not a probability vector: {probs!r}")
    d = basis.dimension
    shifts = [[(k + i) % d for k in range(d)] for i in range(d)]
    return permutation_mixture_channel(basis, shifts, p)


def permutation_mixture_channel(basis: SuperpositionBasis, permutations, weights) -> KrausChannel:
    """Kraus operators sqrt(q_n) V P_n V^-1 for index permutations P_n.

    Trace-preserving on constant-overlap bases, where every permutation
    preserves the Gram matrix.
    """
    permutations = list(permutations)
    w = np.asarray(weights, dtype=float)
    if abs(w.sum() - 1) > 1e-9 or np.min(w) < -1e-12:
        raise InvalidProbabilities(f"not a probability vector: {weights!r}")
    if w.size != len(permutations):
        raise InvalidProbabilities(
            f"{w.size} weights for {len(permutations)} permutations")
    for perm in permutations:
        if sorted(perm) != list(range(basis.dimension)):
            raise DimensionMismatch(f"not a permutation of 0..{basis.dimension - 1}: {perm!r}")
    _check_gram_permutation_invariant(basis)
    Vinv = basis.biorthogonal_duals.conj().T
    ops = []
    for perm, q in zip(permutations, w):
        P = np.zeros((basis.dimension, basis.dimension))
        for src, dst in enumerate(perm):
            P[dst, src] = 1.0
        ops.append(np.sqrt(max(q, 0.0)) * basis.vectors @ P @ Vinv)
    return make_channel(ops)


def example1_channel(basis: SuperpositionBasis) -> KrausChannel:
    """The two-branch qubit channel {K_1 identity-indexed, K_2 swap-indexed},
    each weighted sqrt(1/2), built on unit duals rescaled by 1/xi."""
    if basis.dimension != 2:
        raise WrongDimension("channel is defined for d = 2")
    w = np.sqrt(0.5)
    specs = [
        FreeKrausSpec(index_map=(0, 1), coefficients=(w / basis.xi[0], w / basis.xi[1])),
        FreeKrausSpec(index_map=(1, 0), coefficients=(w / basis.xi[0], w / basis.xi[1])),
    ]
    return build_free_kraus(basis, specs)


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
