"""Block-operator generalization: oblique projector families, block-dephased
free states, block-structured free channels and the generalized weight and
robustness measures.

Blocks partition the basis indices; the free states are those whose oblique
coefficient matrix is block-diagonal.  Singleton blocks recover the plain
free states and measures; the single-block partition makes every state free.
"""

from dataclasses import dataclass

import numpy as np

from .basis import SuperpositionBasis
from .channels import KrausChannel, _oblique_channel, _permutation_channel, _probabilities
from .errors import BlockSizeMismatch, InvalidPartition, ProjectorMismatch, ZeroTrace
from .measures import MeasureResult
from .qstate import DensityMatrix, _check_dims, coefficients_of
from .solvers import barrier_descent, robustness_barrier, weight_barrier


@dataclass(frozen=True)
class BlockPartition:
    """Ordered disjoint index blocks covering {0..d-1} (0-based internally)."""

    blocks: tuple  # of tuples of ints

    def __post_init__(self):
        blocks = tuple(tuple(int(i) for i in b) for b in self.blocks)
        seen = [i for b in blocks for i in b]
        d = len(seen)
        if not blocks or any(len(b) == 0 for b in blocks):
            raise InvalidPartition("empty block")
        if sorted(seen) != list(range(d)):
            raise InvalidPartition(f"blocks {blocks!r} are not a partition of 0..{d - 1}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def dimension(self) -> int:
        return sum(len(b) for b in self.blocks)

    def to_json(self) -> list:
        return [[i + 1 for i in b] for b in self.blocks]


def partition_from_json(obj) -> BlockPartition:
    return BlockPartition(tuple(tuple(int(i) - 1 for i in b) for b in obj))


def contiguous_partition(d: int, cuts) -> BlockPartition:
    """Blocks [0..cuts[0]), [cuts[0]..cuts[1]), ..., [cuts[-1]..d)."""
    edges = [0] + sorted(int(c) for c in cuts) + [d]
    return BlockPartition(tuple(tuple(range(a, b)) for a, b in zip(edges, edges[1:])))


@dataclass(frozen=True)
class ObliqueProjectors:
    basis: SuperpositionBasis
    partition: BlockPartition
    operators: tuple  # of d x d complex arrays

    def __post_init__(self):
        for E in self.operators:
            E.setflags(write=False)


def block_projectors(basis: SuperpositionBasis, partition: BlockPartition) -> ObliqueProjectors:
    """E_i = sum over the block of |c_k><chat_k| with biorthogonal duals, so
    that E_i E_j = delta_ij E_i and sum_i E_i = I; ProjectorMismatch unless
    each holds to 1e-9 relative to its projectors' norms, which grow with cond(V)."""
    if partition.dimension != basis.dimension:
        raise InvalidPartition(
            f"partition covers {partition.dimension} indices, basis has {basis.dimension}")
    ops = [basis.vectors[:, b] @ basis.biorthogonal_duals[:, b].conj().T
           for b in partition.blocks]
    norms = [np.linalg.norm(E, 2) for E in ops]
    checks = [(sum(ops) - np.eye(basis.dimension), sum(norms))] + [
        (ops[i] @ ops[j] - (i == j) * ops[i], norms[i] * norms[j])
        for i in range(len(ops)) for j in range(i, len(ops))]
    if any(np.max(np.abs(residual)) > 1e-9 * scale for residual, scale in checks):
        raise ProjectorMismatch("E_i E_j = delta_ij E_i or sum_i E_i = I fails")
    return ObliqueProjectors(basis=basis, partition=partition, operators=tuple(ops))


def _block_pinch(R: np.ndarray, partition: BlockPartition) -> np.ndarray:
    out = np.zeros_like(R)
    for b in partition.blocks:
        idx = np.ix_(b, b)
        out[idx] = R[idx]
    return out


def block_dephase(rho: DensityMatrix, projectors: ObliqueProjectors) -> DensityMatrix:
    """Normalized pinching sum_i E_i rho E_i^dag; keeps the diagonal blocks
    of the oblique coefficient matrix."""
    _check_dims(rho.dimension, projectors.basis.dimension)
    out = np.zeros_like(rho.matrix)
    for E in projectors.operators:
        out = out + E @ rho.matrix @ E.conj().T
    tr = float(np.trace(out).real)
    if tr < 1e-12:
        raise ZeroTrace(f"pinched trace {tr:g}")
    out = out / tr
    return DensityMatrix(0.5 * (out + out.conj().T))


def is_block_free(rho: DensityMatrix, projectors: ObliqueProjectors,
                  tol: float = 1e-9) -> bool:
    R = coefficients_of(rho, projectors.basis).entries
    return projectors.basis.is_rounded_zero(R - _block_pinch(R, projectors.partition), tol)


@dataclass(frozen=True)
class BlockKrausSpec:
    """One block-structured Kraus operator: block index map f and, per source
    block i, a matrix of shape |block_{f(i)}| x |block_i|."""

    block_map: tuple
    block_matrices: tuple


def generalized_free_channel(projectors: ObliqueProjectors, specs) -> KrausChannel:
    """K_n = sum_i V[:, block_{f(i)}] c_{n,i} Chat[:, block_i]^dag.

    In oblique coordinates each K_n moves whole coordinate blocks onto
    blocks, so block-free states stay block-free.  Completeness of the
    family is verified.
    """
    blocks = projectors.partition.blocks
    nb = len(blocks)
    d = projectors.basis.dimension
    mats = []
    for spec in specs:
        if len(spec.block_map) != nb or len(spec.block_matrices) != nb:
            raise BlockSizeMismatch("spec arity does not match the block count")
        A = np.zeros((d, d), dtype=complex)
        for i, (f, c) in enumerate(zip(spec.block_map, spec.block_matrices)):
            if not (0 <= f < nb):
                raise BlockSizeMismatch(f"block map value {f} out of range")
            c = np.asarray(c, dtype=complex)
            want = (len(blocks[f]), len(blocks[i]))
            if c.shape != want:
                raise BlockSizeMismatch(f"block matrix {i} has shape {c.shape}, expected {want}")
            A[np.ix_(blocks[f], blocks[i])] = c
        mats.append(A)
    return _oblique_channel(projectors.basis, mats)


def block_shift_channel(projectors: ObliqueProjectors, probs) -> KrausChannel:
    """Block analogue of the cyclic preparation: Kraus n shifts every block
    cyclically by n positions with weight sqrt(p_n).  Requires equal block
    sizes; complete when the shifts preserve the Gram matrix, and rejected
    by make_channel otherwise."""
    blocks = projectors.partition.blocks
    nb = len(blocks)
    if len({len(b) for b in blocks}) != 1:
        raise BlockSizeMismatch("block shifts need equal-size blocks")
    p = _probabilities(probs, nb)
    shifts = [[(i + n) % nb for i in range(nb)] for n in range(nb)]
    return _permutation_channel(projectors.basis, blocks, shifts, p)


def block_permutation_channel(projectors: ObliqueProjectors, block_perm) -> KrausChannel:
    """Single-Kraus channel permuting whole blocks; unitary (hence trace
    preserving) when the permutation preserves the Gram matrix, e.g. for
    equal blocks over a constant-overlap basis, and rejected by
    make_channel otherwise."""
    blocks = projectors.partition.blocks
    nb = len(blocks)
    perm = tuple(int(i) for i in block_perm)
    if sorted(perm) != list(range(nb)):
        raise BlockSizeMismatch(f"not a block permutation: {block_perm!r}")
    if any(len(blocks[j]) != len(b) for j, b in zip(perm, blocks)):
        raise BlockSizeMismatch("permuted blocks differ in size")
    return _permutation_channel(projectors.basis, blocks, [perm], [1.0])


def random_block_free_channel(projectors: ObliqueProjectors, seed) -> KrausChannel:
    """Random block shift or block permutation (equal blocks, constant
    overlap); concrete samples for the generalized monotonicity checks."""
    rng = np.random.default_rng(seed)
    nb = len(projectors.partition.blocks)
    if rng.random() < 0.5 and nb > 1:
        q = rng.exponential(size=nb)
        return block_shift_channel(projectors, q / q.sum())
    return block_permutation_channel(projectors, rng.permutation(nb))


# ---------------------------------------------------------------------------
# generalized measures


def m_weight_generalized(rho: DensityMatrix, projectors: ObliqueProjectors) -> MeasureResult:
    """1 - max Tr(B G) over block-diagonal B with B >= 0 and R - B >= 0,
    working in oblique coordinates (congruence by V preserves positivity);
    solvers.weight_barrier gives the LMI and its start.
    """
    R = coefficients_of(rho, projectors.basis).entries
    pinched = _block_pinch(R, projectors.partition)
    if projectors.basis.is_rounded_zero(R - pinched, 1e-10):  # is_block_free at tol 1e-10
        return MeasureResult(value=0.0, certificate={"B": pinched, "weight": 1.0})
    G = projectors.basis.gram
    problem, x0 = weight_barrier(R, G, projectors.partition.blocks)
    x, iters = barrier_descent(problem, x0)
    B = problem.matrix(x)[1]
    weight = float(np.clip(np.trace(B @ G).real, 0.0, 1.0))
    return MeasureResult(value=1.0 - weight, certificate={"B": B, "weight": weight},
                         iterations=iters)


def m_robustness_generalized(rho: DensityMatrix, projectors: ObliqueProjectors) -> MeasureResult:
    """min Tr(C G) - 1 over block-diagonal C with C >= R; the optimizer
    normalized is the closest block-free state in the robustness sense.
    solvers.robustness_barrier gives the LMI and its start.
    """
    R = coefficients_of(rho, projectors.basis).entries
    pinched = _block_pinch(R, projectors.partition)
    if projectors.basis.is_rounded_zero(R - pinched, 1e-10):  # is_block_free at tol 1e-10
        return MeasureResult(value=0.0, certificate={"C": pinched})
    G = projectors.basis.gram
    problem, x0 = robustness_barrier(R, G, projectors.partition.blocks)
    x, iters = barrier_descent(problem, x0)
    C = problem.matrix(x)[0] + R
    value = max(float(np.trace(C @ G).real) - 1.0, 0.0)
    return MeasureResult(value=value, certificate={"C": C}, iterations=iters)
