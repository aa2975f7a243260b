import dataclasses
import itertools

import numpy as np
import pytest

from superposition import (
    BlockKrausSpec,
    BlockPartition,
    DensityMatrix,
    apply,
    block_dephase,
    block_projectors,
    block_shift_channel,
    build_basis,
    coefficients_of,
    constant_overlap_basis,
    contiguous_partition,
    generalized_free_channel,
    is_block_free,
    is_free,
    m_robustness,
    m_robustness_generalized,
    m_weight,
    m_weight_generalized,
    partition_from_json,
    random_density,
    random_free,
    rho_x,
)
from superposition.errors import BlockSizeMismatch, InvalidPartition, ProjectorMismatch
from superposition.generalized import block_permutation_channel, random_block_free_channel


def test_partition_validation():
    with pytest.raises(InvalidPartition):
        BlockPartition(((0, 1), (1, 2)))  # overlap
    with pytest.raises(InvalidPartition):
        BlockPartition(((0,), (2,)))  # gap
    with pytest.raises(InvalidPartition):
        BlockPartition(((0,), ()))  # empty block
    part = contiguous_partition(4, [2])
    assert part.blocks == ((0, 1), (2, 3))
    # JSON uses 1-based indices
    assert part.to_json() == [[1, 2], [3, 4]]
    assert partition_from_json(part.to_json()).blocks == part.blocks


def test_projector_invariants():
    for d, mu, cuts in ((3, 0.4, [2]), (4, 0.3, [1, 3]), (5, 0.2, [2])):
        basis = constant_overlap_basis(d, mu)
        proj = block_projectors(basis, contiguous_partition(d, cuts))
        total = sum(proj.operators)
        assert np.max(np.abs(total - np.eye(d))) < 1e-10
        for i, Ei in enumerate(proj.operators):
            assert np.max(np.abs(Ei @ Ei - Ei)) < 1e-10
            for j, Ej in enumerate(proj.operators):
                if i != j:
                    assert np.max(np.abs(Ei @ Ej)) < 1e-10


def test_singleton_blocks_orthonormal_basis():
    basis = build_basis(np.eye(3))
    proj = block_projectors(basis, BlockPartition(((0,), (1,), (2,))))
    for k, E in enumerate(proj.operators):
        want = np.zeros((3, 3))
        want[k, k] = 1
        assert np.max(np.abs(E - want)) < 1e-12


def test_block_dephase():
    basis = constant_overlap_basis(4, 0.3)
    part = contiguous_partition(4, [2])
    proj = block_projectors(basis, part)
    rho = random_density(4, 4, 3)
    out = block_dephase(rho, proj)
    assert is_block_free(out, proj)
    # idempotent
    again = block_dephase(out, proj)
    assert np.max(np.abs(again.matrix - out.matrix)) < 1e-9
    # coefficient matrix is block diagonal
    R = coefficients_of(out, basis).entries
    assert np.max(np.abs(R[:2, 2:])) < 1e-10


def test_block_dephase_singletons_gives_free_state():
    basis = constant_overlap_basis(3, 0.4)
    proj = block_projectors(basis, BlockPartition(((0,), (1,), (2,))))
    rho = random_density(3, 3, 1)
    assert is_free(block_dephase(rho, proj), basis, tol=1e-9)


def test_one_block_partition_everything_free():
    rho, basis = rho_x(0.25, 0.5)
    proj = block_projectors(basis, BlockPartition(((0, 1),)))
    assert np.max(np.abs(block_dephase(rho, proj).matrix - rho.matrix)) < 1e-10
    assert is_block_free(rho, proj)
    assert m_weight_generalized(rho, proj).value < 1e-9
    assert m_robustness_generalized(rho, proj).value < 1e-9


def test_generalized_channel_identity():
    basis = constant_overlap_basis(4, 0.3)
    proj = block_projectors(basis, contiguous_partition(4, [2]))
    spec = BlockKrausSpec(block_map=(0, 1), block_matrices=(np.eye(2), np.eye(2)))
    chan = generalized_free_channel(proj, [spec])
    assert np.max(np.abs(chan.operators[0] - np.eye(4))) < 1e-9


def test_generalized_channel_size_mismatch():
    basis = constant_overlap_basis(3, 0.4)
    proj = block_projectors(basis, contiguous_partition(3, [2]))
    bad = BlockKrausSpec(block_map=(1, 0), block_matrices=(np.eye(2), np.eye(2)))
    with pytest.raises(BlockSizeMismatch):
        generalized_free_channel(proj, [bad])


def test_block_channels_preserve_block_free():
    basis = constant_overlap_basis(4, 0.3)
    proj = block_projectors(basis, contiguous_partition(4, [2]))
    for seed in range(20):
        chan = random_block_free_channel(proj, seed)
        assert chan.completeness_defect < 1e-9
        rho = block_dephase(random_density(4, 4, seed), proj)
        assert is_block_free(apply(chan, rho), proj, tol=1e-8)


def test_block_shift_reduces_to_cyclic_on_singletons():
    from superposition import PureState, cyclic_preparation_channel

    basis = constant_overlap_basis(3, 0.4)
    proj = block_projectors(basis, BlockPartition(((0,), (1,), (2,))))
    p = [0.2, 0.5, 0.3]
    a = block_shift_channel(proj, p)
    b = cyclic_preparation_channel(basis, p)
    rho = PureState(basis.vectors[:, 0]).density()
    assert np.max(np.abs(apply(a, rho).matrix - apply(b, rho).matrix)) < 1e-9


def test_block_permutation_on_singletons_is_the_plain_permutation():
    from superposition import permutation_mixture_channel

    basis = constant_overlap_basis(4, 0.3)
    proj = block_projectors(basis, contiguous_partition(4, [1, 2, 3]))
    for perm in ((0, 1, 2, 3), (2, 0, 3, 1), (3, 2, 1, 0)):
        (a,) = block_permutation_channel(proj, perm).operators
        (b,) = permutation_mixture_channel(basis, [perm], [1.0]).operators
        assert np.max(np.abs(a - b)) <= 1e-15


def test_singleton_blocks_match_plain_measures():
    for d in (2, 3, 4):
        basis = constant_overlap_basis(d, 0.5)
        proj = block_projectors(basis, BlockPartition(tuple((k,) for k in range(d))))
        for seed in range(5):
            rho = random_density(d, d, seed)
            assert abs(m_weight_generalized(rho, proj).value
                       - m_weight(rho, basis).value) < 1e-8
            assert abs(m_robustness_generalized(rho, proj).value
                       - m_robustness(rho, basis).value) < 1e-8


def _sqrtm(M, power):
    s, U = np.linalg.eigh(M)
    return (U * s**power) @ U.conj().T


def _dual_lower_bound(measure, result, R, G, blocks):
    """A lower bound on the measure from a dual point built from the
    returned certificate alone.

    Robustness: any Z >= 0 whose diagonal blocks equal those of G gives
    Tr(Z R) - 1.  Weight: any Z >= 0 whose diagonal blocks dominate those of
    G gives 1 - Tr(Z R).
    """
    d = R.shape[0]
    if measure is m_robustness_generalized:
        Z = np.linalg.inv(result.certificate["C"] - R)
        S = np.zeros((d, d), dtype=complex)
        for b in blocks:
            idx = np.ix_(b, b)
            S[idx] = _sqrtm(G[idx], 0.5) @ _sqrtm(Z[idx], -0.5)
        return float(np.trace(S @ Z @ S.conj().T @ R).real) - 1.0
    Z = np.linalg.inv(R + 1e-10 * np.eye(d) - result.certificate["B"])
    scale = 0.0
    for b in blocks:
        idx = np.ix_(b, b)
        Zi = _sqrtm(Z[idx], -0.5)
        scale = max(scale, float(np.linalg.eigvalsh(Zi @ G[idx] @ Zi).max()))
    return 1.0 - scale * float(np.trace(Z @ R).real)


def _assert_certificates_are_optimal(measure, basis, cuts):
    d = basis.dimension
    proj = block_projectors(basis, contiguous_partition(d, cuts))
    for seed in range(3):
        rho = random_density(d, d, seed)
        R = coefficients_of(rho, basis).entries
        result = measure(rho, proj)
        lower = _dual_lower_bound(measure, result, R, basis.gram, proj.partition.blocks)
        assert lower <= result.value + 1e-9
        assert result.value - lower <= 1e-6


@pytest.mark.parametrize("measure, d, cuts", [
    (m_weight_generalized, 3, [1]),
    (m_robustness_generalized, 3, [1]),
    (m_weight_generalized, 4, [2]),
    (m_robustness_generalized, 4, [2]),
    (m_robustness_generalized, 6, [2, 4]),
    # singleton blocks: the plain measures, checked against a dual point
    # rather than against the same solver
    (m_weight_generalized, 4, [1, 2, 3]),
    (m_robustness_generalized, 4, [1, 2, 3]),
    (m_weight_generalized, 8, list(range(1, 8))),
    (m_robustness_generalized, 8, list(range(1, 8))),
    (m_weight_generalized, 6, [2, 4]),
])
def test_generalized_certificates_are_optimal(measure, d, cuts):
    _assert_certificates_are_optimal(measure, constant_overlap_basis(d, 0.5), cuts)


@pytest.mark.parametrize("d, state_seed, blocks", [
    (4, 203, ((0,), (1, 2, 3))),
    (4, 201, ((0,), (1, 2, 3))),
    (3, 151, ((0,), (1, 2))),
])
def test_block_weight_certified_on_rank_deficient_states(d, state_seed, blocks):
    # rank 2: R + WEIGHT_RIDGE - B is near-singular at the optimum, so a path
    # that stops off centre leaves a dual point far from feasible.  The primal
    # carries the 1e-10 ridge, worth about 1e-6 through Z here.
    basis = constant_overlap_basis(d, 0.3)
    proj = block_projectors(basis, BlockPartition(blocks))
    rho = random_density(d, 2, state_seed)
    R = coefficients_of(rho, basis).entries
    result = m_weight_generalized(rho, proj)
    lower = _dual_lower_bound(m_weight_generalized, result, R, basis.gram, blocks)
    assert abs(result.value - lower) <= 1e-5


@pytest.mark.parametrize("measure", [m_weight_generalized, m_robustness_generalized])
def test_singleton_certificates_are_optimal_on_ill_conditioned_basis(measure):
    # cond(V) ~ 194; robustness values reach 2e4 here.  Only singleton
    # blocks: for wider blocks the weight's dual point inv(R + 1e-10 - B)
    # is itself off by up to 1e-4 on this basis.
    rng = np.random.default_rng(202)
    V = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    _assert_certificates_are_optimal(measure, build_basis(V / np.linalg.norm(V, axis=0)),
                                     [1, 2, 3])


def _cubed_singular_value_basis():
    """cond(V) 2.5e4, Gram determinant 2.4e-10, eps ||V^-1||_2^2 = 5.0e-8:
    a complex Gaussian matrix with its singular values cubed."""
    rng = np.random.default_rng(1)
    U, s, Vh = np.linalg.svd(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    V = (U * s**3) @ Vh
    return build_basis(V / np.linalg.norm(V, axis=0))


ALL_CUTS = [cuts for k in range(4) for cuts in itertools.combinations((1, 2, 3), k)]


def test_free_state_checks_hold_on_an_ill_conditioned_basis():
    # the idempotence residuals reach 1.7e-9 here, with ||E_i||_2 = 2.8e3,
    # and the rounding of a free state's off-diagonal coefficients 4.0e-9
    basis = _cubed_singular_value_basis()
    free = [random_free(basis, s) for s in range(20)]
    assert all(is_free(rho, basis) for rho in free)
    # a 1e-10 admixture moves the off-diagonal coefficients by 1.9e-3
    mixed = DensityMatrix((1 - 1e-10) * free[0].matrix + 1e-10 * random_density(4, 4, 0).matrix)
    assert not is_free(mixed, basis)
    for cuts in ALL_CUTS:
        proj = block_projectors(basis, contiguous_partition(4, cuts))
        assert all(is_block_free(rho, proj) for rho in free)
        assert is_block_free(mixed, proj) == (cuts == ())
        for seed in range(3):
            deph = block_dephase(random_density(4, 4, seed), proj)
            assert is_block_free(deph, proj)
            assert m_weight_generalized(deph, proj).value == 0.0
            assert m_robustness_generalized(deph, proj).value == 0.0


def test_projector_identities_raise_a_package_error():
    # duals 10% too long break every identity; the check is no assert,
    # which python -O would strip
    basis = constant_overlap_basis(3, 0.4)
    skewed = dataclasses.replace(basis, biorthogonal_duals=1.1 * basis.biorthogonal_duals)
    with pytest.raises(ProjectorMismatch):
        block_projectors(skewed, contiguous_partition(3, [1]))


def test_generalized_measures_vanish_iff_block_free():
    basis = constant_overlap_basis(4, 0.3)
    proj = block_projectors(basis, contiguous_partition(4, [2]))
    for seed in range(3):
        rho = random_density(4, 4, seed)
        deph = block_dephase(rho, proj)
        assert m_weight_generalized(deph, proj).value < 1e-6
        assert m_robustness_generalized(deph, proj).value < 1e-6
        assert m_weight_generalized(rho, proj).value > 1e-5
        assert m_robustness_generalized(rho, proj).value > 1e-5


def test_refining_partition_never_decreases():
    basis = constant_overlap_basis(3, 0.4)
    coarse = block_projectors(basis, contiguous_partition(3, [2]))
    fine = block_projectors(basis, BlockPartition(((0,), (1,), (2,))))
    for seed in range(5):
        rho = random_density(3, 3, seed)
        assert m_weight_generalized(rho, fine).value >= \
            m_weight_generalized(rho, coarse).value - 1e-3
        assert m_robustness_generalized(rho, fine).value >= \
            m_robustness_generalized(rho, coarse).value - 1e-3


def test_generalized_monotone_under_block_channels():
    basis = constant_overlap_basis(4, 0.3)
    proj = block_projectors(basis, contiguous_partition(4, [2]))
    for seed in range(5):
        rho = random_density(4, 4, seed)
        chan = random_block_free_channel(proj, seed)
        out = apply(chan, rho)
        assert m_weight_generalized(out, proj).value <= \
            m_weight_generalized(rho, proj).value + 1e-4
        assert m_robustness_generalized(out, proj).value <= \
            m_robustness_generalized(rho, proj).value + 1e-4


def test_block_permutation_channel_validation():
    basis = constant_overlap_basis(4, 0.3)
    proj = block_projectors(basis, contiguous_partition(4, [1]))
    with pytest.raises(BlockSizeMismatch):
        block_permutation_channel(proj, [1, 0])  # blocks of different size


B3 = constant_overlap_basis(3, 0.5)
PROJ_1_2 = block_projectors(B3, contiguous_partition(3, [1]))  # blocks {0}, {1, 2}


@pytest.mark.parametrize("error, call", [
    (InvalidPartition, lambda: block_projectors(B3, contiguous_partition(4, [2]))),
    (BlockSizeMismatch,
     lambda: generalized_free_channel(PROJ_1_2, [BlockKrausSpec((0,), (np.eye(1),))])),
    (BlockSizeMismatch, lambda: generalized_free_channel(
        PROJ_1_2, [BlockKrausSpec((0, 2), (np.eye(1), np.eye(2)))])),
    (BlockSizeMismatch, lambda: block_shift_channel(PROJ_1_2, [0.5, 0.5])),
    (BlockSizeMismatch, lambda: block_permutation_channel(PROJ_1_2, [0, 0])),
], ids=["partition_size", "spec_arity", "block_map_range", "shift_unequal_blocks",
        "not_a_permutation"])
def test_block_error_contracts(error, call):
    with pytest.raises(error):
        call()
