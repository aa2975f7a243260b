import numpy as np
import pytest

from superposition import (
    CoefficientMatrix,
    DensityMatrix,
    PureState,
    coefficients_of,
    constant_overlap_basis,
    density_from_json,
    ensemble_from_isometry,
    free_state,
    is_free,
    pure_coefficients,
    random_density,
    random_free,
    random_pure,
    rho_x,
    rho_x_eigenvalues,
    state_from_coefficients,
)
from superposition.errors import (
    InvalidCoefficients,
    NotIsometry,
    ParameterOutOfRange,
)
from superposition.qstate import clip_to_psd, eigh_sorted, random_isometry


def test_density_matrix_validation():
    with pytest.raises(InvalidCoefficients):
        DensityMatrix(np.array([[1.0, 0.5], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(InvalidCoefficients):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(InvalidCoefficients):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(InvalidCoefficients):
        PureState(np.array([1.0, 1.0]))


def test_constructors_copy_the_callers_array():
    basis = constant_overlap_basis(2, 0.5)
    rho_in = np.eye(2, dtype=complex) / 2
    vec_in = np.array([1.0, 0.0], dtype=complex)
    entries_in = np.eye(2, dtype=complex) / 2
    stored = (DensityMatrix(rho_in).matrix, PureState(vec_in).vector,
              CoefficientMatrix(entries_in, basis).entries)
    for caller, kept in zip((rho_in, vec_in, entries_in), stored):
        assert caller.flags.writeable
        assert not kept.flags.writeable
        assert not np.shares_memory(caller, kept)

def test_coefficients_round_trip():
    basis = constant_overlap_basis(3, 0.3)
    rho = random_density(3, 3, 11)
    R = coefficients_of(rho, basis)
    # trace condition Tr(R G) = 1
    assert abs(np.trace(R.entries @ basis.gram) - 1) < 1e-10
    back = state_from_coefficients(R, basis)
    assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-10


def test_state_from_coefficients_validation():
    basis = constant_overlap_basis(2, 0.5)
    bad = CoefficientMatrix(entries=np.array([[1.0, 0.3], [0.0, 0.0]]), basis=basis)
    with pytest.raises(InvalidCoefficients):
        state_from_coefficients(bad, basis)


def test_pure_coefficients_reconstruct():
    basis = constant_overlap_basis(3, 0.4)
    phi = random_pure(3, 5)
    c = pure_coefficients(phi, basis)
    rebuilt = basis.vectors @ c
    assert np.max(np.abs(rebuilt - phi.vector)) < 1e-10


def test_free_states():
    basis = constant_overlap_basis(3, 0.4)
    rho = free_state(basis, [0.2, 0.5, 0.3])
    assert is_free(rho, basis)
    assert is_free(random_free(basis, 7), basis)
    resource, basis2 = rho_x(0.25, 0.5)
    assert not is_free(resource, basis2)


def test_rho_x_spectrum_closed_form():
    for mu in (-0.5, 0.0, 0.25, 0.5):
        for x in (-0.4, -0.1, 0.0, 0.3, 0.45):
            rho, _ = rho_x(x, mu)
            lam1, lam2 = rho_x_eigenvalues(x, mu)
            got = sorted(np.linalg.eigvalsh(rho.matrix))
            want = sorted([lam1, lam2])
            assert np.max(np.abs(np.array(got) - np.array(want))) < 1e-10


def test_rho_x_parameter_validation():
    with pytest.raises(ParameterOutOfRange):
        rho_x(0.6, 0.5)
    with pytest.raises(ParameterOutOfRange):
        rho_x(0.25, 1.0)


def test_ensemble_from_isometry_reconstructs():
    rho = random_density(3, 2, 9)
    T = random_isometry(4, 2, 0)
    ens = ensemble_from_isometry(rho, T)
    assert abs(sum(p for p, _ in ens.members) - 1) < 1e-10
    assert np.max(np.abs(ens.density() - rho.matrix)) < 1e-10


def test_ensemble_rejects_non_isometry():
    rho = random_density(2, 2, 1)
    with pytest.raises(NotIsometry):
        ensemble_from_isometry(rho, np.ones((3, 2)))
    with pytest.raises(NotIsometry):
        ensemble_from_isometry(rho, np.eye(2)[:, :1])


def test_eigh_sorted_deterministic():
    rho = random_density(3, 3, 4)
    e1, v1 = eigh_sorted(rho.matrix)
    e2, v2 = eigh_sorted(rho.matrix.copy())
    assert np.all(np.diff(e1) <= 1e-12)
    assert np.max(np.abs(v1 - v2)) == 0


def test_clip_to_psd():
    m = np.diag([1.2, -0.2])
    out = clip_to_psd(m)
    assert np.min(np.linalg.eigvalsh(out)) >= 0
    assert abs(np.trace(out) - 1) < 1e-12


def test_serialization_round_trip():
    rho = random_density(3, 3, 2)
    again = density_from_json(rho.to_json())
    assert np.max(np.abs(again.matrix - rho.matrix)) < 1e-12


def test_random_samplers_deterministic():
    assert np.array_equal(random_density(3, 2, 5).matrix, random_density(3, 2, 5).matrix)
    assert np.array_equal(random_pure(3, 5).vector, random_pure(3, 5).vector)
