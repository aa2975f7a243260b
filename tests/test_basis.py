import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from superposition import (
    SuperpositionError,
    basis_from_json,
    build_basis,
    constant_overlap_basis,
    constant_overlap_gram,
    gram_determinant,
)
from superposition.errors import LinearlyDependent, NonUnitColumn, OverlapOutOfRange


def test_constant_overlap_gram_determinant_closed_form():
    # det G = (1-mu)^(d-1) * (1+(d-1)mu)
    for d in range(2, 6):
        for mu in (-0.2, 0.0, 0.3, 0.7):
            basis = constant_overlap_basis(d, mu)
            expected = (1 - mu) ** (d - 1) * (1 + (d - 1) * mu)
            assert abs(gram_determinant(basis) - expected) < 1e-10


def test_constant_overlap_columns_are_unit():
    basis = constant_overlap_basis(4, 0.6)
    norms = np.linalg.norm(basis.vectors, axis=0)
    assert np.max(np.abs(norms - 1)) < 1e-12
    assert np.max(np.abs(basis.gram - constant_overlap_gram(4, 0.6))) < 1e-10


def test_biorthogonal_duals():
    basis = constant_overlap_basis(3, 0.4)
    overlap = basis.biorthogonal_duals.conj().T @ basis.vectors
    assert np.max(np.abs(overlap - np.eye(3))) < 1e-12


def test_unit_duals_and_xi():
    basis = constant_overlap_basis(3, 0.4)
    assert np.max(np.abs(np.linalg.norm(basis.duals, axis=0) - 1)) < 1e-12
    assert np.all(basis.xi > 0)
    # <c_i_perp | c_i> = xi_i and cross overlaps vanish
    overlap = basis.duals.conj().T @ basis.vectors
    assert np.max(np.abs(overlap - np.diag(basis.xi))) < 1e-12
    # orthonormal basis: duals coincide with the basis, xi = 1
    ortho = build_basis(np.eye(3))
    assert np.max(np.abs(ortho.duals - np.eye(3))) < 1e-12
    assert np.max(np.abs(ortho.xi - 1)) < 1e-12


def test_mu_range_validation():
    for d in range(2, 6):
        lo = 1 / (1 - d)
        constant_overlap_basis(d, lo + 1e-3)
        constant_overlap_basis(d, 1 - 1e-3)
        with pytest.raises(OverlapOutOfRange):
            constant_overlap_basis(d, lo)
        with pytest.raises(OverlapOutOfRange):
            constant_overlap_basis(d, 1.0)
        # raw Gram determinant vanishes at the lower endpoint
        det = np.linalg.det(constant_overlap_gram(d, lo)).real
        assert abs(det) < 1e-9


def test_build_basis_rejects_bad_input():
    with pytest.raises(NonUnitColumn):
        build_basis(np.array([[1.0, 0.0], [0.0, 2.0]]))
    v = np.array([1.0, 1.0]) / np.sqrt(2)
    with pytest.raises(LinearlyDependent):
        build_basis(np.stack([v, v], axis=1))
    with pytest.raises(SuperpositionError):
        build_basis(np.ones((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_build_basis_rejects_entries_that_are_not_finite(bad):
    with pytest.raises(NonUnitColumn):
        build_basis(np.array([[1.0, bad], [0.0, 1.0]]))
    with pytest.raises(NonUnitColumn):
        build_basis(np.array([[bad, 0.0], [bad, 1.0]]))
    with pytest.raises(SuperpositionError):
        basis_from_json({"dimension": 2, "vectors": [[1, 0], [0, 0], [bad, 0], [1, 0]]})


def test_json_round_trip():
    basis = constant_overlap_basis(3, 0.25)
    again = basis_from_json(basis.to_json())
    assert np.max(np.abs(again.vectors - basis.vectors)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.floats(-0.2, 0.9))
def test_random_mu_round_trip(d, mu):
    lo = 1 / (1 - d)
    if not (lo + 1e-3 < mu < 1 - 1e-3):
        return
    basis = constant_overlap_basis(d, mu)
    again = basis_from_json(basis.to_json())
    assert np.max(np.abs(again.gram - basis.gram)) < 1e-10
    assert gram_determinant(basis) > 0


def test_complex_basis_support():
    v0 = np.array([1.0, 0.0])
    v1 = np.array([1j * 0.6, 0.8])
    basis = build_basis(np.stack([v0, v1], axis=1))
    assert not basis.is_real
    assert abs(basis.gram[0, 1] - 0.6j) < 1e-12
    assert constant_overlap_basis(2, 0.5).is_real
