"""Density matrices, pure states, oblique coordinates and ensembles."""

from dataclasses import dataclass

import numpy as np

from .basis import SuperpositionBasis, constant_overlap_basis
from .errors import (
    DimensionMismatch,
    InvalidCoefficients,
    InvalidRank,
    NotIsometry,
    ParameterOutOfRange,
)

HERM_TOL = 1e-9
PSD_TOL = 1e-9
RANK_TOL = 1e-10
MEMBER_TOL = 1e-12  # ensemble members below this probability are dropped


@dataclass(frozen=True)
class DensityMatrix:
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidCoefficients(f"not a square matrix: {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > HERM_TOL:
            raise InvalidCoefficients("matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > HERM_TOL or abs(np.trace(m).imag) > HERM_TOL:
            raise InvalidCoefficients(f"trace is {np.trace(m)!r}, expected 1")
        if np.linalg.eigvalsh(m).min() < -PSD_TOL:
            raise InvalidCoefficients("matrix is not positive semidefinite")
        object.__setattr__(self, "matrix", m)
        m.setflags(write=False)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def to_json(self) -> list:
        return matrix_to_json(self.matrix)


@dataclass(frozen=True)
class PureState:
    vector: np.ndarray

    def __post_init__(self):
        v = np.array(self.vector, dtype=complex)
        if v.ndim != 1:
            raise InvalidCoefficients(f"not a vector: shape {v.shape}")
        if abs(np.linalg.norm(v) - 1.0) > HERM_TOL:
            raise InvalidCoefficients(f"norm is {np.linalg.norm(v)!r}")
        object.__setattr__(self, "vector", v)
        v.setflags(write=False)

    @property
    def dimension(self) -> int:
        return self.vector.shape[0]

    def density(self) -> DensityMatrix:
        return DensityMatrix(np.outer(self.vector, self.vector.conj()))

    def to_json(self) -> list:
        return [[float(z.real), float(z.imag)] for z in self.vector]


@dataclass(frozen=True)
class CoefficientMatrix:
    """Oblique coordinates R of a state: rho = V R V^dag."""

    entries: np.ndarray
    basis: SuperpositionBasis

    def __post_init__(self):
        object.__setattr__(self, "entries", np.array(self.entries, dtype=complex))
        self.entries.setflags(write=False)


@dataclass(frozen=True)
class Ensemble:
    members: tuple  # of (probability, PureState)

    def density(self) -> np.ndarray:
        d = self.members[0][1].dimension
        out = np.zeros((d, d), dtype=complex)
        for p, phi in self.members:
            out += p * np.outer(phi.vector, phi.vector.conj())
        return out

    def to_json(self) -> list:
        return [{"p": float(p), "state": phi.to_json()} for p, phi in self.members]


def matrix_to_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def matrix_from_json(obj) -> np.ndarray:
    arr = np.asarray(obj, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def density_from_json(obj) -> DensityMatrix:
    return DensityMatrix(matrix_from_json(obj))


def pure_from_json(obj) -> PureState:
    return PureState(matrix_from_json(obj))


def _check_dims(a: int, b: int):
    if a != b:
        raise DimensionMismatch(f"dimension {a} vs {b}")


def coefficients_of(rho: DensityMatrix, basis: SuperpositionBasis) -> CoefficientMatrix:
    """R with rho = V R V^dag, via congruence by V^-1 = (biorthogonal duals)^dag."""
    _check_dims(rho.dimension, basis.dimension)
    Vinv = basis.biorthogonal_duals.conj().T
    R = Vinv @ rho.matrix @ Vinv.conj().T
    return CoefficientMatrix(entries=R, basis=basis)


def state_from_coefficients(R: CoefficientMatrix, basis: SuperpositionBasis) -> DensityMatrix:
    ent = R.entries
    if np.max(np.abs(ent - ent.conj().T)) > 1e-8:
        raise InvalidCoefficients("coefficient matrix is not Hermitian")
    tr = np.trace(ent @ basis.gram)
    if abs(tr - 1.0) > 1e-8:
        raise InvalidCoefficients(f"trace(R G) = {tr!r}, expected 1")
    if np.linalg.eigvalsh(0.5 * (ent + ent.conj().T)).min() < -1e-8:
        raise InvalidCoefficients("coefficient matrix is not PSD")
    rho = basis.vectors @ ent @ basis.vectors.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(rho)


def pure_coefficients(phi: PureState, basis: SuperpositionBasis) -> np.ndarray:
    """Coefficients phi_i with sum_i phi_i |c_i> = |phi>, read off with the
    biorthogonal duals."""
    _check_dims(phi.dimension, basis.dimension)
    return basis.biorthogonal_duals.conj().T @ phi.vector


def is_free(rho: DensityMatrix, basis: SuperpositionBasis, tol: float = 1e-9) -> bool:
    """A state is free when its oblique coefficient matrix is diagonal with
    nonnegative diagonal."""
    R = coefficients_of(rho, basis).entries
    off = R - np.diag(np.diag(R))
    if np.max(np.abs(off)) > tol:
        return False
    return bool(np.min(np.diag(R).real) >= -tol)


def free_state(basis: SuperpositionBasis, probs) -> DensityMatrix:
    """The free state sum_i p_i |c_i><c_i|."""
    p = np.asarray(probs, dtype=float)
    rho = (basis.vectors * p) @ basis.vectors.conj().T
    return DensityMatrix(rho)


def clip_to_psd(matrix: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues and renormalize the trace.

    Never applied silently by the package; callers opt in.
    """
    evals, evecs = np.linalg.eigh(0.5 * (matrix + matrix.conj().T))
    evals = np.clip(evals, 0.0, None)
    out = (evecs * evals) @ evecs.conj().T
    return out / np.trace(out).real


def ensemble_from_isometry(rho: DensityMatrix, T: np.ndarray) -> Ensemble:
    """All decompositions of rho arise this way: members are
    sqrt(p_m)|phi_m> = sum_k T_mk sqrt(lambda_k) |e_k> for an isometry T
    applied to the eigen-decomposition."""
    B = weighted_eigvecs(rho)
    r = B.shape[1]
    T = require_isometry_shape(T, r)
    if np.max(np.abs(T.conj().T @ T - np.eye(r))) > 1e-9:
        raise NotIsometry("T^dag T != I")
    raw = B @ T.T  # column m = unnormalized member m
    probs = np.linalg.norm(raw, axis=0) ** 2
    members = []
    for m in range(T.shape[0]):
        if probs[m] < MEMBER_TOL:
            continue
        members.append((float(probs[m]), PureState(raw[:, m] / np.sqrt(probs[m]))))
    return Ensemble(members=tuple(members))


def require_isometry_shape(T, r: int) -> np.ndarray:
    """T as a complex array, checked to be n x r with n >= r."""
    T = np.asarray(T, dtype=complex)
    if T.ndim != 2 or T.shape[1] != r or T.shape[0] < r:
        raise NotIsometry(f"expected an n x {r} matrix with n >= {r}, got {T.shape}")
    return T


def weighted_eigvecs(rho: DensityMatrix) -> np.ndarray:
    """d x r matrix B = E sqrt(lambda) of the eigenpairs above RANK_TOL, so
    that rho = B B^dag."""
    evals, evecs = eigh_sorted(rho.matrix)
    keep = evals > RANK_TOL
    return evecs[:, keep] * np.sqrt(evals[keep])


def eigh_sorted(matrix: np.ndarray):
    """Hermitian eigendecomposition, eigenvalues descending, phases fixed so
    the largest-magnitude component of each eigenvector is real positive."""
    evals, evecs = np.linalg.eigh(matrix)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    for k in range(evecs.shape[1]):
        idx = int(np.argmax(np.abs(evecs[:, k])))
        ph = evecs[idx, k]
        if abs(ph) > 0:
            evecs[:, k] *= np.conj(ph) / abs(ph)
    return evals, evecs


def rho_x(x: float, mu: float):
    """The worked qubit family over the d=2 constant-overlap basis:
    rho(x) = (1/(1+2 mu x)) (|c0><c0|/2 + x|c0><c1| + x|c1><c0| + |c1><c1|/2).

    Returns the state together with its basis.
    """
    if not (-1.0 < mu < 1.0):
        raise ParameterOutOfRange(f"mu={mu} outside (-1, 1)")
    if not (-0.5 <= x <= 0.5):
        raise ParameterOutOfRange(f"x={x} outside [-0.5, 0.5]")
    if 1.0 + 2.0 * mu * x <= 0.0:
        raise ParameterOutOfRange(f"1 + 2*mu*x = {1 + 2 * mu * x} not positive")
    basis = constant_overlap_basis(2, mu)
    c0 = basis.vectors[:, 0]
    c1 = basis.vectors[:, 1]
    rho = (0.5 * np.outer(c0, c0.conj()) + x * np.outer(c0, c1.conj())
           + x * np.outer(c1, c0.conj()) + 0.5 * np.outer(c1, c1.conj()))
    rho = rho / (1.0 + 2.0 * mu * x)
    return DensityMatrix(rho), basis


def rho_x_eigenvalues(x: float, mu: float):
    """Closed-form spectrum of rho(x)."""
    lam1 = (1 + mu) * (1 + 2 * x) / (2 + 4 * mu * x)
    lam2 = (1 - mu) * (1 - 2 * x) / (2 + 4 * mu * x)
    return lam1, lam2


def random_pure(d: int, seed) -> PureState:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(v / np.linalg.norm(v))


def random_density(d: int, rank: int, seed) -> DensityMatrix:
    if not (1 <= rank <= d):
        raise InvalidRank(f"rank {rank} outside [1, {d}]")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = A @ A.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def random_free(basis: SuperpositionBasis, seed) -> DensityMatrix:
    rng = np.random.default_rng(seed)
    p = rng.exponential(size=basis.dimension)
    return free_state(basis, p / p.sum())


def random_isometry(n: int, r: int, seed) -> np.ndarray:
    """QR-orthonormalized complex Gaussian matrix, sign-fixed so the result
    is deterministic per seed."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    Q, R = np.linalg.qr(Z)
    ph = np.diag(R).copy()
    ph[np.abs(ph) == 0] = 1.0
    return Q * (ph.conj() / np.abs(ph))
