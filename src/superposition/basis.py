"""Linearly independent bases, Gram matrices and dual (biorthogonal) vectors.

A basis here is a set of d linearly independent unit vectors on a
d-dimensional Hilbert space, not required to be orthogonal.  Linear
independence is certified by a positive Gram determinant.  Two dual
families are kept side by side: unit-norm duals with explicit overlap
factors xi_i, and biorthogonal duals rescaled so that <dual_i|c_j> equals
the Kronecker delta.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidCoefficients,
    LinearlyDependent,
    NonUnitColumn,
    OverlapOutOfRange,
    WrongDimension,
)

# Determinant threshold certifying linear independence.
DET_TOL = 1e-10
UNIT_TOL = 1e-9


@dataclass(frozen=True)
class SuperpositionBasis:
    dimension: int
    vectors: np.ndarray            # columns |c_i> in computational coordinates
    gram: np.ndarray               # G_ij = <c_i|c_j>
    duals: np.ndarray              # columns: unit-norm duals |c_i^perp>
    xi: np.ndarray                 # xi_i = <c_i^perp|c_i>, real positive
    biorthogonal_duals: np.ndarray  # columns chat_i with <chat_i|c_j> = delta_ij
    coefficient_rounding: float    # eps ||V^-1||_2^2, the rounding of R = V^-1 rho V^-dag

    def __post_init__(self):
        for name in ("vectors", "gram", "duals", "biorthogonal_duals", "xi"):
            arr = getattr(self, name)
            arr.setflags(write=False)

    def is_rounded_zero(self, part: np.ndarray, tol: float) -> bool:
        """Whether every entry of part, a part of an oblique coefficient matrix
        that vanishes on free states, is within tol + coefficient_rounding of 0."""
        return bool(np.max(np.abs(part)) <= tol + self.coefficient_rounding)

    @property
    def is_real(self) -> bool:
        return bool(np.max(np.abs(self.vectors.imag)) < 1e-12)

    def to_json(self) -> dict:
        return {"dimension": self.dimension,
                "vectors": matrix_to_json(self.vectors.flatten(order="F"))}


def matrix_to_json(a: np.ndarray) -> list:
    """A complex array of any shape as nested [re, im] pairs."""
    return np.stack([a.real, a.imag], -1).tolist()


def matrix_from_json(obj) -> np.ndarray:
    """The complex array whose [re, im] pairs obj holds; InvalidCoefficients
    if obj is not an array of such pairs of numbers."""
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidCoefficients(f"expected an array of [re, im] pairs: {exc}") from None
    if arr.ndim == 0 or arr.shape[-1] != 2:
        raise InvalidCoefficients(f"expected an array of [re, im] pairs, got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def basis_from_json(obj: dict) -> SuperpositionBasis:
    """The basis that to_json wrote: {"dimension": d, "vectors": the d * d
    entries of V, column-major}; WrongDimension unless obj's dimension is an
    integral number (2 and 2.0 load; 2.9, "2" and true do not)."""
    try:
        d = obj["dimension"]
    except TypeError:
        d = None
    if isinstance(d, bool) or not isinstance(d, (int, float)) or not float(d).is_integer():
        raise WrongDimension(f"a basis needs an integer dimension, got {obj!r:.80}")
    d = int(d)
    return build_basis(matrix_from_json(obj["vectors"]).reshape((d, d), order="F"))


def build_basis(columns: np.ndarray) -> SuperpositionBasis:
    """Validate the columns and assemble Gram matrix and dual families.

    Raises NonUnitColumn if a column is not normalized (or has an entry
    that is not finite) and LinearlyDependent if the Gram determinant is
    not positive.
    """
    V = np.array(columns, dtype=complex)
    if V.ndim != 2 or V.shape[0] != V.shape[1]:
        raise NonUnitColumn(f"expected a square matrix, got shape {V.shape}")
    # both checks are written so that a NaN or infinite entry fails them,
    # and numpy's warnings on such entries are not printed above the error
    with np.errstate(invalid="ignore"):
        norms = np.linalg.norm(V, axis=0)
    if not np.max(np.abs(norms - 1.0)) <= UNIT_TOL:
        worst = int(np.argmax(np.abs(norms - 1.0)))
        raise NonUnitColumn(f"column {worst} has norm {norms[worst]!r}")
    G = V.conj().T @ V
    det = np.linalg.det(G)
    if not det.real > DET_TOL:
        raise LinearlyDependent(f"Gram determinant {det.real:g} <= {DET_TOL:g}")
    return _assemble(V, G)


def _assemble(V: np.ndarray, G: np.ndarray) -> SuperpositionBasis:
    """Basis of the independent columns V with Gram matrix G and both dual
    families."""
    # chat_i are the columns of (V^-1)^dag.  Inverting V keeps the error at
    # cond(V) rounding; V G^-1, equal in exact arithmetic, has cond(V)^2.
    bio = np.linalg.inv(V).conj().T
    pre_norms = np.linalg.norm(bio, axis=0)
    return SuperpositionBasis(
        dimension=V.shape[0], vectors=V, gram=G, duals=bio / pre_norms,
        xi=1.0 / pre_norms, biorthogonal_duals=bio,
        coefficient_rounding=float(np.finfo(float).eps * np.linalg.norm(bio, 2) ** 2),
    )


def constant_overlap_gram(d: int, mu: float) -> np.ndarray:
    """Gram matrix with unit diagonal and constant off-diagonal mu.

    No range check; callers probing the degenerate boundary use this
    directly.
    """
    G = np.full((d, d), complex(mu))
    np.fill_diagonal(G, 1.0)
    return G


def constant_overlap_basis(d: int, mu: float) -> SuperpositionBasis:
    """Basis with <c_i|c_j> = mu for all i != j.

    The vectors are the columns of the Hermitian positive square root of
    the Gram matrix, which makes them unit vectors automatically.  Valid
    range is 1/(1-d) < mu < 1; at the endpoints the Gram matrix is
    singular.
    """
    if d < 1:
        raise OverlapOutOfRange(f"dimension must be positive, got {d}")
    lo = 1.0 / (1.0 - d) if d > 1 else -1.0
    if not (lo < mu < 1.0):
        raise OverlapOutOfRange(f"mu={mu} outside ({lo}, 1)")
    G = constant_overlap_gram(d, mu)
    evals, evecs = np.linalg.eigh(G)
    V = evecs @ np.diag(np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
    # columns of the square root have norm sqrt(diag(G)) = 1 exactly;
    # renormalize to absorb rounding
    V = V / np.linalg.norm(V, axis=0)
    # Assemble directly: the range check above already guarantees
    # independence, and near the endpoints the tiny (but exact) Gram
    # determinant would trip the generic build_basis threshold.
    return _assemble(V, V.conj().T @ V)


def gram_determinant(basis: SuperpositionBasis) -> float:
    return float(np.linalg.det(basis.gram).real)
