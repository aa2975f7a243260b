"""Seeded property-test campaigns for the measure axioms and brute-force
oracle cross-checks.

Axioms checked empirically per measure:
  S1  vanishes on free states; strictly positive on resource states
  S2  monotone under sampled free channels
  S3  monotone on average under selective free measurements
  S4  convex under sampled mixtures

S2/S3 sample from channel families that are free by construction, so the
campaigns give necessary conditions; they cannot quantify over all free
operations.  Reports are deterministic per (seed, configuration).
"""

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .basis import SuperpositionBasis, constant_overlap_basis
from .channels import apply, apply_selective, random_free_channel
from .errors import UnknownChannelFamily, UnknownMeasure, UnknownOracle
from .measures import (
    RoofOptions,
    ensemble_warm_start,
    m_delta,
    m_l1,
    m_l1_roof,
    m_rank,
    m_rel_ent,
    m_rel_ent_roof,
    m_robustness,
    m_weight,
    real_dual_kraus,
)
from .qstate import (
    DensityMatrix,
    coefficients_of,
    free_state,
    random_density,
    random_free,
    rho_x,
    state_from_coefficients,
)
from .qstate import CoefficientMatrix

# Roof searches inside campaigns run with reduced effort; the solver value
# is an upper bound for any setting, so smaller budgets can only make the
# campaigns harder to pass, never unsoundly easier.
CAMPAIGN_ROOF_OPTS = {"restarts": 8, "seed": 0}

RESOURCE_L1_FLOOR = 0.2  # rejection threshold for resource-state sampling


@dataclass(frozen=True)
class AxiomReport:
    axiom: str      # S1|S2|S3|S4|C2|C4|ORACLE
    measure: str
    trials: int
    tolerance: float
    violations: tuple  # of dicts {trial, digest, lhs, rhs, slack}
    max_slack: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "axiom": self.axiom,
            "measure": self.measure,
            "trials": self.trials,
            "tolerance": self.tolerance,
            "violations": list(self.violations),
            "max_slack": self.max_slack,
            "note": self.note,
        }

    def to_row(self) -> str:
        status = "pass" if self.passed else f"FAIL({len(self.violations)})"
        return (f"{self.measure:<12} {self.axiom:<7} trials={self.trials:<5} "
                f"tol={self.tolerance:<8g} max_slack={self.max_slack:<12.3e} {status}")


def report_json(reports) -> str:
    return json.dumps([r.to_json() for r in reports], sort_keys=True, indent=1)


def report_table(reports) -> str:
    return "\n".join(r.to_row() for r in reports)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.round(np.asarray(a, dtype=complex), 12).tobytes())
    return h.hexdigest()[:12]


# ---------------------------------------------------------------------------
# measure registry


@dataclass(frozen=True)
class MeasureConfig:
    fn: Callable[[DensityMatrix, SuperpositionBasis], float]
    tolerance: float
    channel_family: str  # "standard" | "real_dual"
    free_sampler: Callable[[SuperpositionBasis, int], DensityMatrix]
    resource_sampler: Callable[[SuperpositionBasis, int], DensityMatrix]
    # roof measures expose the full result so convexity checks can seed the
    # mixture search with the concatenated component ensembles
    roof_fn: Optional[Callable] = None


def _resource_state(basis, seed):
    """Random full-rank state, rejecting near-free samples so positivity
    under S1 is tested with a margin."""
    d = basis.dimension
    for attempt in range(64):
        rho = random_density(d, d, seed * 977 + attempt)
        if m_l1(rho, basis).value >= RESOURCE_L1_FLOOR:
            return rho
    return rho


def _real_coeff_free(basis, seed):
    """State with a real oblique coefficient matrix (the fixed points of the
    transposition average)."""
    d = basis.dimension
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, d))
    R = A @ A.T
    R /= np.trace(R @ basis.gram).real
    return state_from_coefficients(CoefficientMatrix(entries=R, basis=basis), basis)


def _complex_coeff_resource(basis, seed):
    """State whose coefficient matrix has a substantial imaginary part."""
    d = basis.dimension
    for attempt in range(64):
        rho = random_density(d, d, seed * 661 + attempt)
        R = coefficients_of(rho, basis).entries
        if np.max(np.abs(R.imag)) >= 0.05:
            return rho
    return rho


def _campaign_roof(solver, rho, basis, extra_starts=()):
    # rank-many members have matched the larger default cap empirically at
    # d <= 3 while keeping the search space small
    opts = RoofOptions(ensemble_size_cap=1, extra_starts=tuple(extra_starts),
                       **CAMPAIGN_ROOF_OPTS)
    return solver(rho, basis, opts)


def _measure_registry():
    def std(fn, tol, roof_fn=None):
        return MeasureConfig(fn=fn, tolerance=tol, channel_family="standard",
                             free_sampler=random_free,
                             resource_sampler=_resource_state, roof_fn=roof_fn)

    return {
        "l1": std(lambda r, b: m_l1(r, b).value, 1e-6),
        "rel_ent": std(lambda r, b: m_rel_ent(r, b).value, 1e-3),
        "rank": std(lambda r, b: _campaign_roof(m_rank, r, b).value, 1e-3,
                    roof_fn=lambda r, b, extra_starts=():
                    _campaign_roof(m_rank, r, b, extra_starts)),
        "robustness": std(lambda r, b: m_robustness(r, b).value, 1e-3),
        "weight": std(lambda r, b: m_weight(r, b).value, 1e-3),
        "l1_roof": std(lambda r, b: _campaign_roof(m_l1_roof, r, b).value, 1e-3,
                       roof_fn=lambda r, b, extra_starts=():
                       _campaign_roof(m_l1_roof, r, b, extra_starts)),
        "rel_ent_roof": std(lambda r, b: _campaign_roof(m_rel_ent_roof, r, b).value, 1e-3,
                            roof_fn=lambda r, b, extra_starts=():
                            _campaign_roof(m_rel_ent_roof, r, b, extra_starts)),
        "delta": MeasureConfig(
            fn=lambda r, b: m_delta(r, b).value, tolerance=1e-6,
            channel_family="real_dual", free_sampler=_real_coeff_free,
            resource_sampler=_complex_coeff_resource),
        # negative control: l1 plus a diagonal term; not faithful
        "broken_l1": std(lambda r, b: m_l1(r, b).value
                         + 0.1 * float(np.abs(np.diag(coefficients_of(r, b).entries)).sum()),
                         1e-6),
    }


MEASURES = _measure_registry()


def _sample_channel(family: str, basis: SuperpositionBasis, seed: int):
    if family == "standard":
        return random_free_channel(basis, seed)
    if family == "real_dual":
        rng = np.random.default_rng(seed)
        d = basis.dimension
        n = int(rng.integers(2, 4))
        cs = [rng.standard_normal((d, d)) for _ in range(n)]
        return real_dual_kraus(basis, cs)
    raise UnknownChannelFamily(family)


# ---------------------------------------------------------------------------
# axiom campaigns


def _free_and_resource_trial(cfg, basis, family, tol, ts):
    free = cfg.free_sampler(basis, ts)
    v = cfg.fn(free, basis)
    yield free.matrix, v, tol, v - tol
    res = cfg.resource_sampler(basis, ts)
    v = cfg.fn(res, basis)
    yield res.matrix, tol, v, tol - v


def _channel_trial(cfg, basis, family, tol, ts):
    rho = cfg.resource_sampler(basis, ts)
    chan = _sample_channel(family, basis, ts)
    before = cfg.fn(rho, basis)
    after = cfg.fn(apply(chan, rho), basis)
    yield rho.matrix, after, before, after - before - tol


def _selective_trial(cfg, basis, family, tol, ts):
    rho = cfg.resource_sampler(basis, ts)
    chan = _sample_channel(family, basis, ts + 1)
    before = cfg.fn(rho, basis)
    avg = sum(p * cfg.fn(out, basis) for p, out in apply_selective(chan, rho))
    yield rho.matrix, avg, before, avg - before - tol


def _mixture_trial(cfg, basis, family, tol, ts):
    rng = np.random.default_rng(ts)
    k = int(rng.integers(2, 4))
    parts = [cfg.resource_sampler(basis, ts * 31 + j) for j in range(k)]
    w = rng.exponential(size=k)
    w /= w.sum()
    mix = DensityMatrix(sum(wi * p.matrix for wi, p in zip(w, parts)))
    if cfg.roof_fn is not None:
        # seed the mixture search with the concatenated component
        # ensembles, which form a valid decomposition of the mixture
        results = [cfg.roof_fn(p, basis) for p in parts]
        rhs = sum(wi * res.value for wi, res in zip(w, results))
        members = [(wi * p, phi) for wi, res in zip(w, results)
                   for p, phi in res.certificate.members]
        start = ensemble_warm_start(mix, members)
        lhs = cfg.roof_fn(mix, basis, extra_starts=(start,)).value
    else:
        lhs = cfg.fn(mix, basis)
        rhs = sum(wi * cfg.fn(p, basis) for wi, p in zip(w, parts))
    yield mix.matrix, lhs, rhs, lhs - rhs - tol


# One row per axiom: (axiom, trial-seed stride, trial cap, note, trial
# function).  A trial function yields (matrix, lhs, rhs, slack) records for
# one trial seed; slack > 0 is a violation, reported by the matrix digest.
# S2-S4 cap at 50 trials since each trial calls solvers on several states.
_AXIOM_SPECS = (
    ("S1", 100003, None,
     "free samples must vanish; resource samples must exceed tol",
     _free_and_resource_trial),
    ("S2", 100019, 50,
     "channels sampled from the free-by-construction family '{family}'; "
     "necessary condition only",
     _channel_trial),
    ("S3", 100043, 50, "selective outcomes of family '{family}'", _selective_trial),
    ("S4", 100057, 50, "", _mixture_trial),
)


def run_axiom_campaign(measure: str, basis: SuperpositionBasis,
                       channel_family: Optional[str] = None, trials: int = 200,
                       seed: int = 0, tol: Optional[float] = None):
    """Run S1-S4 for one measure; returns a list of four AxiomReport.

    S1 uses the full trial count; S2-S4 cap at 50 trials.
    """
    if measure not in MEASURES:
        raise UnknownMeasure(f"unknown measure {measure!r}")
    cfg = MEASURES[measure]
    family = channel_family or cfg.channel_family
    if family not in ("standard", "real_dual"):
        raise UnknownChannelFamily(family)
    tolerance = cfg.tolerance if tol is None else tol
    reports = []
    for axiom, stride, cap, note, trial in _AXIOM_SPECS:
        count = trials if cap is None else min(trials, cap)
        violations = []
        max_slack = -math.inf
        for t in range(count):
            for matrix, lhs, rhs, slack in trial(cfg, basis, family, tolerance,
                                                 seed * stride + t):
                max_slack = max(max_slack, slack)
                if slack > 0:
                    violations.append({"trial": t, "digest": _digest(matrix),
                                       "lhs": lhs, "rhs": rhs, "slack": slack})
        reports.append(AxiomReport(
            axiom=axiom, measure=measure, trials=count, tolerance=tolerance,
            violations=tuple(violations), max_slack=max_slack,
            note=note.format(family=family)))
    return reports


# ---------------------------------------------------------------------------
# brute-force oracles (d = 2)


def _free_grid(basis: SuperpositionBasis, step: float) -> np.ndarray:
    """The free states V diag(q0, 1 - q0) V^dag at q0 = step, 2 step, ...
    below 1, stacked (n, 2, 2)."""
    q0 = np.arange(step, 1.0, step)
    V = basis.vectors
    return (V * np.stack([q0, 1.0 - q0], axis=1)[:, None, :]) @ V.conj().T


def oracle_rel_ent_grid(rho: DensityMatrix, basis: SuperpositionBasis,
                        step: float = 1e-3) -> float:
    """Scan the free simplex; relative entropy in bits at each node."""
    lr = np.clip(np.linalg.eigvalsh(rho.matrix), 0.0, None)
    const = float(np.sum(lr[lr > 1e-12] * np.log(lr[lr > 1e-12])))
    s, U = np.linalg.eigh(_free_grid(basis, step))
    diag = np.einsum("nji,jk,nki->ni", U.conj(), rho.matrix, U).real
    vals = const - np.sum(diag * np.log(np.clip(s, 1e-300, None)), axis=1)
    return max(float(vals.min()) / math.log(2.0), 0.0)


def oracle_robustness_grid(rho: DensityMatrix, basis: SuperpositionBasis,
                           step: float = 1e-3) -> float:
    """min over the free-state grid of lambda_max(sigma^{-1} rho) - 1."""
    ev = np.linalg.eigvals(np.linalg.solve(_free_grid(basis, step), rho.matrix))
    return max(float(ev.real.max(axis=1).min()) - 1.0, 0.0)


def oracle_weight_grid(rho: DensityMatrix, basis: SuperpositionBasis,
                       steps: int = 2001) -> float:
    """Sweep w0, take the largest feasible w1 from the 2x2 determinant
    condition (R00-w0)(R11-w1) >= |R01|^2."""
    R = coefficients_of(rho, basis).entries
    r00 = float(R[0, 0].real)
    r11 = float(R[1, 1].real)
    c2 = float(np.abs(R[0, 1]) ** 2)
    best = 0.0
    for w0 in np.linspace(0.0, r00, steps):
        head = r00 - w0
        if head <= 0:
            if c2 > 1e-30:
                continue  # determinant condition fails at the corner
            w1 = r11
        else:
            w1 = r11 - c2 / head
        if w1 < 0:
            continue
        best = max(best, w0 + min(w1, r11))
    return 1.0 - min(best, 1.0)


def oracle_roof_grid_rho_x(x: float, mu: float, step: float = math.pi / 400) -> float:
    """Two-member decompositions of rho(x) over a (mixing angle, relative
    phase) grid; minimum of the ensemble-averaged l1 value."""
    rho, basis = rho_x(x, mu)
    evals, evecs = np.linalg.eigh(rho.matrix)
    order = np.argsort(evals)[::-1]
    lam = np.clip(evals[order], 0.0, None)
    E = evecs[:, order]
    Chat = basis.biorthogonal_duals
    B = Chat.conj().T @ (E * np.sqrt(lam))  # coefficient image of sqrt-eigvecs
    alphas = np.arange(0.0, math.pi / 2 + step, step)
    phases = np.arange(0.0, math.pi + step, step)
    ca, sa = np.cos(alphas), np.sin(alphas)
    best = math.inf
    for ph in phases:
        e = np.exp(1j * ph)
        # member columns: B @ T.T for T = [[c, s e], [-s e*, c]]
        m1 = np.abs(np.outer(B[:, 0], ca) + np.outer(B[:, 1] * e, sa))
        m2 = np.abs(np.outer(-B[:, 0] * np.conj(e), sa) + np.outer(B[:, 1], ca))
        cost = (m1.sum(axis=0) ** 2 - (m1**2).sum(axis=0)
                + m2.sum(axis=0) ** 2 - (m2**2).sum(axis=0))
        best = min(best, float(cost.min()))
    return max(best, 0.0)


ORACLES = {
    "rel_ent_grid": ("rel_ent", oracle_rel_ent_grid),
    "robustness_grid": ("robustness", oracle_robustness_grid),
    "weight_grid": ("weight", oracle_weight_grid),
    "roof_grid": ("l1_roof", None),  # special-cased: rho(x) family
}


def run_oracle_campaign(measure: str, oracle: str, trials: int = 50,
                        seed: int = 0, tol: float = 1e-3) -> AxiomReport:
    """Compare the solver against brute force on random d=2 states (or the
    rho(x) family for the roof oracle)."""
    if oracle not in ORACLES:
        raise UnknownOracle(oracle)
    want_measure, oracle_fn = ORACLES[oracle]
    if measure != want_measure:
        raise UnknownOracle(f"oracle {oracle} checks {want_measure}, not {measure}")
    cfg = MEASURES[measure]
    basis = constant_overlap_basis(2, 0.5)
    violations = []
    max_slack = -math.inf
    rng = np.random.default_rng(seed)
    for t in range(trials):
        if oracle == "roof_grid":
            x = float(rng.uniform(-0.45, 0.45))
            rho, basis_x = rho_x(x, 0.5)
            solver = m_l1_roof(rho, basis_x, RoofOptions(ensemble_size_cap=2,
                                                         restarts=6, seed=0)).value
            truth = oracle_roof_grid_rho_x(x, 0.5)
            # the solver value is an upper bound: it may only undershoot the
            # grid by numerical tolerance, and overshoot by the grid spacing
            slack = max(solver - truth - tol, truth - solver - tol)
            digest = _digest(np.array([x]))
        else:
            rho = cfg.resource_sampler(basis, seed * 100069 + t)
            solver = cfg.fn(rho, basis)
            truth = oracle_fn(rho, basis)
            slack = abs(solver - truth) - tol
            digest = _digest(rho.matrix)
        max_slack = max(max_slack, slack)
        if slack > 0:
            violations.append({"trial": t, "digest": digest,
                               "lhs": solver, "rhs": truth, "slack": slack})
    return AxiomReport(
        axiom="ORACLE", measure=measure, trials=trials, tolerance=tol,
        violations=tuple(violations), max_slack=max_slack,
        note=f"brute-force oracle '{oracle}' at d=2")
