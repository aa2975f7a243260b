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

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .basis import SuperpositionBasis, constant_overlap_basis
from .channels import apply, apply_selective, random_free_channel
from .errors import ParameterOutOfRange, UnknownChannelFamily, UnknownMeasure, UnknownOracle
from .measures import (
    MeasureResult,
    RoofOptions,
    _m_rel_ent_many,
    _m_robustness_many,
    _m_weight_many,
    _require_options,
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
    random_density,
    random_free,
    state_from_coefficients,
)
from .qstate import CoefficientMatrix
from .solvers import _drive

# Roof searches inside campaigns run with reduced effort; the solver value
# is an upper bound for any setting, so smaller budgets can only make the
# campaigns harder to pass, never unsoundly easier.
CAMPAIGN_ROOF_OPTS = {"restarts": 8, "seed": 0}

RESOURCE_L1_FLOOR = 0.2  # rejection threshold for resource-state sampling


@dataclass(frozen=True)
class AxiomReport:
    axiom: str      # S1|S2|S3|S4|ORACLE
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
        return {**dataclasses.asdict(self), "violations": list(self.violations)}

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
    fn: Callable[..., MeasureResult]
    tolerance: float
    channel_family: str  # "standard" | "real_dual"
    free_sampler: Callable[[SuperpositionBasis, int], DensityMatrix]
    resource_sampler: Callable[[SuperpositionBasis, int], DensityMatrix]
    # a roof's fn takes RoofOptions, and its certificate is the ensemble
    # that convexity checks concatenate to seed the mixture search
    roof: bool = False
    # fn of each state of a list, evaluated together (_evaluate_many)
    many: Optional[Callable[..., list]] = None


def _first_accepted(d, base, accept):
    """First of 64 draws random_density(d, d, base + k) that accept takes, else the last."""
    for attempt in range(64):
        rho = random_density(d, d, base + attempt)
        if accept(rho):
            break
    return rho


def _resource_state(basis, seed):
    """Random full-rank state, rejecting near-free samples so positivity
    under S1 is tested with a margin."""
    return _first_accepted(basis.dimension, seed * 977,
                           lambda rho: m_l1(rho, basis).value >= RESOURCE_L1_FLOOR)


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
    return _first_accepted(
        basis.dimension, seed * 661,
        lambda rho: np.max(np.abs(coefficients_of(rho, basis).entries.imag)) >= 0.05)


def _evaluate(cfg: MeasureConfig, rho, basis, extra_starts=()) -> MeasureResult:
    if not cfg.roof:
        return cfg.fn(rho, basis)
    # rank-many members have matched the larger default cap empirically at
    # d <= 3 while keeping the search space small
    return cfg.fn(rho, basis, RoofOptions(ensemble_size_cap=1, extra_starts=extra_starts,
                                          **CAMPAIGN_ROOF_OPTS))


def _evaluate_many(cfg: MeasureConfig, states, basis, extra_starts=None) -> list:
    """_evaluate of each state, the roofs' with its extra_starts entry: by
    cfg.many in one call where the measure has a many-state form, else one
    state at a time."""
    if cfg.many is not None:
        return cfg.many(states, basis)
    return [_evaluate(cfg, rho, basis, extra)
            for rho, extra in zip(states, extra_starts or [()] * len(states))]


def _broken_l1(rho, basis) -> MeasureResult:
    """Negative control: l1 plus a diagonal term; not faithful."""
    diag = np.abs(np.diag(coefficients_of(rho, basis).entries)).sum()
    return MeasureResult(value=m_l1(rho, basis).value + 0.1 * float(diag))


def _measure_registry():
    def std(fn, tol, roof=False, many=None):
        return MeasureConfig(fn=fn, tolerance=tol, channel_family="standard",
                             free_sampler=random_free,
                             resource_sampler=_resource_state, roof=roof, many=many)

    return {
        "l1": std(m_l1, 1e-6),
        "rel_ent": std(m_rel_ent, 1e-3, many=_m_rel_ent_many),
        "rank": std(m_rank, 1e-3, roof=True),
        "robustness": std(m_robustness, 1e-3, many=_m_robustness_many),
        "weight": std(m_weight, 1e-3, many=_m_weight_many),
        "l1_roof": std(m_l1_roof, 1e-3, roof=True),
        "rel_ent_roof": std(m_rel_ent_roof, 1e-3, roof=True),
        "delta": MeasureConfig(
            fn=m_delta, tolerance=1e-6,
            channel_family="real_dual", free_sampler=_real_coeff_free,
            resource_sampler=_complex_coeff_resource),
        "broken_l1": std(_broken_l1, 1e-6),
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
#
# A trial is a generator of solvers._drive requests: it yields
# ("states", pairs), a list of (state, extra_starts) pairs to evaluate, is
# sent their MeasureResults, and returns its (matrix, lhs, rhs, slack)
# records; slack > 0 is a violation.


def _free_and_resource_trial(cfg, basis, family, tol, ts):
    free = cfg.free_sampler(basis, ts)
    res = cfg.resource_sampler(basis, ts)
    at_free, at_res = (r.value for r in (yield "states", [(free, ()), (res, ())]))
    return [(free.matrix, at_free, tol, at_free - tol), (res.matrix, tol, at_res, tol - at_res)]


def _channel_trial(cfg, basis, family, tol, ts):
    rho = cfg.resource_sampler(basis, ts)
    chan = _sample_channel(family, basis, ts)
    before, after = (r.value for r in (yield "states", [(rho, ()), (apply(chan, rho), ())]))
    return [(rho.matrix, after, before, after - before - tol)]


def _selective_trial(cfg, basis, family, tol, ts):
    rho = cfg.resource_sampler(basis, ts)
    chan = _sample_channel(family, basis, ts + 1)
    outcomes = apply_selective(chan, rho)
    before, *after = yield "states", [(rho, ())] + [(out, ()) for _, out in outcomes]
    avg = sum(p * res.value for (p, _), res in zip(outcomes, after))
    return [(rho.matrix, avg, before.value, avg - before.value - tol)]


def _mixture_trial(cfg, basis, family, tol, ts):
    rng = np.random.default_rng(ts)
    k = int(rng.integers(2, 4))
    parts = [cfg.resource_sampler(basis, ts * 31 + j) for j in range(k)]
    w = rng.exponential(size=k)
    w /= w.sum()
    mix = DensityMatrix(sum(wi * p.matrix for wi, p in zip(w, parts)))
    if cfg.roof:
        # seed the mixture search with the concatenated component
        # ensembles, which form a valid decomposition of the mixture, so
        # the components are evaluated first
        results = yield "states", [(p, ()) for p in parts]
        members = [(wi * p, phi) for wi, res in zip(w, results)
                   for p, phi in res.certificate.members]
        mixed, = yield "states", [(mix, (ensemble_warm_start(mix, members),))]
    else:
        *results, mixed = yield "states", [(p, ()) for p in parts] + [(mix, ())]
    lhs = mixed.value
    rhs = sum(wi * res.value for wi, res in zip(w, results))
    return [(mix.matrix, lhs, rhs, lhs - rhs - tol)]


def _run_trials(cfg, basis, trials) -> list:
    """Run the trial generators together (solvers._drive); returns each
    one's records.  In each round the states that every unfinished trial
    asks for go through one _evaluate_many call."""
    def evaluate(requests, owners):
        pairs = [pair for ask, in requests for pair in ask]
        results = iter(_evaluate_many(cfg, [rho for rho, _ in pairs], basis,
                                      [extra for _, extra in pairs]))
        return [[next(results) for _ in ask] for ask, in requests]

    return _drive(trials, {"states": lambda ask: evaluate([(ask,)], None)[0]},
                  {"states": evaluate})


def _report(axiom, measure, tol, note, trials) -> AxiomReport:
    """The report on trials, each trial's list of records; a violation is
    reported by its trial index and matrix digest."""
    violations = []
    max_slack = -math.inf
    for t, records in enumerate(trials):
        for matrix, lhs, rhs, slack in records:
            max_slack = max(max_slack, slack)
            if slack > 0:
                violations.append({"trial": t, "digest": _digest(matrix),
                                   "lhs": lhs, "rhs": rhs, "slack": slack})
    return AxiomReport(axiom=axiom, measure=measure, trials=len(trials), tolerance=tol,
                       violations=tuple(violations), max_slack=max_slack, note=note)


# One row per axiom: (axiom, trial-seed stride, trial cap, note, trial
# function).  A trial function makes the trial of one trial seed.  S2-S4
# cap at 50 trials since each trial calls solvers on several states.
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

    S1 uses the full trial count; S2-S4 cap at 50 trials.  The trials of
    all four rows run together (_run_trials).  trials must be an integer >= 1
    and seed an integer >= 0 (ParameterOutOfRange otherwise).
    """
    if measure not in MEASURES:
        raise UnknownMeasure(f"unknown measure {measure!r}")
    if basis.dimension < 2:
        # every state is free at d = 1, so S1 has no resource state to test
        raise ParameterOutOfRange(f"dimension must be at least 2, got {basis.dimension}")
    cfg = MEASURES[measure]
    family = channel_family or cfg.channel_family
    if family not in ("standard", "real_dual"):
        raise UnknownChannelFamily(family)
    _require_options(seed, trials=trials)
    tolerance = cfg.tolerance if tol is None else tol
    counts = [trials if cap is None else min(trials, cap) for _, _, cap, _, _ in _AXIOM_SPECS]
    records = iter(_run_trials(cfg, basis, [
        trial(cfg, basis, family, tolerance, seed * stride + t)
        for (_, stride, _, _, trial), count in zip(_AXIOM_SPECS, counts) for t in range(count)]))
    return [_report(axiom, measure, tolerance, note.format(family=family),
                    [next(records) for _ in range(count)])
            for (axiom, _, _, note, _), count in zip(_AXIOM_SPECS, counts)]


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
    w0 = np.linspace(0.0, r00, steps)
    head = r00 - w0
    inner = head > 0
    w1 = np.full(steps, r11)
    w1[inner] = r11 - c2 / head[inner]
    # at the corner head <= 0 the determinant condition fails unless R01 = 0
    feasible = (inner | (c2 <= 1e-30)) & (w1 >= 0)
    best = (w0[feasible] + np.minimum(w1[feasible], r11)).max(initial=0.0)
    return 1.0 - min(best, 1.0)


def oracle_roof_grid(rho: DensityMatrix, basis: SuperpositionBasis,
                     step: float = math.pi / 400) -> float:
    """Two-member decompositions of rho over a (mixing angle, relative
    phase) grid; minimum of the ensemble-averaged l1 value."""
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
    "roof_grid": ("l1_roof", oracle_roof_grid),
}


def run_oracle_campaign(measure: str, oracle: str, trials: int = 50,
                        seed: int = 0, tol: float = 1e-3) -> AxiomReport:
    """Compare the solver against brute force on random d=2 resource states,
    evaluated together (_evaluate_many).  trials must be an integer >= 1 and
    seed an integer >= 0 (ParameterOutOfRange otherwise)."""
    if oracle not in ORACLES:
        raise UnknownOracle(oracle)
    want_measure, oracle_fn = ORACLES[oracle]
    if measure != want_measure:
        raise UnknownOracle(f"oracle {oracle} checks {want_measure}, not {measure}")
    _require_options(seed, trials=trials)
    cfg = MEASURES[measure]
    basis = constant_overlap_basis(2, 0.5)
    states = [cfg.resource_sampler(basis, seed * 100069 + t) for t in range(trials)]
    found = [(rho.matrix, res.value, oracle_fn(rho, basis))
             for rho, res in zip(states, _evaluate_many(cfg, states, basis))]
    # checked two-sided, |solver - truth| <= tol: a roof decomposition may
    # cost more than the grid minimum by the search's error, and less by the
    # grid's discretization error
    return _report("ORACLE", measure, tol, f"brute-force oracle '{oracle}' at d=2",
                   [[(key, solver, truth, abs(solver - truth) - tol)]
                    for key, solver, truth in found])
