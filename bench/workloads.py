"""The benchmark's workloads: seeded inputs, the items that call the
package, and the correctness check on each item's output.

An item is one public call: a measure call or one ``superposition.cli.main``
invocation.  Items look the package functions up at call time
(``sp.m_l1_roof``, ``sp_cli.main``) so that the wrappers installed by
``tracing.Tracer`` see them.  Everything random is drawn from the workload
seed; the solver seeds inside ``RoofOptions`` are program configuration and
stay fixed.
"""

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import superposition as sp
import superposition.cli as sp_cli

# Name prefixes of the items that fail at some of the seeds tried, with the
# reason.  They stay in the input set and count in `failed`; a failure of
# any other item makes the run incorrect.
KNOWN_FAILURES = {
    "axioms robustness d=3 mu=0.999": (
        "fails at most seeds: min_dominating_diagonal's Newton step raises "
        "LinAlgError 'Singular matrix' (CLI exit 2), or S1-S4 report a violation (exit 3)"),
    "measure rel_ent ": (
        "on about 1 in 40 random complex bases at d=8 (fewer at d=4, 6) "
        "mirror_descent_simplex stops after ~14 iterations with converged=False "
        "because its line search finds no decrease; the CLI exits 3"),
}


def known_failure(name: str) -> bool:
    return any(name.startswith(prefix) for prefix in KNOWN_FAILURES)


# Campaign roof settings: ensemble cap r (the engines raise a cap of 1 to the
# rank r), 8 restarts, 1200 evaluations.  CAP_R2 keeps the default cap r^2.
CAMPAIGN = dict(restarts=8, max_evals=1200, seed=0)
CAP_R = sp.RoofOptions(ensemble_size_cap=1, **CAMPAIGN)
CAP_R2 = sp.RoofOptions(**CAMPAIGN)
# One restart for the relative-entropy roof: with 8 restarts one d=2 call
# takes 5 to 55 s depending on the state (its inner m_rel_ent calls run up to
# 400 iterations each), more than one run can absorb.  One restart keeps the
# same search and the same heavy tail at 0.6 to 5 s.
REL_ENT_ONE_START = sp.RoofOptions(ensemble_size_cap=1, restarts=1, max_evals=1200, seed=0)

ROOF_GROUPS = 4          # state triples (full rank, rank deficient, free) per d
AXIOM_TRIALS = 20
MEASURE_STATES = 8       # JSON states per d for the `measure` calls

LOWER_BOUND_SLACK = 1e-9
EXAMPLE1_TOL = 1e-3
PLAIN_MATCH_TOL = 1e-6
PSD_SLACK = 1e-9
CERT_TOL = 1e-6
L1_TOL = 1e-9


@dataclass
class Outcome:
    """Result of checking one item's output.

    value is what must repeat exactly between passes and between traced and
    untraced runs; ref_err is |value - reference| where a reference exists;
    roof_gap is roof value minus its certified lower bound.
    """

    ok: bool
    value: object = None
    ref_err: Optional[float] = None
    roof_gap: Optional[float] = None
    detail: str = ""


@dataclass
class Item:
    name: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]


@dataclass
class CliRun:
    code: int
    out: str
    err: str


def run_cli(argv) -> CliRun:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = sp_cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return CliRun(code, out.getvalue(), err.getvalue())


def _cli_failed(run: CliRun) -> Optional[Outcome]:
    if run.code == 0:
        return None
    last = run.err.strip().splitlines()[-1:] or [""]
    return Outcome(False, value=run.out, detail=f"exit {run.code}: {last[0]}")


def _seeds(seed: int, n: int) -> list:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


# ---------------------------------------------------------------------------
# roof_search


def _roof_check(rho, basis, lower_fn, name):
    def check(result):
        lower = lower_fn(rho, basis).value
        gap = result.value - lower
        ok = gap >= -LOWER_BOUND_SLACK
        return Outcome(ok, value=result.value, roof_gap=gap,
                       detail="" if ok else f"{name} {result.value!r} below bound {lower!r}")
    return check


def _rank_check(d):
    def check(result):
        ok = -LOWER_BOUND_SLACK <= result.value <= math.log2(d) + LOWER_BOUND_SLACK
        return Outcome(ok, value=result.value,
                       detail="" if ok else f"rank roof {result.value!r} outside [0, log2 d]")
    return check


def _example1_check(run: CliRun) -> Outcome:
    failed = _cli_failed(run)
    if failed:
        return failed
    rows = [line.split(",") for line in run.out.strip().splitlines()[1:]]
    errs, gaps = [], []
    for mu, x, _, roof, _, _ in ([float(v) for v in row] for row in rows):
        closed = 2.0 * abs(x) / (1.0 + 2.0 * mu * x)
        errs.append(abs(roof - closed))
        gaps.append(roof - closed)
    ok = bool(rows) and max(errs) <= EXAMPLE1_TOL and min(gaps) >= -LOWER_BOUND_SLACK
    return Outcome(ok, value=run.out, ref_err=max(errs, default=None),
                   roof_gap=float(np.mean(gaps)) if gaps else None,
                   detail="" if ok else "rho_x rows off the closed form")


def roof_search(seed: int, workdir: Path) -> list:
    items = []
    seeds = iter(_seeds(seed, 64))
    first_full_d2 = None
    for d in (2, 3, 4):
        basis = sp.constant_overlap_basis(d, 0.5)
        for g in range(ROOF_GROUPS):
            states = {
                "full": sp.random_density(d, d, next(seeds)),
                "rankdef": sp.random_density(d, d - 1, next(seeds)),
                "free": sp.random_free(basis, next(seeds)),
            }
            if d == 2 and first_full_d2 is None:
                first_full_d2 = states["full"]
            for kind, rho in states.items():
                tag = f"d={d} {kind}#{g}"
                items.append(Item(
                    f"m_l1_roof cap=r {tag}",
                    lambda rho=rho, b=basis: sp.m_l1_roof(rho, b, CAP_R),
                    _roof_check(rho, basis, sp.m_l1, "l1 roof")))
                items.append(Item(
                    f"m_rank cap=r {tag}",
                    lambda rho=rho, b=basis: sp.m_rank(rho, b, CAP_R),
                    _rank_check(d)))
                if d == 3:
                    items.append(Item(
                        f"m_l1_roof cap=r^2 {tag}",
                        lambda rho=rho, b=basis: sp.m_l1_roof(rho, b, CAP_R2),
                        _roof_check(rho, basis, sp.m_l1, "l1 roof")))
    basis2 = sp.constant_overlap_basis(2, 0.5)
    items.append(Item(
        "m_rel_ent_roof cap=r restarts=1 d=2 full#0",
        lambda: sp.m_rel_ent_roof(first_full_d2, basis2, REL_ENT_ONE_START),
        _roof_check(first_full_d2, basis2, sp.m_rel_ent, "rel_ent roof")))
    rng = np.random.default_rng(next(seeds))
    mus = [f"{mu:.6f}" for mu in rng.uniform(0.1, 0.9, 2)]
    argv = ["example1", "--mu", *mus, "--x-steps", "9"]
    items.append(Item(f"example1 mu={','.join(mus)}",
                      lambda: run_cli(argv), _example1_check))
    return items


# ---------------------------------------------------------------------------
# cli_campaign


def _axioms_check(run: CliRun) -> Outcome:
    failed = _cli_failed(run)
    if failed:
        return failed
    # an oracle report's max_slack is max |solver - oracle| - tolerance
    oracle = [(r["max_slack"] + r["tolerance"], r["tolerance"])
              for r in json.loads(run.out) if r["axiom"] == "ORACLE"]
    ok = all(err <= tol for err, tol in oracle)
    return Outcome(ok, value=run.out, ref_err=max((err for err, _ in oracle), default=None),
                   detail="" if ok else "oracle gap above tolerance")


def _l1_reference(rho, basis):
    vinv = np.linalg.inv(basis.vectors)
    R = vinv @ rho.matrix @ vinv.conj().T
    return float(np.abs(R).sum() - np.abs(np.diag(R)).sum())


def _measure_check(measure, rho, basis):
    def check(run: CliRun) -> Outcome:
        failed = _cli_failed(run)
        if failed:
            return failed
        payload = json.loads(run.out)
        value, cert = payload["value"], payload["certificate"]
        if measure == "l1":
            err = abs(value - _l1_reference(rho, basis))
            ok = err <= L1_TOL
        elif measure == "weight":
            err = abs(value - (1.0 - float(np.sum(cert["w"]))))
            ok = err <= CERT_TOL
        elif measure == "robustness":
            sigma = sp.free_state(basis, cert["q"]).matrix
            lam = float(np.linalg.eigvalsh((1.0 + cert["s"]) * sigma - rho.matrix).min())
            err = max(-lam, 0.0)
            ok = lam >= -PSD_SLACK and value == cert["s"]
        else:  # rel_ent
            err = abs(value - sp.relative_entropy(rho, sp.free_state(basis, cert)))
            ok = err <= CERT_TOL
        return Outcome(ok, value=run.out, ref_err=err,
                       detail="" if ok else f"certificate misses {measure} value by {err:g}")
    return check


def _random_basis(d, seed):
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return sp.build_basis(V / np.linalg.norm(V, axis=0))


def cli_campaign(seed: int, workdir: Path) -> list:
    items = []
    for d in (2, 3):
        for mu in (1.0 / (1 - d) + 1e-3, 0.5, 1.0 - 1e-3):
            for measure in ("l1", "rel_ent", "weight", "robustness", "delta"):
                argv = ["axioms", "--measure", measure, "--d", str(d), "--mu", f"{mu:.6g}",
                        "--trials", str(AXIOM_TRIALS), "--seed", str(seed)]
                items.append(Item(f"axioms {measure} d={d} mu={mu:.6g}",
                                  lambda argv=argv: run_cli(argv), _axioms_check))
    seeds = iter(_seeds(seed, 256))
    workdir.mkdir(parents=True, exist_ok=True)
    for d in (4, 6, 8):
        for k in range(MEASURE_STATES):
            rho = sp.random_density(d, d, next(seeds))
            state_file = workdir / f"state_d{d}_{k}.json"
            state_file.write_text(json.dumps(rho.to_json()))
            for measure in ("l1", "rel_ent", "weight", "robustness"):
                basis = _random_basis(d, next(seeds))
                basis_file = workdir / f"basis_d{d}_{k}_{measure}.json"
                basis_file.write_text(json.dumps(basis.to_json()))
                argv = ["measure", "--state", str(state_file), "--basis", str(basis_file),
                        "--measure", measure]
                items.append(Item(f"measure {measure} d={d} #{k}",
                                  lambda argv=argv: run_cli(argv),
                                  _measure_check(measure, rho, basis)))
    return items


# ---------------------------------------------------------------------------
# block_barrier


# d, blocks, resource states, how many of them also get the weight measure.
# Every resource state also enters block-dephased, as a block-free input,
# with both measures.  A weight call on a resource state costs about ten
# robustness calls, and its cost depends most on the state: 0.3 to 3.5 s at
# 1+2 and 1.7 to 5.6 s at 2+2, so one such call would set most of wall_s.
# Weight on resource states therefore runs on three cheap d=2 singleton
# states, which have a reference (even there its cost varies by 0.7 of its
# mean).  Robustness runs on every resource state; the d=6 states are the
# most (24), and their cost varies least with the state (about 0.23 of its
# mean), so item_ms_tail, the 11th-slowest item, falls in the middle of that
# cluster.  Singleton robustness varies least of all (0.13 at d=3).
PARTITIONS = (
    (2, ((0,), (1,)), 6, 3),
    (3, ((0,), (1,), (2,)), 8, 0),
    (3, ((0,), (1, 2)), 6, 0),
    (4, ((0, 1), (2, 3)), 8, 0),
    (5, ((0, 1, 2, 3, 4),), 1, 1),
    (6, ((0, 1), (2, 3), (4, 5)), 24, 0),
)


def _block_check(rho, basis, singletons, free, plain_fn):
    def check(result):
        value = result.value
        if free:
            err = abs(value)
            ok = value == 0.0
        elif singletons:
            err = abs(value - plain_fn(rho, basis).value)
            ok = err <= PLAIN_MATCH_TOL
        else:
            err = None
            ok = math.isfinite(value) and value >= 0.0
        return Outcome(ok, value=value, ref_err=err,
                       detail="" if ok else f"value {value!r} fails its block check")
    return check


def block_barrier(seed: int, workdir: Path) -> list:
    items = []
    seeds = iter(_seeds(seed, 64))
    for d, blocks, n_resource, n_weight in PARTITIONS:
        basis = sp.constant_overlap_basis(d, 0.5)
        proj = sp.block_projectors(basis, sp.BlockPartition(blocks))
        shape = "+".join(str(len(b)) for b in blocks)
        singletons = all(len(b) == 1 for b in blocks)
        states = []
        for k in range(n_resource):
            rho = sp.random_density(d, d, next(seeds))
            states.append((f"resource#{k}", rho, len(blocks) == 1, k < n_weight))
            if len(blocks) > 1:
                states.append((f"dephased#{k}", sp.block_dephase(rho, proj), True, True))
        for kind, rho, free, weight in states:
            measures = [("m_robustness_generalized", sp.m_robustness)]
            if weight:
                measures.insert(0, ("m_weight_generalized", sp.m_weight))
            for fn, plain in measures:
                items.append(Item(
                    f"{fn} d={d} {shape} {kind}",
                    lambda fn=fn, rho=rho, proj=proj: getattr(sp, fn)(rho, proj),
                    _block_check(rho, basis, singletons, free, plain)))
    return items


def build(workload: str, seed: int, workdir: Path) -> list:
    """The workload's fixed batch of items for this seed, in a seeded order.

    The machine's speed drifts over tens of seconds.  Shuffling spreads each
    kind of item over the whole batch, so the median and tail latencies do
    not all come from the few seconds in which one kind would run.
    """
    items = {"roof_search": roof_search, "cli_campaign": cli_campaign,
             "block_barrier": block_barrier}[workload](seed, workdir)
    order = np.random.default_rng(seed).permutation(len(items))
    return [items[i] for i in order]
