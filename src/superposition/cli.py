"""Batch command-line front end.

Subcommands: gram, measure, example1, axioms.  Stdout carries the
machine-readable payload (JSON or CSV); diagnostics go to stderr.  Exit
codes: 0 success, 2 input error, 3 numerical failure or violation.
"""

import argparse
import json
import sys

import numpy as np

from .basis import basis_from_json, constant_overlap_basis, gram_determinant, matrix_to_json
from .errors import ParameterOutOfRange, SuperpositionError
from .harness import (
    MEASURES,
    ORACLES,
    report_json,
    run_axiom_campaign,
    run_oracle_campaign,
)
from .measures import RoofOptions, gamma_example1, m_l1_roof
from .qstate import density_from_json, rho_x

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _load_basis(args):
    if args.constant is not None:
        d, mu = args.constant
        if not d.is_integer():
            raise ParameterOutOfRange(f"dimension D must be an integer, got {d:g}")
        return constant_overlap_basis(int(d), mu)
    if args.basis is None:
        raise SuperpositionError("either --constant or --basis is required")
    return basis_from_json(_load_json(args.basis))


def cmd_gram(args) -> int:
    basis = _load_basis(args)
    det = gram_determinant(basis)
    payload = {
        "dimension": basis.dimension,
        "gram": matrix_to_json(basis.gram),
        "determinant": det,
        "xi": [float(x) for x in basis.xi],
        "independent": bool(det > 0),
    }
    print(json.dumps(payload, sort_keys=True, indent=1))
    return EXIT_OK


def cmd_measure(args) -> int:
    basis = _load_basis(args)
    rho = density_from_json(_load_json(args.state))
    cfg = MEASURES[args.measure]
    if cfg.roof:
        result = cfg.fn(rho, basis, RoofOptions(restarts=args.restarts, seed=args.seed))
    else:
        result = cfg.fn(rho, basis)
    print(json.dumps(result.to_json(), sort_keys=True, indent=1))
    if not result.converged:
        print(f"measure {args.measure} did not converge", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_example1(args) -> int:
    if args.x_steps < 1:
        raise ParameterOutOfRange(f"--x-steps must be at least 1, got {args.x_steps}")
    # every mu is checked before the header, so a rejected sweep prints nothing
    for mu in args.mu:
        if not -1.0 < mu < 1.0:
            raise ParameterOutOfRange(f"mu={mu} outside (-1, 1)")
    opts = RoofOptions(ensemble_size_cap=2, restarts=args.restarts, seed=args.seed)
    print("mu,x,closed_form,roof_value,gamma_value,gap")
    worst = 0.0
    for mu in args.mu:
        xs = np.linspace(-0.45, 0.45, args.x_steps)
        for x in xs:
            x = float(x)
            closed = 2.0 * abs(x) / (1.0 + 2.0 * mu * x)
            rho, basis = rho_x(x, mu)
            roof = m_l1_roof(rho, basis, opts).value
            _, gamma = gamma_example1(x, mu)
            gap = abs(roof - closed)
            worst = max(worst, gap)
            print(",".join(_fmt(v) for v in (mu, x, closed, roof, gamma.value, gap)))
    if worst > 1e-3:
        print(f"max roof/closed-form gap {worst:g} exceeds 1e-3", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_axioms(args) -> int:
    basis = constant_overlap_basis(args.d, args.mu)
    reports = run_axiom_campaign(args.measure, basis, trials=args.trials,
                                 seed=args.seed)
    oracle_id = next((oid for oid, (m, _) in ORACLES.items() if m == args.measure), None)
    if oracle_id is not None and args.d == 2:
        reports.append(run_oracle_campaign(args.measure, oracle_id,
                                           trials=min(args.trials, 50), seed=args.seed))
    print(report_json(reports))
    if any(not r.passed for r in reports):
        print("axiom violations found", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="superposition")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gram", help="Gram matrix, determinant and duals report")
    g.add_argument("--constant", nargs=2, type=float, metavar=("D", "MU"))
    g.add_argument("--basis", help="basis JSON file")
    g.set_defaults(fn=cmd_gram)

    m = sub.add_parser("measure", help="evaluate one measure on a state")
    m.add_argument("--state", required=True, help="density matrix JSON file")
    m.add_argument("--constant", nargs=2, type=float, metavar=("D", "MU"))
    m.add_argument("--basis", help="basis JSON file")
    # every measure but the campaigns' negative control
    m.add_argument("--measure", required=True, choices=sorted(set(MEASURES) - {"broken_l1"}))
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--restarts", type=int, default=16)
    m.set_defaults(fn=cmd_measure)

    e = sub.add_parser("example1", help="closed-form vs solver sweep (CSV)")
    e.add_argument("--mu", nargs="+", type=float, default=[0.5])
    e.add_argument("--x-steps", type=int, default=21)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--restarts", type=int, default=8)
    e.set_defaults(fn=cmd_example1)

    a = sub.add_parser("axioms", help="run the axiom campaign for one measure")
    a.add_argument("--measure", required=True)
    a.add_argument("--d", type=int, default=2)
    a.add_argument("--mu", type=float, default=0.5)
    a.add_argument("--trials", type=int, default=200)
    a.add_argument("--seed", type=int, default=0)
    a.set_defaults(fn=cmd_axioms)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except np.linalg.LinAlgError as exc:  # a ValueError, but a numerical failure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (SuperpositionError, FileNotFoundError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
