#!/usr/bin/env python3
"""Run the full axiom campaign grid (the measures of the acceptance suite
at d = 2, 3 with mu = 0.5) and print one report table.

Usage: axiom_campaigns.py [--trials 200] [--seed 1]
"""

import argparse
import sys
import time

from superposition import constant_overlap_basis, run_axiom_campaign
from superposition.harness import report_table

MEASURES = ("l1", "rel_ent", "robustness", "weight", "delta", "l1_roof")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    bad = False
    for d in (2, 3):
        basis = constant_overlap_basis(d, 0.5)
        for measure in MEASURES:
            t0 = time.time()
            reports = run_axiom_campaign(measure, basis, trials=args.trials,
                                         seed=args.seed)
            print(f"# {measure} d={d} mu=0.5 ({time.time() - t0:.1f}s)", file=sys.stderr)
            print(report_table(reports))
            bad = bad or any(not r.passed for r in reports)
    return 3 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
