#!/usr/bin/env python3
"""Check that this checkout gives the same outputs as a parent checkout.

Usage: same_outputs.py PARENT_ROOT

PARENT_ROOT is a checkout of the parent commit, for example one made with
`git worktree add /tmp/parent HEAD~1`.  For each root the script runs the
CLI commands of cli_commands (gram, every CLI measure on a constant-overlap
and a random complex basis, example1, and the axiom campaign of every
measure at d = 2, 3) with PYTHONPATH=<root>/src and one BLAS thread, and
compares exit code and stdout byte for byte.  It also compares
(repr(value), iterations, converged) and the certificate (each member's
probability and vector, by repr) of every roof_search item of
<root>/bench/workloads.py at seeds 7, 301 and 901.  Each seed's items run
twice in one process, so that a result that depends on what an earlier call
left behind (a stale or mutated cached start) shows up as a mismatch.  The
two roots run side by side.  Each mismatch is printed; the exit code is 1
if there is any, else 0.
"""

import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from superposition import build_basis, random_density  # noqa: E402
from superposition.harness import MEASURES  # noqa: E402

ROOF_SEEDS = (7, 301, 901)

# Run in a child process with <root>/src and <root>/bench on sys.path: one
# line per roof_search item and pass, MeasureResult items as (value,
# iterations, converged, [(probability, vector)] of the certificate) and the
# example1 item as (exit code, stdout).
ROOF_DUMP = """
import sys, tempfile
from pathlib import Path
import workloads
for seed in map(int, sys.argv[1:]):
    for run in (1, 2):
        with tempfile.TemporaryDirectory() as tmp:
            for item in workloads.roof_search(seed, Path(tmp)):
                out = item.call()
                if isinstance(out, workloads.CliRun):
                    fields = (out.code, out.out)
                else:
                    members = [(p, phi.vector.tolist()) for p, phi in out.certificate.members]
                    fields = (repr(out.value), out.iterations, out.converged, members)
                print(repr((seed, run, item.name) + fields))
"""


def _env(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_cli(root: Path, argv) -> tuple:
    """(exit code, stdout) of the CLI of root on argv."""
    proc = subprocess.run([sys.executable, "-m", "superposition.cli", *argv],
                          capture_output=True, text=True, env=_env(root))
    return proc.returncode, proc.stdout


def _both(fn, parent: Path, child: Path, *args) -> list:
    """[fn(parent, *args), fn(child, *args)], the two run side by side."""
    with ThreadPoolExecutor(2) as pool:
        return list(pool.map(lambda root: fn(root, *args), (parent, child)))


def compare(parent: Path, child: Path, commands) -> list:
    """One line per command whose exit code or stdout differs."""
    mismatches = []
    for argv in commands:
        (code_a, out_a), (code_b, out_b) = _both(run_cli, parent, child, argv)
        if code_a != code_b or out_a != out_b:
            what = "stdout differs" if code_a == code_b else f"exit {code_a} vs {code_b}"
            mismatches.append(f"{' '.join(argv)}: {what}")
    return mismatches


def roof_outputs(root: Path) -> list:
    proc = subprocess.run([sys.executable, "-c", ROOF_DUMP, *map(str, ROOF_SEEDS)],
                          capture_output=True, text=True, check=True,
                          cwd=root / "bench", env=_env(root))
    return proc.stdout.splitlines()


def compare_roofs(parent: Path, child: Path) -> list:
    a, b = _both(roof_outputs, parent, child)
    mismatches = [f"roof_search: {x} vs {y}" for x, y in zip(a, b) if x != y]
    if len(a) != len(b):
        mismatches.append(f"roof_search: {len(a)} vs {len(b)} items")
    return mismatches


def cli_commands(state: str, basis: str) -> list:
    names = sorted(set(MEASURES) - {"broken_l1"})
    bases = (["--constant", "3", "0.5"], ["--basis", basis])
    return ([["gram", *b] for b in bases]
            + [["measure", "--state", state, *b, "--measure", name, "--restarts", "2"]
               for b in bases for name in names]
            + [["example1", "--x-steps", "5"]]
            + [["axioms", "--measure", name, "--d", str(d), "--trials", "4", "--seed", "3"]
               for name in MEASURES for d in (2, 3)])


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        state, basis = Path(tmp) / "state.json", Path(tmp) / "basis.json"
        state.write_text(json.dumps(random_density(3, 3, 7).to_json()))
        rng = np.random.default_rng(11)
        V = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        basis.write_text(json.dumps(build_basis(V / np.linalg.norm(V, axis=0)).to_json()))
        commands = cli_commands(str(state), str(basis))
        mismatches = compare(parent, ROOT, commands) + compare_roofs(parent, ROOT)
    for line in mismatches:
        print(line)
    print(f"{len(commands)} commands and the roof_search items at seeds "
          f"{', '.join(map(str, ROOF_SEEDS))}: {len(mismatches)} mismatches", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
