#!/usr/bin/env python3
"""Check that this checkout gives the same outputs as a parent checkout.

Usage: same_outputs.py PARENT_ROOT

PARENT_ROOT is a checkout of the parent commit, for example one made with
`git archive HEAD~1 | tar -x -C /tmp/parent`.  For each root the script
runs the CLI commands of cli_commands (gram, every CLI measure on a
constant-overlap and a random complex basis, example1, the axiom campaign of
every measure at d = 2, 3, the 18 axiom campaigns of
bench/workloads.cli_campaign at seed 1 (rel_ent, weight and robustness at
d = 2, 3 and three mu each), and the cli_campaign input `measure rel_ent
d=4 #2` of seed 4, on a random complex basis with cond(V) 4.6) and the
13 campaigns of tests/test_acceptance.py's acceptance 05 (l1, rel_ent,
robustness, weight, delta and l1_roof at d = 2, 3 and broken_l1 at d = 2;
seed 1, 200 trials) as `axioms` commands, with PYTHONPATH=<root>/src and
one BLAS thread, and compares exit code and stdout byte for byte, naming
the top-level keys that differ when both stdouts are JSON objects, and each
(axiom, field) pair that differs when both are JSON lists of axiom records.
Where a numeric "value" or record field differs, the mismatch line gives the
parent's, the child's and their signed difference, child minus parent.
It also compares every item of the roof_search and block_barrier workloads
of <root>/bench/workloads.py at seeds 7, 301 and 901: repr(value),
iterations, converged and the certificate as MeasureResult.to_json() writes
it (a roof's ensemble, a block measure's B or C), a differing value given
as above, and the exit code and stdout of a CLI item.  The block_barrier
items are the only check on m_weight_generalized and
m_robustness_generalized, which the CLI cannot reach.  Each seed's items
run twice in one process, so that a result that depends on what an earlier
call left behind (a stale or mutated cached start or LMI plan) shows up as
a mismatch.  The two roots run side by side.
Each mismatch is printed with the fields that differ; the exit code is 1 if
there is any, else 0.  The closing line counts the mismatches and names the
largest relative change |child - parent| / max(1, |parent|) over every
differing number they give, with its command or item, so that a change by
rounding alone reads as such in one line.
"""

import ast
import json
import os
import re
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

DUMP_SEEDS = (7, 301, 901)
DUMP_WORKLOADS = ("roof_search", "block_barrier")
# the axiom campaigns of acceptance 05 (tests/test_acceptance.py)
ACCEPTANCE_05 = [["axioms", "--measure", name, "--d", str(d), "--trials", "200", "--seed", "1"]
                 for name in ("l1", "rel_ent", "robustness", "weight", "delta", "l1_roof")
                 for d in (2, 3)] + [["axioms", "--measure", "broken_l1", "--d", "2",
                                      "--trials", "200", "--seed", "1"]]
# the fields of a workload dump line after (seed, pass, item name)
RESULT_FIELDS = ("value", "iterations", "converged", "certificate")
CLI_FIELDS = ("exit code", "stdout")

# Run in a child process with <root>/src and <root>/bench on sys.path, given
# a workload name and seeds: one line per item and pass, MeasureResult items
# as (repr(value), iterations, converged, the certificate's JSON) and CLI
# items as (exit code, stdout).
DUMP = """
import json, sys, tempfile
from pathlib import Path
import workloads
workload = getattr(workloads, sys.argv[1])
for seed in map(int, sys.argv[2:]):
    for run in (1, 2):
        with tempfile.TemporaryDirectory() as tmp:
            for item in workload(seed, Path(tmp)):
                out = item.call()
                if isinstance(out, workloads.CliRun):
                    fields = (out.code, out.out)
                else:
                    fields = (repr(out.value), out.iterations, out.converged,
                              json.dumps(out.to_json()["certificate"]))
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
            what = stdout_diff(out_a, out_b) if code_a == code_b else f"exit {code_a} vs {code_b}"
            mismatches.append(f"{' '.join(argv)}: {what}")
    return mismatches


def stdout_diff(out_a: str, out_b: str) -> str:
    """How two different stdouts differ: the top-level keys whose values
    differ when both are JSON objects, and each (axiom, field) pair that
    differs, with parent and child values, when both are JSON lists of axiom
    records."""
    try:
        a, b = json.loads(out_a), json.loads(out_b)
    except json.JSONDecodeError:
        return "stdout differs"
    if _is_records(a) and _is_records(b):
        return records_diff(a, b)
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return "stdout differs"
    keys = [k for k in dict.fromkeys([*a, *b]) if k not in a or k not in b or a[k] != b[k]]
    what = f"stdout differs in {', '.join(map(repr, keys)) or 'formatting'}"
    if "value" in keys and all(_is_number(x.get("value")) for x in (a, b)):
        what += "; " + value_diff(a["value"], b["value"])
    return what


def _is_records(x) -> bool:
    return isinstance(x, list) and all(isinstance(r, dict) and "axiom" in r for r in x)


def records_diff(a: list, b: list) -> str:
    """The (axiom, field) pairs in which two lists of axiom records differ,
    each as field_diff gives it."""
    axioms_a, axioms_b = ([r["axiom"] for r in x] for x in (a, b))
    if axioms_a != axioms_b:
        return f"stdout differs in axioms {axioms_a} vs {axioms_b}"
    pairs = [f"{r['axiom']} {field_diff(k, r.get(k), t.get(k))}"
             for r, t in zip(a, b) for k in dict.fromkeys([*r, *t]) if r.get(k) != t.get(k)]
    return f"stdout differs in {'; '.join(pairs) or 'formatting'}"


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def value_diff(parent: float, child: float, name: str = "value") -> str:
    """A differing number as parent, child and child - parent."""
    return f"{name} {parent!r} -> {child!r} ({child - parent:+.3e})"


# value_diff's "parent -> child (+difference)", as largest_change reads it back
_CHANGE = re.compile(r"(\S+) -> (\S+) \([+-]")


def largest_change(mismatches) -> str:
    """The largest relative change |child - parent| / max(1, |parent|) over
    the differing numbers of the mismatch lines (value_diff's), with the
    command or item of its line; "" if no line gives one."""
    found = [(abs(float(b) - float(a)) / max(1.0, abs(float(a))), line.split(": ", 1)[0])
             for line in mismatches for a, b in _CHANGE.findall(line)]
    if not found:
        return ""
    change, where = max(found)
    return f"; largest relative change {change:.3e} in {where}"


def field_diff(name: str, parent, child) -> str:
    """A differing field as parent and child, and child - parent if both are
    numbers."""
    if _is_number(parent) and _is_number(child):
        return value_diff(parent, child, name)
    return f"{name} {json.dumps(parent)} -> {json.dumps(child)}"


def dump_outputs(root: Path, workload: str) -> list:
    proc = subprocess.run([sys.executable, "-c", DUMP, workload, *map(str, DUMP_SEEDS)],
                          capture_output=True, text=True, check=True,
                          cwd=root / "bench", env=_env(root))
    return proc.stdout.splitlines()


def roof_diff(x: str, y: str, workload: str = "roof_search") -> str:
    """The item of two different dump lines of workload and the fields that
    differ."""
    a, b = ast.literal_eval(x), ast.literal_eval(y)
    if a[:3] != b[:3]:
        return f"{workload}: item {a[:3]} vs {b[:3]}"
    names = RESULT_FIELDS if len(a) == 3 + len(RESULT_FIELDS) else CLI_FIELDS
    differ = [name for name, u, v in zip(names, a[3:], b[3:]) if u != v]
    what = f"{workload} {a[:3]}: differs in " + ", ".join(differ)
    if names is RESULT_FIELDS and "value" in differ:
        what += "; " + value_diff(float(a[3]), float(b[3]))
    return what


def compare_dumps(parent: Path, child: Path, workload: str) -> list:
    a, b = _both(dump_outputs, parent, child, workload)
    mismatches = [roof_diff(x, y, workload) for x, y in zip(a, b) if x != y]
    if len(a) != len(b):
        mismatches.append(f"{workload}: {len(a)} vs {len(b)} items")
    return mismatches


def _random_basis(d: int, seed: int):
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return build_basis(V / np.linalg.norm(V, axis=0))


def write_inputs(tmp: Path) -> dict:
    """JSON files of the CLI inputs: a state and a basis at d = 3, and the
    state and rel_ent basis of bench/workloads.cli_campaign(4, ...)'s item
    `measure rel_ent d=4 #2`, built from the same seeds."""
    seeds = [int(s) for s in np.random.SeedSequence(4).generate_state(256)]
    inputs = {"state": random_density(3, 3, 7), "basis": _random_basis(3, 11),
              "state4": random_density(4, 4, seeds[10]), "basis4": _random_basis(4, seeds[12])}
    for name, obj in inputs.items():
        (tmp / f"{name}.json").write_text(json.dumps(obj.to_json()))
    return {name: str(tmp / f"{name}.json") for name in inputs}


def cli_commands(state: str, basis: str, state4: str, basis4: str) -> list:
    names = sorted(set(MEASURES) - {"broken_l1"})
    bases = (["--constant", "3", "0.5"], ["--basis", basis])
    return ([["gram", *b] for b in bases]
            + [["measure", "--state", state, *b, "--measure", name, "--restarts", "2"]
               for b in bases for name in names]
            + [["example1", "--x-steps", "5"]]
            + [["axioms", "--measure", name, "--d", str(d), "--trials", "4", "--seed", "3"]
               for name in MEASURES for d in (2, 3)]
            + [["axioms", "--measure", name, "--d", str(d), "--mu", f"{mu:.6g}",
                "--trials", "20", "--seed", "1"]
               for name in ("rel_ent", "weight", "robustness") for d in (2, 3)
               for mu in (1.0 / (1 - d) + 1e-3, 0.5, 1.0 - 1e-3)]
            + [["measure", "--state", state4, "--basis", basis4, "--measure", "rel_ent"]]
            + ACCEPTANCE_05)


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        commands = cli_commands(**write_inputs(Path(tmp)))
        mismatches = compare(parent, ROOT, commands)
    for workload in DUMP_WORKLOADS:
        mismatches += compare_dumps(parent, ROOT, workload)
    for line in mismatches:
        print(line)
    print(f"{len(commands)} commands and the {' and '.join(DUMP_WORKLOADS)} items at seeds "
          f"{', '.join(map(str, DUMP_SEEDS))}: {len(mismatches)} mismatches"
          + largest_change(mismatches), file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
