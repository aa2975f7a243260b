"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import superposition as sp  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# cheap items that still cross every traced boundary: cli -> harness ->
# channels/qstate (through harness.MEASURES), cli -> measures -> solvers,
# generalized -> solvers, measures -> qstate -> kernel
CHEAP = {
    "roof_search": ("m_l1_roof cap=r d=2 full#0",),
    "cli_campaign": ("axioms l1 d=2 mu=0.5", "measure weight d=4 #0",
                     "measure rel_ent d=4 #0", "measure robustness d=4 #0"),
    "block_barrier": ("m_robustness_generalized d=2 1+1 resource#0",
                      "m_weight_generalized d=3 1+2 dephased#0"),
}


def cheap_items(workdir, seed=1):
    items = []
    for workload, names in CHEAP.items():
        by_name = {item.name: item for item in workloads.build(workload, seed, workdir)}
        items += [by_name[name] for name in names]
    return items


def bindings():
    """Every attribute of the package's modules and numpy.linalg, by identity."""
    holders = tracing._package_modules() + [np.linalg]
    found = {(h.__name__, attr): id(v) for h in holders for attr, v in vars(h).items()}
    for name, cfg in sp.harness.MEASURES.items():
        found[("MEASURES", name)] = id(cfg.free_sampler)
    return found


def traced_run(items):
    tracer = tracing.Tracer()
    plain, traced = run.run_paired(items, tracer)
    return tracer, plain, traced


def test_traced_values_match_untraced_and_wrappers_are_restored(tmp_path):
    items = cheap_items(tmp_path)
    before = bindings()
    tracer, plain, traced = traced_run(items)
    untraced = run.check_batch(items, plain)
    traced = run.check_batch(items, traced, reference=untraced)

    assert all(oc.ok for oc in untraced), [oc.detail for oc in untraced]
    assert all(oc.ok for oc in traced), [oc.detail for oc in traced]
    assert [oc.value for oc in traced] == [oc.value for oc in untraced]
    assert bindings() == before
    assert sp.measures.max_weight_diagonal is sp.solvers.max_weight_diagonal
    assert sp.generalized.barrier_descent is sp.solvers.barrier_descent
    assert not hasattr(np.linalg.eigh, "bench_traced")

    stats = tracer.layer_stats()
    for key in ("cli.main", "harness.run_axiom_campaign", "channels.apply",
                "qstate.random_free", "measures.m_weight", "solvers.max_weight_diagonal",
                "generalized.m_robustness_generalized", "solvers.barrier_descent",
                "measures.m_l1_roof", "basis.build_basis", "kernel.eigh", "kernel.inv"):
        assert stats[key]["calls"] > 0, key
    assert set(tracer.item_of) == set(range(len(items)))


def test_counts_repeat_exactly_at_one_seed(tmp_path):
    def counts():
        tracer, _, _ = traced_run(cheap_items(tmp_path))
        stats = tracer.layer_stats()
        return ({k: s["calls"] for k, s in stats.items() if k.startswith("kernel.")},
                {k: s["evals"] for k, s in stats.items()})

    first = counts()
    assert first == counts()
    assert sum(first[0].values()) > 0 and sum(first[1].values()) > 0


def test_seed_determines_the_inputs(tmp_path):
    def inputs(seed):
        workdir = tmp_path / str(seed)
        items = cheap_items(workdir, seed)
        _, results, _ = run.run_batch(items)
        files = {p.name: p.read_text() for p in sorted(workdir.iterdir())}
        return files, [oc.value for oc in run.check_batch(items, results)]

    files1, values1 = inputs(1)
    files1_again, values1_again = inputs(1)
    files2, values2 = inputs(2)
    assert files1 == files1_again and values1 == values1_again
    assert files1.keys() == files2.keys()
    assert all(files1[name] != files2[name] for name in files1)
    assert sum(a != b for a, b in zip(values1, values2)) >= len(values1) - 1


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert spec["paths"] == ["bench"]


def test_tail_has_ten_samples_beyond_it():
    value, pct = run.tail(list(range(40)))
    assert value == 29 and pct == 75.0
    assert sum(x > value for x in range(40)) == 10
