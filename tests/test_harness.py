import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from superposition import (
    coefficients_of,
    constant_overlap_basis,
    random_density,
    random_free,
    rho_x,
    run_axiom_campaign,
    run_oracle_campaign,
)
from superposition.errors import (
    ParameterOutOfRange,
    UnknownChannelFamily,
    UnknownMeasure,
    UnknownOracle,
)
from superposition import harness
from superposition.harness import MEASURES, oracle_weight_grid, report_json, report_table

BASIS2 = constant_overlap_basis(2, 0.5)


def test_registry_contents():
    for name in ("l1", "rel_ent", "rank", "robustness", "weight",
                 "l1_roof", "rel_ent_roof", "delta", "broken_l1"):
        assert name in MEASURES
    assert MEASURES["l1"].tolerance == 1e-6
    assert MEASURES["weight"].tolerance == 1e-3
    assert MEASURES["delta"].channel_family == "real_dual"


def test_campaign_evaluates_in_one_round_or_two_for_roofs(monkeypatch):
    # every trial of a non-roof campaign yields its states once, so all go
    # through one _evaluate_many call; S4 on a roof evaluates its mixture
    # in a second round, from its components' ensembles
    calls = []
    evaluate_many = harness._evaluate_many

    def counting(cfg, states, *args):
        calls.append(len(states))
        return evaluate_many(cfg, states, *args)

    monkeypatch.setattr(harness, "_evaluate_many", counting)
    for measure, rounds in (("l1", 1), ("weight", 1), ("rel_ent", 1), ("l1_roof", 2)):
        calls.clear()
        run_axiom_campaign(measure, BASIS2, trials=3, seed=1)
        assert len(calls) == rounds, measure


def test_small_campaign_passes():
    reports = run_axiom_campaign("l1", BASIS2, trials=25, seed=3)
    assert [r.axiom for r in reports] == ["S1", "S2", "S3", "S4"]
    assert all(r.passed for r in reports)
    assert all(r.measure == "l1" for r in reports)


def test_delta_campaign_small():
    reports = run_axiom_campaign("delta", BASIS2, trials=15, seed=2)
    assert all(r.passed for r in reports)


def test_rank_campaigns_pass():
    for d in (2, 3):
        reports = run_axiom_campaign("rank", constant_overlap_basis(d, 0.5),
                                     trials=20, seed=1)
        assert [r.axiom for r in reports] == ["S1", "S2", "S3", "S4"]
        assert all(r.passed for r in reports)


def test_negative_control_fails_s1():
    reports = run_axiom_campaign("broken_l1", BASIS2, trials=20, seed=0)
    s1 = reports[0]
    assert s1.axiom == "S1"
    assert not s1.passed
    assert s1.max_slack > 0
    # every free-state trial is violated: the diagonal term is 0.1 there
    assert len(s1.violations) == 20


def test_campaign_deterministic():
    a = report_json(run_axiom_campaign("l1", BASIS2, trials=10, seed=5))
    b = report_json(run_axiom_campaign("l1", BASIS2, trials=10, seed=5))
    assert a == b
    c = report_json(run_axiom_campaign("l1", BASIS2, trials=10, seed=6))
    assert a != c


def test_unknown_measure_and_family():
    with pytest.raises(UnknownMeasure):
        run_axiom_campaign("nope", BASIS2, trials=1)
    with pytest.raises(UnknownChannelFamily):
        run_axiom_campaign("l1", BASIS2, channel_family="nope", trials=1)


def test_oracle_campaign_small():
    r = run_oracle_campaign("weight", "weight_grid", trials=8, seed=1)
    assert r.axiom == "ORACLE"
    assert r.passed
    r = run_oracle_campaign("l1_roof", "roof_grid", trials=4, seed=1)
    assert r.passed


def test_roof_grid_oracle_meets_the_closed_form_on_rho_x():
    # the example1 family: the l1 roof of rho(x) is 2|x| / (1 + 2 mu x)
    for x in (-0.4, -0.1, 0.2, 0.45):
        rho, basis = rho_x(x, 0.5)
        assert abs(harness.oracle_roof_grid(rho, basis) - 2 * abs(x) / (1 + x)) < 1e-4


def test_campaigns_reject_trials_below_one():
    for trials in (0, -3):
        with pytest.raises(ParameterOutOfRange):
            run_axiom_campaign("l1", BASIS2, trials=trials)
        with pytest.raises(ParameterOutOfRange):
            run_oracle_campaign("weight", "weight_grid", trials=trials)


def test_campaigns_reject_trial_counts_that_are_not_integers():
    for trials in (2.5, 3.0, "4"):
        with pytest.raises(ParameterOutOfRange, match="must be an integer at least 1"):
            run_axiom_campaign("l1", BASIS2, trials=trials)
        with pytest.raises(ParameterOutOfRange, match="must be an integer at least 1"):
            run_oracle_campaign("weight", "weight_grid", trials=trials)


def test_campaigns_reject_seeds_that_are_not_nonnegative_integers():
    for seed in (-1, 1.5, "3"):
        with pytest.raises(ParameterOutOfRange, match="seed must be an integer >= 0"):
            run_axiom_campaign("l1", BASIS2, trials=1, seed=seed)
        with pytest.raises(ParameterOutOfRange, match="seed must be an integer >= 0"):
            run_oracle_campaign("weight", "weight_grid", trials=1, seed=seed)


@pytest.mark.parametrize("measure, d", [("rel_ent", 2), ("weight", 3), ("robustness", 3),
                                        ("l1_roof", 2)])
def test_campaign_reports_do_not_depend_on_evaluating_states_together(monkeypatch, measure, d):
    basis = constant_overlap_basis(d, 0.5)

    def reports():
        out = run_axiom_campaign(measure, basis, trials=6, seed=2)
        oracle = next((o for o, (m, _) in harness.ORACLES.items() if m == measure), None)
        if oracle is not None:
            out.append(run_oracle_campaign(measure, oracle, trials=4, seed=2))
        return report_json(out)

    together = reports()

    def one_at_a_time(cfg, states, basis, extra_starts=None):
        extras = extra_starts or [()] * len(states)
        return [harness._evaluate(cfg, rho, basis, extra) for rho, extra in zip(states, extras)]

    monkeypatch.setattr(harness, "_evaluate_many", one_at_a_time)
    assert reports() == together


def _weight_grid_loop(rho, basis, steps=2001):
    """Node-by-node reference for oracle_weight_grid."""
    R = coefficients_of(rho, basis).entries
    r00 = float(R[0, 0].real)
    r11 = float(R[1, 1].real)
    c2 = float(np.abs(R[0, 1]) ** 2)
    best = 0.0
    for w0 in np.linspace(0.0, r00, steps):
        head = r00 - w0
        if head <= 0:
            if c2 > 1e-30:
                continue
            w1 = r11
        else:
            w1 = r11 - c2 / head
        if w1 < 0:
            continue
        best = max(best, w0 + min(w1, r11))
    return 1.0 - min(best, 1.0)


def test_oracle_weight_grid_matches_node_loop():
    for mu in (0.5, -0.998, 0.999):
        basis = constant_overlap_basis(2, mu)
        for s in range(3):
            for rho in (random_density(2, 1, s), random_density(2, 2, s),
                        random_free(basis, s)):
                assert oracle_weight_grid(rho, basis) == _weight_grid_loop(rho, basis)


def test_oracle_errors():
    with pytest.raises(UnknownOracle):
        run_oracle_campaign("weight", "nope", trials=1)
    with pytest.raises(UnknownOracle):
        run_oracle_campaign("l1", "weight_grid", trials=1)


def test_report_table_format():
    reports = run_axiom_campaign("l1", BASIS2, trials=5, seed=1)
    table = report_table(reports)
    assert "S1" in table and "pass" in table


def test_axiom_campaigns_script_runs():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, str(root / "scripts" / "axiom_campaigns.py"),
                           "--trials", "1"], capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()
    # 6 measures x d = 2, 3 x S1-S4
    assert len(rows) == 48
    assert all(row.split()[-1] == "pass" for row in rows)
