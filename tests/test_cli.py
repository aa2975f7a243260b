import dataclasses
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from superposition import (
    MeasureResult,
    RoofOptions,
    basis_from_json,
    density_from_json,
    m_delta,
    m_l1,
    m_l1_roof,
    m_rank,
    m_rel_ent,
    m_rel_ent_roof,
    m_robustness,
    m_weight,
    random_density,
    rho_x,
)
from superposition.cli import main
from superposition.harness import MEASURES


@pytest.fixture()
def files(tmp_path):
    rho, basis = rho_x(0.25, 0.5)
    state = tmp_path / "state.json"
    bas = tmp_path / "basis.json"
    state.write_text(json.dumps(rho.to_json()))
    bas.write_text(json.dumps(basis.to_json()))
    return str(state), str(bas)


def test_gram_constant(capsys):
    assert main(["gram", "--constant", "3", "0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["determinant"] - 0.5) < 1e-9
    assert payload["independent"] is True


def test_gram_identity_file(tmp_path, capsys):
    from superposition import build_basis

    bas = tmp_path / "basis.json"
    bas.write_text(json.dumps(build_basis(np.eye(2)).to_json()))
    assert main(["gram", "--basis", str(bas)]) == 0
    assert abs(json.loads(capsys.readouterr().out)["determinant"] - 1.0) < 1e-12


def test_gram_dependent_exits_2(capsys):
    assert main(["gram", "--constant", "3", "-0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in captured.err


def test_measure_l1(files, capsys):
    state, bas = files
    assert main(["measure", "--state", state, "--basis", bas,
                 "--measure", "l1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["value"] - 0.4) < 1e-9


def test_gram_and_measure_reject_non_integer_dimension(files, capsys):
    state, _ = files
    assert main(["gram", "--constant", "2.7", "0.5"]) == 2
    assert main(["measure", "--state", state, "--constant", "2.5", "0.5",
                 "--measure", "l1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "integer" in captured.err


@pytest.mark.parametrize("dimension, code", [(2, 0), (2.0, 0), (2.9, 2), ("2", 2), (True, 2)])
def test_gram_basis_file_needs_an_integral_dimension(tmp_path, capsys, dimension, code):
    bas = tmp_path / "basis.json"
    bas.write_text(json.dumps({"dimension": dimension, "vectors": [[1, 0], [0, 0], [0, 0], [1, 0]]}))
    assert main(["gram", "--basis", str(bas)]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == "" and "integer dimension" in captured.err
    else:
        assert json.loads(captured.out)["determinant"] == 1.0


def test_measure_dispatches_every_measure(files, capsys):
    state, bas = files
    with open(state) as fh:
        rho = density_from_json(json.load(fh))
    with open(bas) as fh:
        basis = basis_from_json(json.load(fh))
    opts = RoofOptions(restarts=1, seed=0)
    direct = {
        "l1": lambda: m_l1(rho, basis),
        "rel_ent": lambda: m_rel_ent(rho, basis),
        "rank": lambda: m_rank(rho, basis, opts),
        "robustness": lambda: m_robustness(rho, basis),
        "weight": lambda: m_weight(rho, basis),
        "l1_roof": lambda: m_l1_roof(rho, basis, opts),
        "rel_ent_roof": lambda: m_rel_ent_roof(rho, basis, opts),
        "delta": lambda: m_delta(rho, basis),
    }
    for name, call in direct.items():
        result = call()
        code = main(["measure", "--state", state, "--basis", bas, "--measure", name,
                     "--restarts", "1"])
        assert code == (0 if result.converged else 3), name
        assert capsys.readouterr().out.strip() == json.dumps(
            result.to_json(), sort_keys=True, indent=1), name
    with pytest.raises(SystemExit) as exc:
        main(["measure", "--state", state, "--basis", bas, "--measure", "broken_l1"])
    assert exc.value.code == 2


def test_measure_deterministic(files, capsys):
    state, bas = files
    main(["measure", "--state", state, "--basis", bas, "--measure", "l1_roof",
          "--seed", "1", "--restarts", "4"])
    first = capsys.readouterr().out
    main(["measure", "--state", state, "--basis", bas, "--measure", "l1_roof",
          "--seed", "1", "--restarts", "4"])
    assert capsys.readouterr().out == first


def test_measure_rank_converges_with_cli_defaults(tmp_path, capsys):
    # cap r^2 and 16 restarts at d = 4: the rank cost has a zero gradient,
    # so every search stops at its start, and the roof ends converged at the
    # 2-bit value
    state = tmp_path / "state.json"
    state.write_text(json.dumps(random_density(4, 4, 501).to_json()))
    assert main(["measure", "--state", str(state), "--constant", "4", "0.5",
                 "--measure", "rank"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True
    assert abs(payload["value"] - 2.0) <= 1e-12
    assert payload["iterations"] <= 2000


def test_measure_missing_file(capsys):
    assert main(["measure", "--state", "/nonexistent.json",
                 "--constant", "2", "0.5", "--measure", "l1"]) == 2


def test_measure_rejects_entries_that_are_not_finite_exit_2(tmp_path, capsys):
    # json reads NaN and Infinity, so the input checks must reject them
    # before any measure runs
    nan = float("nan")
    state = tmp_path / "state.json"
    state.write_text(json.dumps([[[0.5, 0], [nan, 0]], [[nan, 0], [0.5, 0]]]))
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps({"dimension": 2, "vectors": [[1, 0], [0, 0], [0, 0],
                                                             [float("inf"), 0]]}))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(rho_x(0.25, 0.5)[0].to_json()))
    for name in sorted(set(MEASURES) - {"broken_l1"}):
        for argv in (["--state", str(state), "--constant", "2", "0.5"],
                     ["--state", str(good), "--basis", str(basis)]):
            assert main(["measure", *argv, "--measure", name]) == 2, (name, argv)
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: "), (name, argv)


@pytest.mark.parametrize("argv, content", [
    (["measure", "--state", "{}", "--constant", "2", "0.5", "--measure", "l1"], {"a": 1}),
    (["measure", "--state", "{}", "--constant", "2", "0.5", "--measure", "l1"], None),
    (["gram", "--basis", "{}"], [1, 2]),
    (["gram", "--basis", "{}"], {"dimension": None, "vectors": []}),
])
def test_malformed_json_exits_2(tmp_path, capsys, argv, content):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    assert main([arg.format(path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_example1_sweep(capsys):
    assert main(["example1", "--mu", "0.5", "--x-steps", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "mu,x,closed_form,roof_value,gamma_value,gap"
    assert len(lines) == 6
    row = dict(zip(lines[0].split(","), lines[3].split(",")))
    assert float(row["x"]) == 0.0
    assert float(row["gap"]) < 1e-9


def test_counts_below_one_exit_2(capsys):
    for argv in (["axioms", "--measure", "l1", "--trials", "0"],
                 ["axioms", "--measure", "l1", "--trials", "-3"],
                 ["example1", "--x-steps", "0"],
                 ["example1", "--x-steps", "-1"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert "at least 1" in captured.err, argv


def test_axioms_reject_negative_seed_exit_2(capsys):
    # both the axiom campaign and, at d = 2, the oracle campaign check it
    assert main(["axioms", "--measure", "l1", "--seed", "-1", "--trials", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be an integer >= 0, got -1\n"


def test_example1_rejects_mu_before_printing(capsys):
    assert main(["example1", "--mu", "0.5", "1.0", "--x-steps", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "mu=1.0 outside (-1, 1)" in captured.err


def test_axioms_below_dimension_two_exit_2(capsys):
    assert main(["axioms", "--measure", "l1", "--d", "1", "--trials", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at least 2" in captured.err


def test_axioms_appends_oracle_report_at_d2_only(capsys):
    for d, axioms in ((2, ["S1", "S2", "S3", "S4", "ORACLE"]), (3, ["S1", "S2", "S3", "S4"])):
        assert main(["axioms", "--measure", "weight", "--d", str(d), "--trials", "2"]) == 0
        assert [r["axiom"] for r in json.loads(capsys.readouterr().out)] == axioms


def test_measure_not_converged_exit_3(files, capsys, monkeypatch):
    state, bas = files
    stalled = dataclasses.replace(
        MEASURES["l1"], fn=lambda rho, basis: MeasureResult(value=0.5, converged=False))
    monkeypatch.setitem(MEASURES, "l1", stalled)
    assert main(["measure", "--state", state, "--basis", bas, "--measure", "l1"]) == 3
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["converged"] is False
    assert payload["value"] == 0.5
    assert "did not converge" in captured.err


def test_solver_linalg_error_exits_3(files, capsys, monkeypatch):
    # LinAlgError is a ValueError, yet a numerical failure, not an input error
    state, bas = files

    def failing(rho, basis):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setitem(MEASURES, "l1", dataclasses.replace(MEASURES["l1"], fn=failing))
    assert main(["measure", "--state", state, "--basis", bas, "--measure", "l1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: SVD did not converge" in captured.err


def test_roof_restarts_below_one_exit_2(files, capsys):
    state, bas = files
    for argv in (["measure", "--state", state, "--basis", bas, "--measure", "l1_roof",
                  "--restarts", "-5"],
                 ["measure", "--state", state, "--basis", bas, "--measure", "rank",
                  "--restarts", "0"],
                 ["example1", "--restarts", "-3"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert "at least 1" in captured.err, argv


def test_axioms_pass_and_fail(capsys):
    assert main(["axioms", "--measure", "l1", "--d", "2", "--mu", "0.5",
                 "--trials", "10", "--seed", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {r["axiom"] for r in payload} >= {"S1", "S2", "S3", "S4"}
    assert main(["axioms", "--measure", "broken_l1", "--d", "2",
                 "--trials", "5"]) == 3
    capsys.readouterr()
    assert main(["axioms", "--measure", "nope"]) == 2
    assert "unknown measure 'nope'" in capsys.readouterr().err


def _same_outputs_script():
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("same_outputs",
                                                  root / "scripts" / "same_outputs.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_same_outputs_script_compares_checkouts(tmp_path):
    root, script = Path(__file__).resolve().parents[1], _same_outputs_script()
    commands = [["gram", "--constant", "2", "0.5"], ["example1", "--x-steps", "2"]]
    assert script.compare(root, root, commands) == []
    # a root whose CLI prints something else differs on every command
    fake = tmp_path / "src" / "superposition"
    fake.mkdir(parents=True)
    (fake / "__init__.py").write_text("")
    (fake / "cli.py").write_text("print('other')\n")
    assert script.compare(tmp_path, root, commands) == [
        f"{' '.join(argv)}: stdout differs" for argv in commands]


def test_same_outputs_script_names_the_fields_that_differ():
    script = _same_outputs_script()
    # roof dump lines: (seed, pass, item, value, iterations, converged, members)
    line = (7, 1, "m_rank d=3 full#0", "1.5", 16, True, [(1.0, [(1 + 0j), -0.5j])])
    fewer = line[:4] + (8,) + line[5:]
    other = line[:5] + (False, [(1.0, [(1 + 0j), 0.5j])])
    assert script.roof_diff(repr(line), repr(fewer)) == (
        "roof_search (7, 1, 'm_rank d=3 full#0'): differs in iterations")
    assert script.roof_diff(repr(line), repr(other)) == (
        "roof_search (7, 1, 'm_rank d=3 full#0'): differs in converged, certificate")
    higher = line[:3] + ("1.75",) + line[4:]
    assert script.roof_diff(repr(line), repr(higher)) == (
        "roof_search (7, 1, 'm_rank d=3 full#0'): differs in value; value 1.5 -> 1.75 (+2.500e-01)")
    cli = (7, 1, "example1 mu=0.5", 0, "a\n")
    assert script.roof_diff(repr(cli), repr(cli[:4] + ("b\n",))) == (
        "roof_search (7, 1, 'example1 mu=0.5'): differs in stdout")
    # CLI stdouts: the top-level keys of two JSON objects, else no detail
    a = json.dumps({"value": 1.0, "iterations": 16, "converged": True}, indent=1)
    b = json.dumps({"value": 1.0, "iterations": 8, "converged": True})
    assert script.stdout_diff(a, b) == "stdout differs in 'iterations'"
    assert script.stdout_diff(a, json.dumps({"value": 1.0})) == (
        "stdout differs in 'iterations', 'converged'")
    assert script.stdout_diff(a, json.dumps({"value": 0.5, "iterations": 16, "converged": True})) == (
        "stdout differs in 'value'; value 1.0 -> 0.5 (-5.000e-01)")
    assert script.stdout_diff(a, "other\n") == "stdout differs"
    # axiom campaign stdouts: each (axiom, field) pair that differs
    records = [{"axiom": "S1", "max_slack": -0.5, "trials": 4, "violations": []},
               {"axiom": "S2", "max_slack": -0.25, "trials": 4, "violations": []}]
    moved = [records[0], dict(records[1], max_slack=-0.125, violations=[{"trial": 3}])]
    assert script.stdout_diff(json.dumps(records, indent=1), json.dumps(records)) == (
        "stdout differs in formatting")
    assert script.stdout_diff(json.dumps(records), json.dumps(moved)) == (
        "stdout differs in S2 max_slack -0.25 -> -0.125 (+1.250e-01); "
        'S2 violations [] -> [{"trial": 3}]')
    assert script.stdout_diff(json.dumps(records), json.dumps(records[::-1])) == (
        "stdout differs in axioms ['S1', 'S2'] vs ['S2', 'S1']")
    assert script.stdout_diff("[1]", "[2]") == "stdout differs"
