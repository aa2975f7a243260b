import json

import numpy as np
import pytest

from superposition import random_density, rho_x
from superposition.cli import main


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


def test_example1_sweep(capsys):
    assert main(["example1", "--mu", "0.5", "--x-steps", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "mu,x,closed_form,roof_value,gamma_value,gap"
    assert len(lines) == 6
    row = dict(zip(lines[0].split(","), lines[3].split(",")))
    assert float(row["x"]) == 0.0
    assert float(row["gap"]) < 1e-9


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
