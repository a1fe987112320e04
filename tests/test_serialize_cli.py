import json

import numpy as np
import pytest

from fspt import Phase, cyclic, klein, trivial_cocycle, validate_hom_z2
from fspt import serialize
from fspt.cli import run
from conftest import (
    I2,
    SY,
    even_mps_d2,
    even_d2_symmetry,
    majorana_mps,
    majorana_symmetry,
    tr_system,
)


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def capture(capsys):
    return capsys.readouterr().out


# -- round trips --

def test_matrix_round_trip():
    m = np.array([[1 + 2j, 0.25], [-1j, 3.0]])
    again = serialize.matrix_from_json(serialize.matrix_to_json(m))
    assert np.allclose(m, again, atol=1e-12)


def test_phase_round_trip():
    for p in (Phase.exact(3, 8), Phase.from_complex(np.exp(0.3j))):
        q = serialize.phase_from_json(serialize.phase_to_json(p))
        assert abs(p.value - q.value) < 1e-11


def test_group_and_cocycle_round_trip():
    from fspt import epsilon

    v4 = klein()
    q1 = validate_hom_z2(v4, [0, 0, 1, 1])
    q2 = validate_hom_z2(v4, [0, 1, 0, 1])
    u = epsilon(q1, q2)
    data = serialize.cocycle_to_json(u)
    again = serialize.cocycle_from_json(data)
    assert again.close_to(u)
    assert serialize.cocycle_to_json(again) == data


def test_system_round_trip_r_forms():
    sysm = tr_system(1, SY, 1)
    data = serialize.system_to_json(sysm)
    again = serialize.system_from_json(data)
    assert again.form == "R1"
    assert np.allclose(again.gamma, sysm.gamma)
    assert serialize.system_to_json(again) == data


def test_mps_round_trip():
    for mps in (majorana_mps(1), even_mps_d2()):
        data = serialize.mps_to_json(mps)
        again = serialize.mps_from_json(data)
        assert again.kind == mps.kind and again.m == mps.m
        assert np.allclose(again.v, mps.v)
        assert serialize.mps_to_json(again) == data


def test_index_round_trip():
    from fspt import compute_index

    idx = compute_index(tr_system(0, SY, 1))
    data = serialize.index_to_json(idx)
    again = serialize.index_from_json(data)
    assert again.kappa == idx.kappa
    assert again.q.same_as(idx.q)
    assert again.cls.close_to(idx.cls, 1e-9)


# -- CLI --

def test_group_check_ok(tmp_path, capsys):
    path = write(tmp_path, "g.json", {"n": 2, "table": [[0, 1], [1, 0]]})
    assert run(["group-check", "--in", path]) == 0
    out = json.loads(capture(capsys))
    assert out["ok"] and out["identity"] == 0


def test_group_check_domain_error(tmp_path, capsys):
    path = write(tmp_path, "g.json", {"n": 2, "table": [[0, 1], [1, 1]]})
    assert run(["group-check", "--in", path]) == 1
    out = json.loads(capture(capsys))
    assert out["error"] == "NoInverse"


def test_malformed_json_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(["group-check", "--in", str(path)]) == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_unknown_subcommand_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["index", "--in", "{system}", "--word", "[[1,0]]"],  # a flag index does not read
        ["cohomologous", "--in", "{u}", "--in2", "{u}", "--tol", "1e-8"],  # fixed thresholds
        ["group-check", "--in", "{group}", "--json"],  # JSON needs no flag
        ["fmps-index", "--in", "{both}"],  # the symmetry comes only from --in2
    ],
)
def test_cli_usage_errors_exit_2(argv, tmp_path):
    inputs = {
        "system": serialize.system_to_json(tr_system(0, SY, 1)),
        "u": serialize.cocycle_to_json(trivial_cocycle(cyclic(2))),
        "group": serialize.group_to_json(cyclic(2)),
        "both": {
            **serialize.mps_to_json(majorana_mps(1)),
            **serialize.symmetry_to_json(majorana_symmetry()),
        },
    }
    paths = {name: write(tmp_path, f"{name}.json", data) for name, data in inputs.items()}
    try:
        code = run([arg.format(**paths) for arg in argv])
    except SystemExit as exc:  # argparse rejects the flag
        code = exc.code
    assert code == 2


def _generators_form():
    data = serialize.system_to_json(tr_system(0, SY, 1))
    data.update(form="generators", gamma=serialize.matrix_to_json(np.diag([1.0, -1.0])))
    data["generators"] = [{"matrix": serialize.matrix_to_json(m)} for m in (I2, SY)]
    return data


def _mixed_shapes(data):
    data["generators"].append({"matrix": serialize.matrix_to_json(np.eye(3))})


def _ragged_generator(data):
    data["generators"][1]["matrix"][0].pop()


def _non_square_generator(data):
    data["generators"][1]["matrix"].pop()


def _no_generators(data):
    data["generators"] = []


def _non_integer_k_dim(data):
    data.update(form="R0", K_dim="one")


def _ragged_v(data):
    data["v"]["1"][0].pop()


def _v_shapes_differ(data):
    data["v"]["1"] = serialize.matrix_to_json(np.eye(3))


@pytest.mark.parametrize(
    "command, mutate, token",
    [
        ("index", _mixed_shapes, "InvalidSystem"),
        ("stack", _mixed_shapes, "InvalidSystem"),
        ("index", _no_generators, "InvalidSystem"),
        ("stack", _no_generators, "InvalidSystem"),
        ("index", _ragged_generator, "InvalidSystem"),
        ("index", _non_square_generator, "InvalidSystem"),
        ("index", _non_integer_k_dim, "InvalidSystem"),
        ("fmps-validate", _ragged_v, "InvalidSystem"),
        ("fmps-validate", _v_shapes_differ, "DimensionMismatch"),
    ],
)
def test_malformed_input_gives_an_error_token(command, mutate, token, tmp_path, capsys):
    """Malformed matrices, generator lists, K_dim and MPS bond matrices exit 1
    with a JSON error token, not a Python traceback."""
    is_mps = command == "fmps-validate"
    data = serialize.mps_to_json(even_mps_d2()) if is_mps else _generators_form()
    mutate(data)
    path = write(tmp_path, "bad.json", data)
    argv = [command, "--in", path] + (["--in2", path] if command == "stack" else [])
    assert run(argv) == 1
    assert json.loads(capture(capsys))["error"] == token


def test_cohomologous_cli_with_caveat(tmp_path, capsys):
    from fspt import epsilon, trivial_cocycle

    v4 = klein()
    q1 = validate_hom_z2(v4, [0, 0, 1, 1])
    q2 = validate_hom_z2(v4, [0, 1, 0, 1])
    p1 = write(tmp_path, "u1.json", serialize.cocycle_to_json(epsilon(q1, q2)))
    p2 = write(tmp_path, "u2.json", serialize.cocycle_to_json(trivial_cocycle(v4)))
    assert run(["cohomologous", "--in", p1, "--in2", p2, "--modulus", "8"]) == 0
    out = json.loads(capture(capsys))
    assert out["cohomologous"] is False
    assert "lattice" in out["caveat"]
    assert run(["cohomologous", "--in", p1, "--in", p1, "--in2", p1]) == 0
    out = json.loads(capture(capsys))
    assert out["cohomologous"] is True and "witness" in out
    # exact inputs at the default modulus: the verdict is final, no caveat
    assert run(["cohomologous", "--in", p1, "--in2", p2]) == 0
    out = json.loads(capture(capsys))
    assert out == {"cohomologous": False, "modulus": 8}


def test_index_cli_r1_trivial_group(tmp_path, capsys):
    g1 = cyclic(1)
    rep_data = [{"matrix": serialize.matrix_to_json(np.eye(2)), "flag": 0}]
    payload = {
        "form": "R1",
        "K_dim": 1,
        "group": {"n": 1, "table": [[0]]},
        "p": {"values": [0]},
        "action": rep_data,
    }
    path = write(tmp_path, "sys.json", payload)
    assert run(["index", "--in", path]) == 0
    out = json.loads(capture(capsys))
    assert out["kappa"] == 1 and out["q"] == [0]
    assert out["cocycle"]["phases"][0][0] == {"k": 0, "N": 1}


def test_stack_cli_consistency(tmp_path, capsys):
    sys1 = serialize.system_to_json(tr_system(1, I2, 1))
    p1 = write(tmp_path, "s1.json", sys1)
    assert run(["stack", "--in", p1, "--in2", p1]) == 0
    out = json.loads(capture(capsys))
    assert out["consistent"] is True
    assert out["stacked_index"]["kappa"] == 0


def test_z8_table_cli(capsys):
    assert run(["z8-table"]) == 0
    out = json.loads(capture(capsys))
    assert len(out["elements"]) == 8
    assert out["generator"] == "[1;0,+]"
    assert out["generator_powers"]["8"] == "[0;0,+]"
    table = np.array(out["table"])
    assert sorted(table[0]) == list(range(8))  # rows permute the elements
    # determinism: a second run is byte-identical
    assert run(["z8-table"]) == 0
    second = capture(capsys)
    assert json.loads(second) == out


def test_z8_table_plain(capsys):
    assert run(["z8-table", "--table"]) == 0
    text = capture(capsys)
    assert "[1;0,+]" in text and "table" not in text


def test_fmps_cli_round(tmp_path, capsys):
    mps_path = write(tmp_path, "mps.json", serialize.mps_to_json(majorana_mps(1)))
    assert run(["fmps-validate", "--in", mps_path]) == 0
    out = json.loads(capture(capsys))
    assert out["kind"] == "odd" and out["ok"]

    assert run(["fmps-expect", "--in", mps_path, "--word", "[[1,0],[0,1]]"]) == 0
    out = json.loads(capture(capsys))
    assert out["value"]["re"] == pytest.approx(-0.25)

    assert run(["fmps-rho", "--in", mps_path, "--l", "3"]) == 0
    out = json.loads(capture(capsys))
    assert out["dimension"] == 16
    assert out["checks"]["psd"] is True
    assert out["checks"]["trace"] == pytest.approx(1.0)

    sym_path = write(
        tmp_path, "sym.json", serialize.symmetry_to_json(majorana_symmetry())
    )
    assert run(["fmps-symmetry", "--in", mps_path, "--in2", sym_path]) == 0
    out = json.loads(capture(capsys))
    assert out["q"] == [0, 1]

    assert run(["fmps-index", "--in", mps_path, "--in2", sym_path]) == 0
    out = json.loads(capture(capsys))
    assert out["kappa"] == 1 and out["q"] == [0, 1]


def test_fmps_cli_even_index(tmp_path, capsys):
    mps_path = write(tmp_path, "mps.json", serialize.mps_to_json(even_mps_d2()))
    sym_path = write(
        tmp_path, "sym.json", serialize.symmetry_to_json(even_d2_symmetry())
    )
    assert run(["fmps-index", "--in", mps_path, "--in2", sym_path]) == 0
    out = json.loads(capture(capsys))
    assert out["kappa"] == 0 and out["q"] == [0, 1, 1, 0]


def test_cli_emits_exact_phases_for_exact_inputs(tmp_path, capsys):
    from fspt import epsilon

    z2 = cyclic(2)
    qid = validate_hom_z2(z2, [0, 1])
    path = write(tmp_path, "u.json", serialize.cocycle_to_json(epsilon(qid, qid)))
    assert run(["cocycle-check", "--in", path]) == 0
    out = json.loads(capture(capsys))
    assert out["exact"] is True
