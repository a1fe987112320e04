import copy
import json
import random

import numpy as np
import pytest

from fspt import Phase, cyclic, klein, trivial_cocycle, validate_hom_z2
from fspt import serialize
from fspt.cli import run
from fspt.errors import InvalidSystem
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


def test_json_nested_too_deep_is_malformed(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert run(["group-check", "--in", str(path)]) == 2
    assert capsys.readouterr().err == "malformed JSON at line 1 column 1: nesting too deep\n"


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_literals_are_malformed_json(literal, tmp_path, capsys):
    data = json.dumps(serialize.mps_to_json(majorana_mps(1)))
    path = tmp_path / "mps.json"
    path.write_text(data.replace("0.707106781187", literal, 1))
    assert run(["fmps-validate", "--in", str(path)]) == 2
    assert f"{literal} is not a JSON number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry",
    [None, float("nan"), float("inf"), True, "1", 2**1024],
    ids=["null", "nan", "inf", "true", "string", "beyond-float"],
)
def test_matrix_entries_must_be_finite_numbers(entry):
    with pytest.raises(InvalidSystem, match="^input must be a square matrix of finite"):
        serialize.matrix_from_json([[[1, 0], [entry, 0]], [[0, 0], [1, 0]]])


def test_error_detail_names_the_json_path(tmp_path, capsys):
    data = serialize.system_to_json(tr_system(0, SY, 1))
    data["action"][1]["matrix"][0][1] = [None, 0]
    del data["p"]
    for detail in ("p is missing", "action[1].matrix must be a square matrix"):
        assert run(["index", "--in", write(tmp_path, "s.json", data)]) == 1
        out = json.loads(capture(capsys))
        assert out["error"] == "InvalidSystem" and out["detail"].startswith(detail)
        data["p"] = {"values": [0, 1]}


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
        ["cohomologous", "--in", "{u}", "--in2", "{u}", "--modulus", "0"],  # a lattice order >= 1
        ["cohomologous", "--in", "{u}", "--in2", "{u}", "--modulus", "-3"],
        ["fmps-rho", "--in", "{both}", "--l", "-1"],  # a chain length >= 0
        ["fmps-rho", "--in", "{both}", "--l", "-5"],
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


def _d_not_an_integer(data):
    data["d"] = "two"


def _odd_sigma0_not_an_integer(data):
    data.update(serialize.mps_to_json(majorana_mps(1)), sigma0="one")


def _even_sigma0_not_an_integer(data):
    data["sigma0"] = None


def _even_sigma0_not_the_offset(data):
    data["sigma0"] = 1 - data["sigma0"]


def _huge_v_entry(data):
    data["v"]["0"][0][0] = [1e200, 0]


def _huge_action_entry(data):
    data["action"][1]["matrix"][0][1] = [1e200, 0]


def _huge_theta_entry(data):
    data["Theta"][0][0] = [1e200, 0]


def _huge_d_entry(data):
    data["D"][0][0] = [1e200, 0]


def _huge_gamma_entry(data):
    data["gamma"][0][0] = [1e200, 0]


def _flag_not_an_integer(data):
    data["U"][1]["flag"] = "yes"


def _action_flags_out_of_range(data):
    data.clear()
    data.update(serialize.system_to_json(tr_system(0, SY, 1)))
    data["action"][0]["flag"], data["action"][1]["flag"] = 2, -3  # 0 and 1 mod 2


def _u_flag_two(data):
    data["U"][1]["flag"] = 2


def _w_flag_minus_four(data):
    data["W"][0]["flag"] = -4


def _q_key(data):
    data["q"] = {"values": [0, 1]}


def _phase_k_not_an_integer(data):
    data["phases"][1][1] = {"k": "x", "N": 2}


def _phase_root_order_zero(data):
    data["phases"][1][1] = {"k": 1, "N": 0}


def _phase_re_not_a_number(data):
    data["phases"][1][1] = {"re": "a", "im": 0}


def _phases_of_plain_integers(data):
    data["phases"] = [[1, 1], [1, -1]]


# the group and twist readers are shared by cocycles and systems (twist key "p")
def _table_of_letters(data):
    data["group"]["table"] = [["a", "1"], ["1", "0"]]


def _table_of_numeric_strings(data):
    data["group"]["table"] = [["0", "1"], ["1", "0"]]


def _fractional_table(data):
    data["group"]["table"] = [[0, 1.5], [1, 0]]


def _group_size_mismatch(data):
    data["group"]["n"] = 3


def _no_table(data):
    del data["group"]["table"]


def _bond_size_mismatch(data):
    data["m"] = 3


def _no_kind(data):
    del data["kind"]


def _ragged_table(data):
    data["group"]["table"] = [[0, 1], [1]]


def _twist_of_letters(data):
    data["twist" if "twist" in data else "p"]["values"] = ["x", 0]


def _fractional_twist(data):
    data["twist" if "twist" in data else "p"]["values"] = [0.5, 0]


# command -> builders of its input files; the mutation edits the last one
_INPUTS = {
    "index": [_generators_form],
    "stack": [_generators_form],  # passed as both --in and --in2
    "fmps-validate": [lambda: serialize.mps_to_json(even_mps_d2())],
    "fmps-symmetry": [
        lambda: serialize.mps_to_json(majorana_mps(1)),
        lambda: serialize.symmetry_to_json(majorana_symmetry()),
    ],
    "cocycle-check": [lambda: serialize.cocycle_to_json(trivial_cocycle(cyclic(2)))],
    "fmps-expect": [lambda: serialize.mps_to_json(majorana_mps(1))],
}


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
        ("fmps-validate", _d_not_an_integer, "InvalidMPS"),
        ("fmps-validate", _odd_sigma0_not_an_integer, "InvalidMPS"),
        ("fmps-validate", _even_sigma0_not_an_integer, "InvalidMPS"),
        ("fmps-validate", _even_sigma0_not_the_offset, "InvalidMPS"),
        ("fmps-validate", _huge_v_entry, "InvalidMPS"),
        ("index", _huge_action_entry, "NotUnitary"),
        ("fmps-validate", _huge_theta_entry, "InvalidMPS"),
        ("fmps-validate", _huge_d_entry, "InvalidMPS"),
        ("index", _huge_gamma_entry, "InvalidSystem"),
        ("fmps-validate", _bond_size_mismatch, "DimensionMismatch"),
        ("fmps-validate", _no_kind, "InvalidMPS"),
        ("fmps-symmetry", _flag_not_an_integer, "InvalidSystem"),
        ("index", _action_flags_out_of_range, "InvalidSystem"),
        ("fmps-symmetry", _u_flag_two, "InvalidSystem"),
        ("fmps-symmetry", _w_flag_minus_four, "InvalidSystem"),
        ("fmps-symmetry", _q_key, "InvalidSystem"),
        ("cocycle-check", _phase_k_not_an_integer, "InvalidSystem"),
        ("cocycle-check", _phase_root_order_zero, "InvalidSystem"),
        ("cocycle-check", _phase_re_not_a_number, "InvalidSystem"),
        ("cocycle-check", _phases_of_plain_integers, "InvalidSystem"),
        *[
            (command, mutate, token)
            for command in ("cocycle-check", "index")
            for mutate, token in (
                (_table_of_letters, "InvalidSystem"),
                (_table_of_numeric_strings, "InvalidSystem"),
                (_fractional_table, "InvalidSystem"),
                (_ragged_table, "NoIdentity"),
                (_twist_of_letters, "InvalidSystem"),
                (_fractional_twist, "InvalidSystem"),
                (_group_size_mismatch, "InvalidSystem"),
                (_no_table, "InvalidSystem"),
            )
        ],
        # for fmps-expect the "mutation" is the --word; None means a usage error
        ("fmps-expect", '[["a",0]]', None),
        ("fmps-expect", "[[1]]", None),
        ("fmps-expect", "[[1,0,2]]", None),
        ("fmps-expect", "[[1,0]", None),
        ("fmps-expect", "[[99,0]]", "IndexOutOfRange"),
        ("fmps-expect", "[[-1,0]]", "IndexOutOfRange"),
    ],
)
def test_malformed_input_gives_an_error_token(command, mutate, token, tmp_path, capsys):
    """Malformed matrices, generator lists, integer fields, group tables, twists,
    phases and MPS bond matrices exit 1 with a JSON error token, and a malformed
    --word exits 2, never with a Python traceback or an overflow warning."""
    files = [build() for build in _INPUTS[command]]
    extra = ["--word", mutate] if command == "fmps-expect" else []
    if not extra:
        mutate(files[-1])
    paths = [write(tmp_path, f"in{i}.json", data) for i, data in enumerate(files)]
    argv = [command, "--in", paths[0]] + extra
    if command in ("stack", "fmps-symmetry"):
        argv += ["--in2", paths[-1]]
    try:
        code = run(argv)
    except SystemExit as exc:  # argparse rejects the flag value
        code = exc.code
    captured = capsys.readouterr()
    if token is None:
        assert code == 2 and "--word" in captured.err
    else:
        assert code == 1
        assert json.loads(captured.out)["error"] == token


@pytest.mark.parametrize(
    "build, key, g, flag",
    [
        (lambda: serialize.system_to_json(tr_system(0, SY, 1)), "action", 1, 3),
        (lambda: serialize.symmetry_to_json(majorana_symmetry()), "U", 1, 2),
        (lambda: serialize.symmetry_to_json(majorana_symmetry()), "W", 0, -4),
    ],
    ids=["action", "U", "W"],
)
def test_a_flag_other_than_0_or_1_names_its_path(build, key, g, flag):
    """A flag is 0 or 1: one equal to the twist mod 2 only is refused, at its path."""
    data = build()
    data[key][g]["flag"] = flag
    reader = serialize.system_from_json if key == "action" else serialize.symmetry_from_json
    with pytest.raises(InvalidSystem, match=rf"^{key}\[{g}\]\.flag must be 0 or 1, got {flag}$"):
        reader(data)


# one valid input per file-reading subcommand: (file builders, extra flags)
_FUZZ_INPUTS = {
    "group-check": ([lambda: serialize.group_to_json(klein())], []),
    "cocycle-check": (_INPUTS["cocycle-check"], []),
    "cohomologous": (
        [lambda: serialize.cocycle_to_json(_klein_epsilon())] + _INPUTS["cocycle-check"], []
    ),
    "index": ([_generators_form], []),
    "stack": ([_generators_form, lambda: serialize.system_to_json(tr_system(1, SY, 1))], []),
    "fmps-validate": (_INPUTS["fmps-validate"], []),
    "fmps-expect": (_INPUTS["fmps-expect"], ["--word", "[[1,0],[0,1]]"]),
    "fmps-rho": (_INPUTS["fmps-validate"], ["--l", "1"]),
    "fmps-symmetry": (_INPUTS["fmps-symmetry"], []),
    "fmps-index": (
        [
            lambda: serialize.mps_to_json(even_mps_d2()),
            lambda: serialize.symmetry_to_json(even_d2_symmetry()),
        ],
        [],
    ),
}

# the values written in place of each node; json.dumps writes NaN as the non-JSON literal
_WRONG_KINDS = [None, True, 0, -1, 1.5, "x", [], [1], [[1]], {}, {"a": 1}, float("nan")]


def _klein_epsilon():
    from fspt import epsilon

    v4 = klein()
    return epsilon(validate_hom_z2(v4, [0, 0, 1, 1]), validate_hom_z2(v4, [0, 1, 0, 1]))


def _json_paths(node, path=()):
    """The path of every node, the root included, through the first 3 entries of each list."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node[:3]) if isinstance(node, list) else ()
    for key, child in children:
        yield from _json_paths(child, path + (key,))


def _replaced(data, path, value):
    if not path:
        return value
    data = copy.deepcopy(data)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return data


def test_wrong_kind_fuzz_never_ends_in_a_traceback(tmp_path, capsys):
    """Each JSON node of a valid input, replaced by a value of each wrong kind: every
    file-reading subcommand exits 0 with JSON, or 1 with a JSON error token, and exits
    2 only on the NaN literal, which is malformed JSON.  At most 100 cases per
    subcommand, drawn with a fixed seed."""
    draw = random.Random(21)
    failures, count = [], 0
    for command, (builders, extra) in _FUZZ_INPUTS.items():
        files = [build() for build in builders]
        cases = [
            (i, path, value)
            for i, data in enumerate(files)
            for path in _json_paths(data)
            for value in _WRONG_KINDS
        ]
        for i, path, value in draw.sample(cases, min(100, len(cases))):
            mutated = list(files)
            mutated[i] = _replaced(files[i], path, value)
            paths = [write(tmp_path, f"in{j}.json", data) for j, data in enumerate(mutated)]
            argv = [command, "--in", paths[0]] + ["--in2", paths[-1]] * (len(paths) > 1) + extra
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback: the failure this test looks for
                code = exc
            out = capsys.readouterr().out
            if value != value:  # NaN
                ok = code == 2
            elif code == 0:
                ok = isinstance(json.loads(out), dict)
            else:
                ok = code == 1 and isinstance(json.loads(out).get("error"), str)
            count += 1
            if not ok:
                failures.append(f"{command} file {i} at {list(path)} <- {value!r}: {code!r}")
    assert 900 <= count <= 1000
    assert not failures, f"{len(failures)} of {count} cases:\n" + "\n".join(failures[:40])


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
