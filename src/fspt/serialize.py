"""JSON encodings of the domain objects.

Complex matrices serialize as nested [re, im] pairs, row-major.  Exact
phases serialize as {"k", "N"}; floating phases as {"re", "im"}.  Files
are self-contained: cocycles and systems embed their group and twist.
"""

from __future__ import annotations

import numpy as np

from .cocycle import TwistedCocycle, validate_cocycle
from .errors import DimensionMismatch, InvalidMPS, InvalidSystem
from .fmps import FermionicMPS, OnSiteSymmetry, even_mps, odd_mps
from .group import FiniteGroup, Z2Hom, validate_group, validate_hom_z2
from .invariant import SPTIndex
from .phase import Phase
from .rep import ProjectiveRep, pair
from .system import GradedSystem, r0_system, r1_system, system_from_generators


def int_field(value, name: str, error=InvalidSystem, least: int | None = None) -> int:
    """A JSON integer (not a boolean), at least `least`; else `error` naming the field."""
    if type(value) is not int or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise error(f"{name} must be an integer{bound}, got {value!r}")
    return value


def int_list(data, name: str, rows: bool = False) -> list:
    """A JSON list of integers, or of such lists with rows=True; else InvalidSystem."""
    if not isinstance(data, list) or rows and not all(isinstance(row, list) for row in data):
        raise InvalidSystem(f"{name} must be a list of {'lists of ' * rows}integers")
    return [int_list(x, name) if rows else int_field(x, f"{name} entry") for x in data]


def round_sig(x: float, digits: int = 12) -> float:
    return float(f"{x:.{digits}g}")


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [
        [[round_sig(v.real), round_sig(v.imag)] for v in row] for row in m
    ]


def matrix_from_json(data) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
        if arr.ndim == 3 and arr.shape[-1] == 2:
            return arr[..., 0] + 1j * arr[..., 1]
    except (TypeError, ValueError):  # ragged rows or non-numbers
        pass
    raise InvalidSystem("matrix JSON must be nested [re, im] pairs")


def phase_to_json(p: Phase) -> dict:
    if p.is_exact:
        return {"k": p.k, "N": p.N}
    return {"re": round_sig(p.value.real), "im": round_sig(p.value.imag)}


def phase_from_json(data) -> Phase:
    if isinstance(data, dict) and "k" in data:
        return Phase.exact(int_field(data["k"], "k"), int_field(data["N"], "N", least=1))
    if isinstance(data, dict) and all(type(data.get(x)) in (int, float) for x in ("re", "im")):
        return Phase.from_complex(complex(data["re"], data["im"]))
    raise InvalidSystem(f"a phase must be {{k, N}} integers or {{re, im}} numbers, got {data!r}")


def group_to_json(g: FiniteGroup) -> dict:
    return {"n": g.n, "table": g.table.tolist()}


def group_from_json(data) -> FiniteGroup:
    return validate_group(int_list(data["table"], "group table", rows=True))


def hom_to_json(h: Z2Hom) -> dict:
    return {"values": h.values.tolist()}


def hom_from_json(group: FiniteGroup, data) -> Z2Hom:
    return validate_hom_z2(group, int_list(data["values"], "homomorphism values"))


def cocycle_to_json(u: TwistedCocycle) -> dict:
    phases = [[phase_to_json(u(g, h)) for h in u.group.elements()] for g in u.group.elements()]
    return {
        "group": group_to_json(u.group),
        "twist": hom_to_json(u.twist),
        "phases": phases,
    }


def cocycle_from_json(data) -> TwistedCocycle:
    group = group_from_json(data["group"])
    twist = hom_from_json(group, data["twist"])
    values = [
        [phase_from_json(cell) for cell in row] for row in data["phases"]
    ]
    return validate_cocycle(group, twist, values)


def rep_to_json(rep: ProjectiveRep) -> list:
    return [
        {"matrix": matrix_to_json(m), "flag": f} for (m, f) in rep.ops
    ]


def rep_from_json(group: FiniteGroup, twist: Z2Hom, data) -> ProjectiveRep:
    ops = []
    for g, entry in enumerate(data):
        m = matrix_from_json(entry["matrix"])
        flag = int_field(entry.get("flag", twist(g)), "flag")
        ops.append(pair(m, flag))
    return ProjectiveRep(group, twist, tuple(ops))


def system_to_json(sys: GradedSystem) -> dict:
    out = {
        "form": sys.form,
        "group": group_to_json(sys.group),
        "p": hom_to_json(sys.twist),
        "action": rep_to_json(sys.action),
    }
    if sys.form in ("R0", "R1"):
        out["K_dim"] = sys.algebra.ambient // 2
    else:
        out["gamma"] = matrix_to_json(sys.gamma)
        out["generators"] = [
            {"matrix": matrix_to_json(g)} for g in sys.algebra.generators
        ]
    return out


def system_from_json(data) -> GradedSystem:
    group = group_from_json(data["group"])
    twist = hom_from_json(group, data["p"])
    action = rep_from_json(group, twist, data["action"])
    form = data.get("form", "generators")
    if form in ("R0", "R1"):
        k_dim = int_field(data["K_dim"], "K_dim")
        return (r0_system if form == "R0" else r1_system)(action, k_dim)
    if form == "generators":
        gamma = matrix_from_json(data["gamma"])
        gens = []
        for entry in data["generators"]:
            m = matrix_from_json(entry["matrix"])
            if "degree" in entry:
                from .algebra import operator_degree

                if operator_degree(m, gamma) != int_field(entry["degree"], "degree"):
                    raise InvalidSystem(
                        "declared generator degree does not match the grading"
                    )
            gens.append(m)
        try:
            gens = np.stack(gens)
        except ValueError:
            raise InvalidSystem("generators must be a nonempty list of matrices of one shape")
        return system_from_generators(gens, gamma, action)
    raise InvalidSystem(f"unknown system form {form!r}")


def index_to_json(index: SPTIndex) -> dict:
    return {
        "kappa": index.kappa,
        "q": index.q.values.tolist(),
        "cocycle": cocycle_to_json(index.cls),
    }


def index_from_json(data) -> SPTIndex:
    cls = cocycle_from_json(data["cocycle"])
    q = validate_hom_z2(cls.group, data["q"])
    return SPTIndex(int_field(data["kappa"], "kappa"), q, cls)


def mps_to_json(mps: FermionicMPS) -> dict:
    out = {
        "kind": mps.kind,
        "d": mps.d,
        "m": mps.m,
        "v": {str(mask): matrix_to_json(mps.v[mask]) for mask in range(mps.nloc)},
        "D": matrix_to_json(mps.D),
    }
    if mps.kind == "even":
        out["Theta"] = matrix_to_json(mps.theta)
        out["sigma0"] = mps.sigma0
    else:
        out["sigma0"] = mps.sigma0
    return out


def mps_from_json(data) -> FermionicMPS:
    d = int_field(data["d"], "d", InvalidMPS, least=0)
    nloc = 1 << d
    try:
        v = np.stack([matrix_from_json(data["v"][str(mask)]) for mask in range(nloc)])
    except KeyError as missing:
        raise InvalidMPS(f"missing bond matrix for occupation {missing}")
    except ValueError:
        raise DimensionMismatch("bond matrices v must share one shape")
    dmat = matrix_from_json(data["D"]) if "D" in data else None
    if data["kind"] == "even":
        return even_mps(d, v, matrix_from_json(data["Theta"]), dmat)
    if data["kind"] == "odd":
        return odd_mps(d, v, int_field(data.get("sigma0", 0), "sigma0", InvalidMPS), dmat)
    raise InvalidMPS(f"unknown MPS kind {data['kind']!r}")


def symmetry_to_json(sym: OnSiteSymmetry) -> dict:
    return {
        "group": group_to_json(sym.group),
        "p": hom_to_json(sym.twist),
        "U": rep_to_json(sym.rep_site),
        "W": rep_to_json(sym.rep_bond),
    }


def symmetry_from_json(data) -> OnSiteSymmetry:
    if "q" in data:
        raise InvalidSystem('a symmetry has no "q" key: q is read off the state')
    group = group_from_json(data["group"])
    twist = hom_from_json(group, data["p"])
    rep_site = rep_from_json(group, twist, data["U"])
    return OnSiteSymmetry(rep_site, rep_from_json(group, twist, data["W"]))
