"""JSON encodings of the domain objects.

Complex matrices serialize as nested [re, im] pairs, row-major.  Exact
phases serialize as {"k", "N"}; floating phases as {"re", "im"}.  Files
are self-contained: cocycles and systems embed their group and twist.
Each reader reads through :class:`Field`, so bad input names its JSON path.
"""

from __future__ import annotations

from sys import float_info

import numpy as np

from .algebra import operator_degree
from .cocycle import TwistedCocycle, validate_cocycle
from .errors import DimensionMismatch, DomainError, InvalidMPS, InvalidSystem
from .fmps import FermionicMPS, OnSiteSymmetry, even_mps, odd_mps
from .group import FiniteGroup, Z2Hom, validate_group, validate_hom_z2
from .invariant import SPTIndex
from .phase import Phase
from .rep import ProjectiveRep, pair
from .system import GradedSystem, r0_system, r1_system, system_from_generators


def _finite(x) -> bool:
    """A JSON number a float holds: no boolean, NaN, infinity or too large an integer."""
    return type(x) in (int, float) and abs(x) <= float_info.max


class Field:
    """A JSON value and its path; each read checks one kind, else `error` names the path."""

    def __init__(self, value, path: str = "", error=InvalidSystem):
        if isinstance(value, Field):  # a Field of a larger file: its path, the reader's token
            value, path = value.value, value.path
        self.value, self.path, self.error = value, path, error

    def wrong(self, kind: str) -> DomainError:
        return self.error(f"{self.path or 'input'} must be {kind}, got {self.value!r:.80}")

    def __contains__(self, key: str) -> bool:
        if not isinstance(self.value, dict):
            raise self.wrong("an object")
        return key in self.value

    def get(self, key: str, default=None) -> Field:
        """Member `key` of this object; if absent, `default`, or an error when that is None."""
        path = f"{self.path}.{key}" if self.path else key
        if key not in self and default is None:
            raise self.error(f"{path} is missing")
        return Field(self.value.get(key, default), path, self.error)

    __getitem__ = get

    def items(self, size: int | None = None, least: int = 0) -> list[Field]:
        n = len(self.value) if isinstance(self.value, list) else -1
        if n < least or n != (size or n):
            raise self.wrong("a list" if n < 0 else f"a list of {size or f'at least {least}'}")
        return [Field(x, f"{self.path}[{i}]", self.error) for i, x in enumerate(self.value)]

    def integer(self, least: int | None = None) -> int:
        if type(self.value) is not int or least is not None and self.value < least:
            raise self.wrong("an integer" + ("" if least is None else f" >= {least}"))
        return self.value


def round_sig(x: float, digits: int = 12) -> float:
    return float(f"{x:.{digits}g}")


def complex_to_json(z: complex) -> dict:
    return {"re": round_sig(z.real), "im": round_sig(z.imag)}


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[round_sig(v.real), round_sig(v.imag)] for v in row] for row in m]


def matrix_from_json(data) -> np.ndarray:
    """A square matrix of finite [re, im] pairs; InvalidSystem in any file."""
    node = Field(data)
    rows = node.value if isinstance(node.value, list) else []
    if not rows or not all(isinstance(row, list) and len(row) == len(rows) and all(
        isinstance(z, list) and len(z) == 2 and _finite(z[0]) and _finite(z[1]) for z in row
    ) for row in rows):
        raise node.wrong("a square matrix of finite [re, im] pairs")
    arr = np.array(rows, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def phase_to_json(p: Phase) -> dict:
    if p.is_exact:
        return {"k": p.k, "N": p.N}
    return complex_to_json(p.value)


def phase_from_json(data) -> Phase:
    """A {k, N} cell of integers with N >= 1, else a {re, im} cell of finite numbers."""
    node = Field(data)
    if "k" in node:
        return Phase.exact(node["k"].integer(), node["N"].integer(least=1))
    re, im = node["re"].value, node["im"].value
    if not (_finite(re) and _finite(im)):
        raise node.wrong("{k, N} integers or {re, im} finite numbers")
    return Phase.from_complex(complex(re, im))


def group_to_json(g: FiniteGroup) -> dict:
    return {"n": g.n, "table": g.table.tolist()}


def group_from_json(data) -> FiniteGroup:
    node = Field(data)
    group = validate_group([[x.integer() for x in row.items()] for row in node["table"].items()])
    if (n := node.get("n", group.n)).integer() != group.n:
        raise n.wrong(f"{group.n}, the size of the table")
    return group


def hom_to_json(h: Z2Hom) -> dict:
    return {"values": h.values.tolist()}


def hom_from_json(group: FiniteGroup, data) -> Z2Hom:
    return validate_hom_z2(group, [x.integer() for x in Field(data)["values"].items()])


def cocycle_to_json(u: TwistedCocycle) -> dict:
    phases = [[phase_to_json(u(g, h)) for h in u.group.elements()] for g in u.group.elements()]
    return {"group": group_to_json(u.group), "twist": hom_to_json(u.twist), "phases": phases}


def cocycle_from_json(data) -> TwistedCocycle:
    node = Field(data)
    group = group_from_json(node["group"])
    twist = hom_from_json(group, node["twist"])
    values = [[phase_from_json(c) for c in row.items()] for row in node["phases"].items()]
    return validate_cocycle(group, twist, values)


def rep_to_json(rep: ProjectiveRep) -> list:
    return [{"matrix": matrix_to_json(m), "flag": rep.twist(g)} for g, m in enumerate(rep.mats)]


def rep_from_json(group: FiniteGroup, twist: Z2Hom, data) -> ProjectiveRep:
    pairs = []
    for g, op in enumerate(Field(data).items(size=group.n)):
        matrix, flag = matrix_from_json(op["matrix"]), op.get("flag", twist(g))
        if flag.integer() not in (0, 1):
            raise flag.wrong("0 or 1")
        pairs.append(pair(matrix, flag.value))
    return ProjectiveRep(group, twist, pairs)


def system_to_json(sys: GradedSystem) -> dict:
    out = {"form": sys.form, "group": group_to_json(sys.group), "p": hom_to_json(sys.twist),
           "action": rep_to_json(sys.action)}
    if sys.form in ("R0", "R1"):
        out["K_dim"] = sys.algebra.ambient // 2
    else:
        out["gamma"] = matrix_to_json(sys.gamma)
        out["generators"] = [{"matrix": matrix_to_json(g)} for g in sys.algebra.generators]
    return out


def system_from_json(data) -> GradedSystem:
    node = Field(data)
    group = group_from_json(node["group"])
    twist = hom_from_json(group, node["p"])
    action = rep_from_json(group, twist, node["action"])
    form = node.get("form", "generators").value
    if form in ("R0", "R1"):
        return (r0_system if form == "R0" else r1_system)(action, node["K_dim"].integer())
    if form != "generators":
        raise InvalidSystem(f"unknown system form {form!r:.80}")
    gamma, entries = matrix_from_json(node["gamma"]), node["generators"].items(least=1)
    gens = [matrix_from_json(entry["matrix"]) for entry in entries]
    if any(m.shape != gamma.shape for m in gens):
        raise InvalidSystem("each generator must have the shape of gamma")
    for entry, m in zip(entries, gens):
        if "degree" in entry and operator_degree(m, gamma) != entry["degree"].integer():
            raise InvalidSystem("declared generator degree does not match the grading")
    return system_from_generators(np.stack(gens), gamma, action)


def index_to_json(index: SPTIndex) -> dict:
    return {"kappa": index.kappa, "q": index.q.values.tolist(),
            "cocycle": cocycle_to_json(index.cls)}


def index_from_json(data) -> SPTIndex:
    node = Field(data)
    cls = cocycle_from_json(node["cocycle"])
    q = validate_hom_z2(cls.group, [x.integer() for x in node["q"].items()])
    return SPTIndex(node["kappa"].integer(), q, cls)


def mps_to_json(mps: FermionicMPS) -> dict:
    v = {str(mask): matrix_to_json(mps.v[mask]) for mask in range(mps.nloc)}
    out = {"kind": mps.kind, "d": mps.d, "m": mps.m, "v": v, "D": matrix_to_json(mps.D)}
    if mps.kind == "even":
        out["Theta"] = matrix_to_json(mps.theta)
    out["sigma0"] = mps.sigma0
    return out


def mps_from_json(data) -> FermionicMPS:
    node = Field(data, error=InvalidMPS)
    d, bonds = node["d"].integer(least=0), node["v"]
    # no file holds 2^64 keys: min(d, 64) fails at the same missing key, forming no huge 1 << d
    v = [matrix_from_json(bonds[str(mask)]) for mask in range(1 << min(d, 64))]
    m = node.get("m", len(v[0])).integer()
    if any(a.shape != (m, m) for a in v):
        raise DimensionMismatch(f"bond matrices v must all be m x m, m = {m}")
    dmat = matrix_from_json(node["D"]) if "D" in node else None
    if (kind := node["kind"].value) == "even":
        mps = even_mps(d, np.stack(v), matrix_from_json(node["Theta"]), dmat)
        if (sigma0 := node.get("sigma0", mps.sigma0)).integer() != mps.sigma0:
            raise sigma0.wrong(f"{mps.sigma0}, the parity offset of v under Theta")
        return mps
    if kind == "odd":
        return odd_mps(d, np.stack(v), node.get("sigma0", 0).integer(), dmat)
    raise InvalidMPS(f"unknown MPS kind {kind!r:.80}")


def symmetry_to_json(sym: OnSiteSymmetry) -> dict:
    return {"group": group_to_json(sym.group), "p": hom_to_json(sym.twist),
            "U": rep_to_json(sym.rep_site), "W": rep_to_json(sym.rep_bond)}


def symmetry_from_json(data) -> OnSiteSymmetry:
    node = Field(data)
    if "q" in node:
        raise InvalidSystem('a symmetry has no "q" key: q is read off the state')
    group = group_from_json(node["group"])
    twist = hom_from_json(group, node["p"])
    return OnSiteSymmetry(*(rep_from_json(group, twist, node[key]) for key in ("U", "W")))
