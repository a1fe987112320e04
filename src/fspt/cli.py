"""Command line front door.

Reads JSON fixtures, runs the computations, and emits JSON (default) or a
plain table where that makes sense.  Exit codes: 0 success, 1 domain
error, 2 usage error or malformed JSON.  Output is deterministic: fixed
iteration orders, no timestamps, floats at 12 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import serialize
from .cocycle import cohomologous, default_modulus
from .errors import DomainError
from .fmps import check_symmetry, density_matrix, expectation, fmps_index, transfer_matrix
from .invariant import (
    Z8_GENERATOR,
    index_equal,
    stack_index,
    z8_compose,
    z8_elements,
)
from .system import compute_index, stack_systems

MODULUS_CAVEAT = (
    "a negative verdict is certified only relative to the chosen root "
    "lattice Z_{M}; witnesses off the lattice are not searched"
)


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()

    def refuse(name: str):  # Python's json reads NaN, Infinity and -Infinity; JSON has none
        raise json.JSONDecodeError(f"{name} is not a JSON number", text, text.index(name))

    try:
        return json.loads(text, parse_constant=refuse)
    except RecursionError:  # json's decoder recurses once per nested list or object
        raise json.JSONDecodeError("nesting too deep", text, 0) from None


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=False))


def _cmd_group_check(args) -> dict:
    group = serialize.group_from_json(_load(args.infile))
    return {"ok": True, "n": group.n, "identity": group.identity, "inverse": group.inverse.tolist()}


def _cmd_cocycle_check(args) -> dict:
    u = serialize.cocycle_from_json(_load(args.infile))
    return {"ok": True, "n": u.n, "exact": u.is_exact}


def _cmd_cohomologous(args) -> dict:
    u1 = serialize.cocycle_from_json(_load(args.infile))
    u2 = serialize.cocycle_from_json(_load(args.infile2))
    modulus = args.modulus or default_modulus(u1, u2)
    ok, witness = cohomologous(u1, u2, modulus=modulus)
    out = {"cohomologous": ok, "modulus": modulus}
    if ok:
        out["witness"] = {"b": [serialize.phase_to_json(p) for p in witness.b]}
    elif args.modulus or not (u1.is_exact and u2.is_exact):
        out["caveat"] = MODULUS_CAVEAT.replace("{M}", str(modulus))
    return out


def _cmd_index(args) -> dict:
    sys_ = serialize.system_from_json(_load(args.infile))
    return serialize.index_to_json(compute_index(sys_))


def _cmd_stack(args) -> dict:
    s1 = serialize.system_from_json(_load(args.infile))
    s2 = serialize.system_from_json(_load(args.infile2))
    stacked = stack_systems(s1, s2)
    direct = compute_index(stacked)
    law = stack_index(compute_index(s1), compute_index(s2))
    return {
        "stacked_index": serialize.index_to_json(direct),
        "index_law": serialize.index_to_json(law),
        "consistent": index_equal(direct, law, modulus=args.modulus),
    }


def _cmd_z8_table(args):
    elements = z8_elements()
    labels = [str(e) for e in elements]
    table = [
        [elements.index(z8_compose(a, b)) for b in elements] for a in elements
    ]
    powers = {str(k + 1): labels[(k + 1) % 8] for k in range(8)}
    payload = {
        "elements": labels,
        "generator": str(Z8_GENERATOR),
        "generator_powers": powers,
        "table": table,
    }
    if args.table:
        width = max(len(s) for s in labels)
        print(" " * (width + 2) + "  ".join(s.ljust(width) for s in labels))
        for i, row in enumerate(table):
            cells = "  ".join(labels[j].ljust(width) for j in row)
            print(labels[i].ljust(width + 2) + cells)
        return None
    return payload


def _cmd_fmps_validate(args) -> dict:
    mps = serialize.mps_from_json(_load(args.infile))
    evals = sorted(np.abs(np.linalg.eigvals(transfer_matrix(mps.v))), reverse=True)
    return {
        "ok": True,
        "kind": mps.kind,
        "d": mps.d,
        "m": mps.m,
        "sigma0": mps.sigma0,
        "subleading_eigenvalue": serialize.round_sig(float(evals[1]) if len(evals) > 1 else 0.0),
    }


def site_word(text: str) -> list[tuple[int, int]]:
    """--word: a JSON list of [mu, nu] integer pairs; argparse exits 2 otherwise."""
    word = json.loads(text)
    if not isinstance(word, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(type(x) is int for x in p) for p in word
    ):
        raise ValueError(text)
    return [(mu, nu) for mu, nu in word]


def at_least(least: int):
    """An argparse type: an integer >= least; argparse exits 2 otherwise."""
    def integer(text: str) -> int:
        if (value := int(text)) < least:
            raise argparse.ArgumentTypeError(f"{value} is not an integer >= {least}")
        return value
    return integer


def _cmd_fmps_expect(args) -> dict:
    mps = serialize.mps_from_json(_load(args.infile))
    value = expectation(mps, args.word)
    return {
        "word": [[mu, nu] for mu, nu in args.word],
        "value": serialize.complex_to_json(value),
    }


def _cmd_fmps_rho(args) -> dict:
    mps = serialize.mps_from_json(_load(args.infile))
    rho = density_matrix(mps, args.l)
    signs = site = 1.0 - 2.0 * mps.site_parities()  # (-1)^|mu| on one site
    for _ in range(args.l):
        signs = np.kron(signs, site)  # the global parity's diagonal, big-endian
    eigs = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    return {
        "l": args.l,
        "dimension": rho.shape[0],
        "rho": serialize.matrix_to_json(rho),
        "checks": {
            "trace": serialize.round_sig(float(np.trace(rho).real)),
            "min_eigenvalue": serialize.round_sig(float(eigs.min())),
            "parity_commutator_norm": serialize.round_sig(
                float(np.linalg.norm(rho * (signs[None, :] - signs[:, None])))
            ),
            "psd": bool(eigs.min() >= -1e-10),
        },
    }


def _cmd_fmps_symmetry(args) -> dict:
    mps = serialize.mps_from_json(_load(args.infile))
    sym = serialize.symmetry_from_json(_load(args.infile2))
    phases = check_symmetry(mps, sym)
    out = {
        "c": [serialize.complex_to_json(c) for c in phases.c],
        "residuals": [serialize.round_sig(float(r)) for r in phases.residuals],
    }
    if phases.q is not None:
        out["q"] = phases.q.values.tolist()
    return out


def _cmd_fmps_index(args) -> dict:
    mps = serialize.mps_from_json(_load(args.infile))
    sym = serialize.symmetry_from_json(_load(args.infile2))
    return serialize.index_to_json(fmps_index(mps, sym))


_FLAGS = {
    "--in": dict(dest="infile", required=True, help="input JSON file"),
    "--in2": dict(dest="infile2", required=True, help="second input JSON file"),
    "--l": dict(type=at_least(0), default=1, help="chain length minus one"),
    "--word": dict(type=site_word, required=True, help="site word as JSON, e.g. [[1,0],[0,1]]"),
    "--modulus": dict(type=at_least(1), default=None, help="root lattice order"),
    "--table": dict(action="store_true", help="plain table instead of JSON"),
}

# subcommand: (handler, help, the flags the handler reads)
_COMMANDS = {
    "group-check": (_cmd_group_check, "validate a group multiplication table", ["--in"]),
    "cocycle-check": (_cmd_cocycle_check, "validate a twisted 2-cocycle table", ["--in"]),
    "cohomologous": (
        _cmd_cohomologous, "decide cohomological equivalence", ["--in", "--in2", "--modulus"]
    ),
    "index": (_cmd_index, "compute the index of a graded system", ["--in"]),
    "stack": (
        _cmd_stack,
        "stack two systems and cross-check the group law",
        ["--in", "--in2", "--modulus"],
    ),
    "z8-table": (_cmd_z8_table, "composition table of the time-reversal triples", ["--table"]),
    "fmps-validate": (_cmd_fmps_validate, "validate fermionic MPS data", ["--in"]),
    "fmps-expect": (_cmd_fmps_expect, "evaluate the state on a site word", ["--in", "--word"]),
    "fmps-rho": (_cmd_fmps_rho, "Jordan-Wigner density matrix with checks", ["--in", "--l"]),
    "fmps-symmetry": (_cmd_fmps_symmetry, "extract on-site symmetry phases", ["--in", "--in2"]),
    "fmps-index": (_cmd_fmps_index, "compute the index of a symmetric MPS", ["--in", "--in2"]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fspt",
        description="invariants of one-dimensional fermionic SPT phases",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler, _, _ = _COMMANDS[args.command]
    try:
        payload = handler(args)
    except DomainError as err:
        _emit({"error": err.token, "detail": str(err)})
        return 1
    except json.JSONDecodeError as err:
        print(f"malformed JSON at line {err.lineno} column {err.colno}: {err.msg}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as err:  # unreadable, or not UTF-8 text
        print(f"bad input: {err}", file=sys.stderr)
        return 2
    if payload is not None:
        _emit(payload)
    return 0


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
