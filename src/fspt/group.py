"""Finite groups as multiplication tables, and Z2-valued homomorphisms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoIdentity, NoInverse, NotAssociative, NotHomomorphism


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group on element indices 0..n-1.

    ``table[a, b]`` is the index of the product a*b.  Construct through
    :func:`validate_group`, which locates the identity and inverses and
    certifies associativity.
    """

    table: np.ndarray
    identity: int
    inverse: np.ndarray

    @property
    def n(self) -> int:
        return self.table.shape[0]

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def elements(self) -> range:
        return range(self.n)

    def same_as(self, other: "FiniteGroup") -> bool:
        return self.table.shape == other.table.shape and np.array_equal(
            self.table, other.table
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and self.same_as(other)

    def __hash__(self):
        return hash(self.table.tobytes())


def _integers(values, error, what: str) -> np.ndarray:
    """values as an int array; error(what) if ragged or not of an integer dtype."""
    try:
        raw = np.asarray(values)
    except ValueError:  # ragged nesting: no array at all
        raw = np.asarray(None)
    if raw.dtype.kind not in "biu":
        raise error(f"{what} must be a rectangular array of integers")
    return raw.astype(int)


def validate_group(table) -> FiniteGroup:
    """Check a multiplication table and return the group it defines."""
    t = _integers(table, NoIdentity, "table")
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise NoIdentity(f"table must be square, got shape {t.shape}")
    n = t.shape[0]
    if n == 0 or t.min() < 0 or t.max() >= n:
        raise NoIdentity(f"table entries must lie in [0, {n})")

    idx = np.arange(n)
    lhs = t[t[:, :, None], idx[None, None, :]]   # (a*b)*c
    rhs = t[idx[:, None, None], t[None, :, :]]   # a*(b*c)
    if not np.array_equal(lhs, rhs):
        a, b, c = np.argwhere(lhs != rhs)[0]
        raise NotAssociative(f"({a}*{b})*{c} != {a}*({b}*{c})")

    is_identity = (t == idx).all(axis=1) & (t == idx[:, None]).all(axis=0)
    if not is_identity.any():
        raise NoIdentity("no two-sided identity element")
    identity = int(is_identity.argmax())

    two_sided = (t == identity) & (t.T == identity)  # [a, b]: b inverts a
    has = two_sided.any(axis=1)
    if not has.all():
        raise NoInverse(f"element {int(has.argmin())} has no two-sided inverse")
    inverse = two_sided.argmax(axis=1)
    return FiniteGroup(table=t, identity=identity, inverse=inverse)


@dataclass(frozen=True)
class Z2Hom:
    """A homomorphism G -> Z2 = {0, 1}, stored as its value table."""

    group: FiniteGroup
    values: np.ndarray

    def __call__(self, g: int) -> int:
        return int(self.values[g])

    @property
    def is_trivial(self) -> bool:
        return not self.values.any()

    def same_as(self, other: "Z2Hom") -> bool:
        return self.group.same_as(other.group) and np.array_equal(
            self.values, other.values
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Z2Hom) and self.same_as(other)

    def __hash__(self):
        return hash((self.group, self.values.tobytes()))

    def plus(self, other: "Z2Hom") -> "Z2Hom":
        return Z2Hom(self.group, (self.values + other.values) % 2)


def validate_hom_z2(group: FiniteGroup, values) -> Z2Hom:
    v = _integers(values, NotHomomorphism, "values")
    if v.shape != (group.n,):
        raise NotHomomorphism(f"expected {group.n} values, got shape {v.shape}")
    if not ((v == 0) | (v == 1)).all():
        raise NotHomomorphism("values must lie in {0, 1}")
    expected = (v[:, None] + v[None, :]) % 2
    actual = v[group.table]
    if not np.array_equal(expected, actual):
        g, h = np.argwhere(expected != actual)[0]
        raise NotHomomorphism(f"values[{g}*{h}] != values[{g}] + values[{h}] mod 2")
    return Z2Hom(group, v)


def trivial_hom(group: FiniteGroup) -> Z2Hom:
    return Z2Hom(group, np.zeros(group.n, dtype=int))


def all_z2_homs(group: FiniteGroup) -> list[Z2Hom]:
    """Every homomorphism G -> Z2, in increasing order of sum_g v_g 2^g."""
    n, T = group.n, group.table
    tree = [(group.identity, 0, 0)]  # (h, parent, j): h = parent * gens[j]
    gens, reached = [], {group.identity}
    while len(reached) < n:
        gens.append(min(set(range(n)) - reached))  # each one at least doubles the subgroup
        for parent, _, _ in tree:  # the spanning tree grows while it is walked
            for j, s in enumerate(gens):
                if (h := int(T[parent, s])) not in reached:
                    reached.add(h)
                    tree.append((h, parent, j))
    # a homomorphism is fixed by its values on gens: extend each assignment
    # along the tree and keep those that respect the table
    bits = (np.arange(1 << len(gens))[:, None] >> np.arange(len(gens))) & 1
    v = np.zeros((len(bits), n), dtype=int)
    for h, parent, j in tree[1:]:
        v[:, h] = v[:, parent] ^ bits[:, j]
    v = v[(v[:, T] == v[:, :, None] ^ v[:, None, :]).all(axis=(1, 2))]
    return [Z2Hom(group, row) for row in v[np.lexsort(v.T)]]


# -- stock groups used throughout the tests and demos --

def cyclic(n: int) -> FiniteGroup:
    idx = np.arange(n)
    return validate_group((idx[:, None] + idx[None, :]) % n)


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Product group on index pairs, encoded as i*b.n + j."""
    table = a.table[:, None, :, None] * b.n + b.table[None, :, None, :]
    return validate_group(table.reshape(a.n * b.n, a.n * b.n))


def klein() -> FiniteGroup:
    return direct_product(cyclic(2), cyclic(2))


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: elements r^k and s r^k, s r s = r^-1."""
    order = 2 * n

    def mul(x, y):
        fx, kx = divmod(x, n)
        fy, ky = divmod(y, n)
        k = (ky + kx) % n if not fy else (ky - kx) % n
        return ((fx + fy) % 2) * n + k

    table = [[mul(x, y) for y in range(order)] for x in range(order)]
    return validate_group(table)


def quaternion8() -> FiniteGroup:
    """Quaternion group {1, -1, i, -i, j, -j, k, -k}."""
    units = [1, -1, 2, -2, 3, -3, 4, -4]  # 2=i, 3=j, 4=k, sign as sign

    def q_mul(x, y):
        sx, ax = (1 if x > 0 else -1), abs(x)
        sy, ay = (1 if y > 0 else -1), abs(y)
        s = sx * sy
        if ax == 1:
            a = ay
        elif ay == 1:
            a = ax
        elif ax == ay:
            a, s = 1, -s
        else:
            # i*j=k, j*k=i, k*i=j, anticyclic gives a minus sign
            cyc = {(2, 3): 4, (3, 4): 2, (4, 2): 3}
            if (ax, ay) in cyc:
                a = cyc[(ax, ay)]
            else:
                a = cyc[(ay, ax)]
                s = -s
        return s * a

    index = {u: i for i, u in enumerate(units)}
    table = [[index[q_mul(x, y)] for y in units] for x in units]
    return validate_group(table)
