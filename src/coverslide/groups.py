"""Finite groups given by explicit multiplication tables.

Elements are the integers ``0..order-1`` with the identity always at index 0
(tables whose identity sits elsewhere are relabeled on construction).  Tables
are fully validated: rows and columns must be permutations, a two-sided
identity and inverses must exist, and associativity is proved for orders up
to :data:`ASSOCIATIVITY_CHECK_BOUND` by Light's test over a generating set,
at O(|S| m^2) table lookups with |S| <= log2 m for a group of order m.
The builtin families build their tables from whole rows (slices, row
composition, a digit-by-digit recursion) and pass the same validation.
:func:`builtin_group` keeps the groups it builds for exact-int parameters,
least recently used out first, while their tables total at most
:data:`BUILTIN_CACHE_CELLS` cells, so a process validates each such table
once and every cover of one spec shares it (a group is immutable).  Tables
from :func:`from_mul_table` and :func:`group_from_json` are never kept.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, permutations
from operator import itemgetter
from typing import Iterable, Sequence

ASSOCIATIVITY_CHECK_BOUND = 256
_MAX_BUILTIN_ORDER = 1024
# the builtin tables kept for reuse hold at most this many cells in total,
# the table of an order-512 group (about 2 MB); a larger table is built for
# each call and not kept
BUILTIN_CACHE_CELLS = 1 << 18


class NotAGroup(ValueError):
    """A multiplication table violates a group axiom."""


class UnsupportedFamily(ValueError):
    """Unknown builtin family name, or parameters out of range."""


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group on ``0..order-1``, identity at index 0."""

    order: int
    mul: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    labels: tuple[str, ...]

    def elements(self) -> range:
        return range(self.order)

    def power(self, x: int, k: int) -> int:
        if k < 0:
            x, k = self.inv[x], -k
        acc = 0
        for _ in range(k):
            acc = self.mul[acc][x]
        return acc

    @cached_property
    def involution_cosets(self) -> tuple[list[int], list[int], list[int]]:
        """``(code, coset, reps)`` over an elementary abelian 2-subgroup A.

        A is generated greedily: each involution in turn that commutes with
        the earlier generators and is not in their span.  Every g is ``a*t``
        with ``t = reps[coset[g]]`` the least element of its right coset
        ``A*g``, and ``a`` in A has the F2 coordinates ``code[g]`` over A's
        generators, the first generator the highest bit.  The table lives on
        the group, so it is freed with it; every user of the group (a kept
        builtin group's every cover) reads the same lists, which must not be
        modified."""
        mul = self.mul
        span: dict[int, int] = {0: 0}
        gens: list[int] = []
        for x in range(1, self.order):
            if x not in span and mul[x][x] == 0 and all(mul[x][g] == mul[g][x] for g in gens):
                gens.append(x)
                doubled = {a: c << 1 for a, c in span.items()}
                span = doubled | {mul[a][x]: c | 1 for a, c in doubled.items()}
        code, coset, reps = [0] * self.order, [-1] * self.order, []
        for t in range(self.order):
            if coset[t] < 0:
                for a, c in span.items():
                    coset[mul[a][t]], code[mul[a][t]] = len(reps), c
                reps.append(t)
        return code, coset, reps


def from_mul_table(
    table: Sequence[Sequence[int]],
    labels: Sequence[str] | None = None,
    *,
    trusted: bool = False,
) -> FiniteGroup:
    """Validate a multiplication table and return the group it defines.

    The identity is relocated to index 0 by relabeling if necessary.  Raises
    :class:`NotAGroup` with a witness when an axiom fails.

    A table whose rows have entries of type exactly ``int`` and whose rows
    and columns each have the set ``{0..m-1}`` is accepted as a Latin square
    in one pass over whole rows and columns.  Any other table is scanned cell
    by cell, which names the first bad entry, row or column (an ``int``
    subclass passes that scan, as before).  The identity is the first index
    whose row and column are both ``0..m-1``.

    Associativity is proved by F. W. Light's test (Clifford-Preston, *The
    Algebraic Theory of Semigroups* I, 1.2): the elements ``y`` with
    ``(x*y)*z == x*(y*z)`` for all ``x, z`` are closed under products, so it
    suffices to check ``y`` over a set ``S`` whose products reach every
    element.  ``S`` is chosen greedily, each new element outside the closure
    of the earlier ones, so ``|S| <= log2 m`` for a group and the test costs
    O(|S| m) comparisons of whole rows, ``(x*y)*z`` against ``x*(y*z)`` over
    all ``z`` at once, instead of the O(m^3) full sweep.  On failure the full
    sweep reports the lexicographically first failing ``(x, y, z)``.  Orders
    above :data:`ASSOCIATIVITY_CHECK_BOUND` skip the test and require
    ``trusted=True``.
    """
    rows = [list(r) for r in table]
    m = len(rows)
    if m == 0:
        raise NotAGroup("empty table")
    # one pass of set and zip over whole rows and columns; any other table
    # goes to the cell-by-cell scan, which names the first failure
    full = set(range(m))
    cols = list(zip(*rows))
    if not (
        all(len(r) == m and set(map(type, r)) == {int} and set(r) == full for r in rows)
        and all(set(col) == full for col in cols)
    ):
        _latin_square_witness(rows)

    ident_row = list(range(m))
    ident_col = tuple(ident_row)
    ident = next((e for e in range(m) if rows[e] == ident_row and cols[e] == ident_col), None)
    if ident is None:
        raise NotAGroup("no two-sided identity element")

    label_list = [str(s) for s in labels] if labels is not None else None
    if label_list is not None and len(label_list) != m:
        raise NotAGroup(f"labels length {len(label_list)} != order {m}")

    if ident != 0:
        # swap indices 0 <-> ident so the identity lands at 0
        perm = list(range(m))
        perm[0], perm[ident] = ident, 0
        relabeled = [[0] * m for _ in range(m)]
        for x in range(m):
            for y in range(m):
                relabeled[perm[x]][perm[y]] = perm[rows[x][y]]
        rows = relabeled
        if label_list is not None:
            moved = [""] * m
            for old, new in enumerate(perm):
                moved[new] = label_list[old]
            label_list = moved
    if label_list is None:
        label_list = ["e" if x == 0 else f"g{x}" for x in range(m)]

    inv = [0] * m
    for x in range(m):
        y = rows[x].index(0)
        if rows[y][x] != 0:
            raise NotAGroup(f"inverse failure: {x}*{y} = e but {y}*{x} = {rows[y][x]}")
        inv[x] = y

    if m > ASSOCIATIVITY_CHECK_BOUND:
        if not trusted:
            raise ValueError(
                f"order {m} exceeds the exhaustive associativity bound "
                f"{ASSOCIATIVITY_CHECK_BOUND}; pass trusted=True to accept the table"
            )
    elif not _light_associative(rows):
        for x in range(m):
            rx = rows[x]
            for y in range(m):
                rxy = rows[rx[y]]
                ry = rows[y]
                for z in range(m):
                    if rxy[z] != rx[ry[z]]:
                        raise NotAGroup(f"associativity fails at ({x}, {y}, {z})")

    return FiniteGroup(
        order=m,
        mul=tuple(tuple(r) for r in rows),
        inv=tuple(inv),
        labels=tuple(label_list),
    )


def _latin_square_witness(rows: list[list]) -> None:
    """Raise :class:`NotAGroup` naming the first cell, row or column that
    keeps ``rows`` from being a Latin square on ``0..m-1`` with int entries;
    return if there is none (the entries may be of an int subclass)."""
    m = len(rows)
    for x, r in enumerate(rows):
        if len(r) != m:
            raise NotAGroup(f"table not square: row {x} has length {len(r)}, expected {m}")
        for y, v in enumerate(r):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < m:
                raise NotAGroup(f"entry out of range at ({x}, {y}): {v!r}")
    for x, r in enumerate(rows):
        if len(set(r)) != m:
            raise NotAGroup(f"row {x} is not a permutation of 0..{m - 1}")
    for y in range(m):
        if len({rows[x][y] for x in range(m)}) != m:
            raise NotAGroup(f"column {y} is not a permutation of 0..{m - 1}")


def _light_associative(rows: Sequence[Sequence[int]]) -> bool:
    """Light's test on a Latin square with two-sided identity 0: True iff
    associative.  Every element reached from 0 by right multiplications by
    ``gens`` is a product of generators, and a product of elements that
    associate with all pairs does too."""
    gens = _greedy_generators(rows)
    for y in gens:
        ry = rows[y]
        for rx in rows:
            # row x*y against x*(y*z) over all z
            if rows[rx[y]] != list(map(rx.__getitem__, ry)):
                return False
    return True


def _greedy_generators(rows: Sequence[Sequence[int]]) -> list[int]:
    """Each element in turn that the closure of the earlier ones misses; in a
    group they generate it, and there are at most log2 of the order."""
    gens: list[int] = []
    reached = {0}
    for x in range(1, len(rows)):
        if x not in reached:
            gens.append(x)
            reached = closure(rows, gens, reached)
    return gens


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _cyclic(m: int) -> FiniteGroup:
    if m < 1 or m > _MAX_BUILTIN_ORDER:
        raise UnsupportedFamily(f"cyclic({m}): order must be in 1..{_MAX_BUILTIN_ORDER}")
    base = list(range(m))
    table = [base[x:] + base[:x] for x in range(m)]
    return from_mul_table(table, list(map(str, base)), trusted=m > ASSOCIATIVITY_CHECK_BOUND)


def _elementary_abelian(p: int, k: int) -> FiniteGroup:
    if not _is_prime(p):
        raise UnsupportedFamily(f"elementary_abelian({p}, {k}): p must be prime")
    if k < 1 or p**k > _MAX_BUILTIN_ORDER:
        raise UnsupportedFamily(f"elementary_abelian({p}, {k}): order out of range")
    order = p**k
    # x has base-p digits d_0, d_1, ... (x = sum d_t p^t); addition is
    # digitwise mod p.  The table of (Z/p)^(t+1) comes from that of (Z/p)^t,
    # with q = p^t: row x + q*h is row x shifted by q*c in its c-th block of
    # q columns, the p blocks rotated left by h.
    table = [[0]]
    for t in range(k):
        q = p**t
        grown = [[]] * (q * p)
        for x, row in enumerate(table):
            flat = list(chain.from_iterable(map((q * c).__add__, row) for c in range(p)))
            for h in range(p):
                grown[x + q * h] = flat[q * h :] + flat[: q * h]
        table = grown
    labels = ["".join(str(x // p**t % p) for t in range(k)) for x in range(order)]
    return from_mul_table(table, labels, trusted=order > ASSOCIATIVITY_CHECK_BOUND)


def _dihedral(m: int) -> FiniteGroup:
    if m < 1 or 2 * m > _MAX_BUILTIN_ORDER:
        raise UnsupportedFamily(f"dihedral({m}): order out of range")
    order = 2 * m

    # element r^i s^j encoded as i + m*j; s r = r^-1 s, so r^i times r^i'
    # s^j' is r^(i+i') s^j' and r^i s times r^i' s^j' is r^(i-i') s^(1-j')
    rot, refl = list(range(m)), list(range(m, order))
    table = [rot[i:] + rot[:i] + refl[i:] + refl[:i] for i in range(m)]
    table += [refl[i::-1] + refl[:i:-1] + rot[i::-1] + rot[:i:-1] for i in range(m)]
    labels = []
    for x in range(order):
        i, j = x % m, x // m
        rot_label = "e" if i == 0 else ("r" if i == 1 else f"r{i}")
        if j == 0:
            labels.append(rot_label)
        else:
            labels.append("s" if i == 0 else rot_label + "s")
    return from_mul_table(table, labels, trusted=order > ASSOCIATIVITY_CHECK_BOUND)


def _symmetric(k: int) -> FiniteGroup:
    if not 1 <= k <= 5:
        raise UnsupportedFamily(f"symmetric({k}): k must be in 1..5")
    perms = sorted(permutations(range(k)))
    labels = ["".join(map(str, p)) for p in perms]
    if k == 1:
        return from_mul_table([[0]], labels)
    index = {p: i for i, p in enumerate(perms)}

    # composition applies the right factor first: (p*q)(x) = p(q(x)), which
    # is itemgetter(*q)(p); column q maps that getter over every p
    cols = [list(map(index.__getitem__, map(itemgetter(*q), perms))) for q in perms]
    return from_mul_table(list(zip(*cols)), labels)


_FAMILIES = {
    "cyclic": _cyclic,
    "elementary_abelian": _elementary_abelian,
    "dihedral": _dihedral,
    "symmetric": _symmetric,
}


class _TableCache:
    """Groups by key, least recently used first, whose tables total at most
    :data:`BUILTIN_CACHE_CELLS` cells; a group whose table alone exceeds that
    is never kept."""

    def __init__(self) -> None:
        self.cells = 0
        self.groups: OrderedDict[tuple, FiniteGroup] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: tuple) -> FiniteGroup | None:
        with self._lock:
            group = self.groups.get(key)
            if group is not None:
                self.groups.move_to_end(key)
            return group

    def keep(self, key: tuple, group: FiniteGroup) -> FiniteGroup:
        """Keep ``group`` under ``key`` if its table fits, dropping the least
        recently used groups to make room, and return the group kept under
        ``key``: an equal one that another thread kept first, if any."""
        cells = group.order * group.order
        if cells > BUILTIN_CACHE_CELLS:
            return group
        with self._lock:
            kept = self.groups.setdefault(key, group)
            if kept is group:
                self.cells += cells
                while self.cells > BUILTIN_CACHE_CELLS:
                    _, old = self.groups.popitem(last=False)
                    self.cells -= old.order * old.order
            return kept


_BUILTINS = _TableCache()


def builtin_group(family: str, *params: int) -> FiniteGroup:
    """Construct a named group: cyclic(m), elementary_abelian(p, k),
    dihedral(m) of order 2m, or symmetric(k) for k <= 5.  ``trivial`` is an
    alias for cyclic(1).

    With parameters of type exactly ``int``, the group is kept for later
    calls with the same normalized name and parameters, which return the
    same object, within the :data:`BUILTIN_CACHE_CELLS` budget.  Other
    parameters (``2.0``, ``True``) build the group anew, or raise, on every
    call, and so does a refused spec."""
    name = family.strip().lower().replace("-", "_")
    if name == "trivial":
        if params:
            raise UnsupportedFamily("trivial takes no parameters")
        name, params = "cyclic", (1,)
    fn = _FAMILIES.get(name)
    if fn is None:
        raise UnsupportedFamily(f"unknown family {family!r}")
    # 3.0 == 3 and True == 1 as dict keys, so only exact ints may hit
    key = (name, params) if all(type(p) is int for p in params) else None
    if key is not None:
        group = _BUILTINS.get(key)
        if group is not None:
            return group
    try:
        group = fn(*params)
    except TypeError as exc:
        raise UnsupportedFamily(f"{family}: bad parameter count {params}") from exc
    return group if key is None else _BUILTINS.keep(key, group)


def builtin_group_from_string(spec: str) -> FiniteGroup:
    """Parse ``"cyclic:5"`` / ``"elementary_abelian:2,2"`` style specs."""
    name, _, rest = spec.partition(":")
    params = []
    if rest:
        for tok in rest.split(","):
            try:
                params.append(int(tok))
            except ValueError as exc:
                raise UnsupportedFamily(f"bad parameter {tok!r} in {spec!r}") from exc
    return builtin_group(name, *params)


def subgroup_generated(group: FiniteGroup, gens: Iterable[int]) -> tuple[int, ...]:
    """The sorted members of the smallest subset containing the generators
    and the identity, closed under multiplication (inverses come for free in
    a finite group)."""
    gen_list = sorted(set(gens))
    for g in gen_list:
        if not 0 <= g < group.order:
            raise ValueError(f"generator index {g} out of range")
    return tuple(sorted(closure(group.mul, gen_list)))


def closure(
    mul: Sequence[Sequence[int]], gens: Sequence[int], start: Iterable[int] = (0,)
) -> set[int]:
    """The elements reached from ``start`` by right multiplications by
    ``gens``.  From the identity, or from a subgroup, in a group, this is the
    subgroup generated by ``start`` and ``gens``."""
    members = set(start)
    frontier = list(members)
    while frontier:
        row = mul[frontier.pop()]
        for g in gens:
            y = row[g]
            if y not in members:
                members.add(y)
                frontier.append(y)
    return members


def left_cosets(group: FiniteGroup, sub: Sequence[int]) -> list[tuple[int, ...]]:
    """Partition into left cosets gH of the subgroup with these members; the
    identity's coset comes first and every block is sorted, so block
    representatives are the minima."""
    mul = group.mul
    assigned = [False] * group.order
    blocks = []
    for g in range(group.order):
        if assigned[g]:
            continue
        block = sorted(mul[g][h] for h in sub)
        for x in block:
            assigned[x] = True
        blocks.append(tuple(block))
    return blocks


def generator_count_lower_bound(group: FiniteGroup) -> int:
    """A lower bound on the size of a generating set of the group: the
    largest ``dim`` over ``F_p``, for a prime p dividing the order, of the
    elementary abelian quotient ``G / ([G, G] G^p)``.  A generating set of G
    maps onto a spanning set of that vector space.  For a p-group the bound is
    the exact minimum (Burnside's basis theorem).

    With S a generating set, ``[G, G] G^p`` is the normal closure of the
    commutators and p-th powers of S: modulo that closure S commutes and has
    exponent p, and every commutator and p-th power lies in ``[G, G] G^p``.
    """
    m = group.order
    mul, inv = group.mul, group.inv
    gens = _greedy_generators(mul)
    bound = 0
    for p in _prime_divisors(m):
        kernel_gens = [mul[mul[a][b]][inv[mul[b][a]]] for a in gens for b in gens]
        kernel_gens += [group.power(s, p) for s in gens]
        N = closure(mul, kernel_gens)
        # conjugate each generator of N by each generator of G until N is normal
        for x in kernel_gens:
            for s in gens:
                y = mul[mul[s][x]][inv[s]]
                if y not in N:
                    kernel_gens.append(y)
                    N = closure(mul, kernel_gens, N)
        quotient, dim = m // len(N), 0
        while quotient > 1:
            quotient //= p
            dim += 1
        bound = max(bound, dim)
    return bound


def _prime_divisors(m: int) -> list[int]:
    primes, p = [], 2
    while m > 1:
        if p * p > m:
            p = m
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    return primes


def element_order(group: FiniteGroup, x: int) -> int:
    if not 0 <= x < group.order:
        raise ValueError(f"element index {x} out of range")
    k = 1
    y = x
    while y != 0:
        y = group.mul[y][x]
        k += 1
    return k


def group_from_json(data: dict, *, trusted: bool = False) -> FiniteGroup:
    """The group of a JSON document ``{"mul": [[...], ...], "labels": [...]}``
    (``labels`` and ``order`` optional); :class:`NotAGroup` for a document of
    any other shape."""
    if not isinstance(data, dict):
        raise NotAGroup(f"group JSON must be an object, not {type(data).__name__}")
    if "mul" not in data:
        raise NotAGroup("group JSON needs a 'mul' table")
    table, labels = data["mul"], data.get("labels")
    if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
        raise NotAGroup("group JSON 'mul' must be a list of lists")
    if labels is not None and not isinstance(labels, list):
        raise NotAGroup(f"group JSON 'labels' must be a list, not {type(labels).__name__}")
    if "order" in data and data["order"] != len(table):
        raise NotAGroup(f"declared order {data['order']} != table size {len(table)}")
    return from_mul_table(table, labels, trusted=trusted)
