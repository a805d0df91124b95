import sys
import threading
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from coverslide import (
    NotAGroup,
    UnsupportedFamily,
    builtin_group,
    builtin_group_from_string,
    element_order,
    from_mul_table,
    group_from_json,
    groups,
    left_cosets,
    subgroup_generated,
)

from helpers import relabeled

KLEIN_TABLE = [
    [0, 1, 2, 3],
    [1, 0, 3, 2],
    [2, 3, 0, 1],
    [3, 2, 1, 0],
]


def test_trivial_table():
    G = from_mul_table([[0]])
    assert G.order == 1
    assert G.inv == (0,)


def test_klein_table():
    G = from_mul_table(KLEIN_TABLE)
    assert G.order == 4
    for x in range(1, 4):
        assert element_order(G, x) == 2


def test_not_a_group_row():
    with pytest.raises(NotAGroup, match="row 1"):
        from_mul_table([[0, 1], [1, 1]])


def test_not_a_group_no_identity():
    # subtraction table of Z/3: a Latin square with no identity row
    with pytest.raises(NotAGroup, match="identity"):
        from_mul_table([[0, 2, 1], [1, 0, 2], [2, 1, 0]])


def test_not_square():
    with pytest.raises(NotAGroup, match="square"):
        from_mul_table([[0, 1], [1]])


def test_identity_relocated_to_zero():
    # cyclic of order 3 written with identity at index 2
    table = [[2, 0, 1], [0, 1, 2], [1, 2, 0]]
    # row 1 is the identity row here; build a table whose identity is index 1
    G = from_mul_table(table)
    assert all(G.mul[0][x] == x for x in range(3))
    assert all(G.mul[x][0] == x for x in range(3))
    for x in range(3):
        assert G.mul[x][G.inv[x]] == 0


def test_associativity_witness():
    # a loop of order 5 in which every element is an involution; it passes
    # the identity and inverse scans but cannot be associative (a group of
    # order 5 is cyclic)
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(NotAGroup, match="associativity"):
        from_mul_table(table)


def test_inverse_witness():
    # a non-commutative loop of order 5: 2*3 = 0 but 3*2 = 1, so the
    # inverse scan fails before associativity is ever examined
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(NotAGroup, match="inverse"):
        from_mul_table(table)


def test_builtin_trivial():
    assert builtin_group("cyclic", 1).order == 1
    assert builtin_group("trivial").order == 1


def test_builtin_klein_matches_table():
    G = builtin_group("elementary_abelian", 2, 2)
    assert G.mul == tuple(tuple(r) for r in KLEIN_TABLE)


def test_builtin_symmetric3_orders():
    G = builtin_group("symmetric", 3)
    assert G.order == 6
    # independent oracle: order by repeated multiplication
    orders = set()
    for x in range(6):
        k, y = 1, x
        while y != 0:
            y = G.mul[y][x]
            k += 1
        orders.add(k)
        assert element_order(G, x) == k
    assert orders == {1, 2, 3}


def test_builtin_dihedral():
    G = builtin_group("dihedral", 4)
    assert G.order == 8
    orders = sorted(element_order(G, x) for x in range(8))
    assert orders == [1, 2, 2, 2, 2, 2, 4, 4]


def test_builtin_cyclic_generator_order():
    G = builtin_group("cyclic", 6)
    assert element_order(G, 1) == 6


def test_unsupported_family():
    with pytest.raises(UnsupportedFamily):
        builtin_group("monster")
    with pytest.raises(UnsupportedFamily):
        builtin_group("symmetric", 6)
    with pytest.raises(UnsupportedFamily):
        builtin_group("elementary_abelian", 4, 2)
    with pytest.raises(UnsupportedFamily):
        builtin_group("cyclic", 0)


def test_builtin_from_string():
    assert builtin_group_from_string("cyclic:5").order == 5
    assert builtin_group_from_string("elementary_abelian:2,3").order == 8
    with pytest.raises(UnsupportedFamily):
        builtin_group_from_string("cyclic:x")


def test_subgroup_generated_empty(klein_group):
    assert subgroup_generated(klein_group, []) == (0,)


def test_subgroup_generated_klein(klein_group):
    # closure of q(b) = element 2 by hand: {e, q(b)}
    assert subgroup_generated(klein_group, [2]) == (0, 2)
    assert subgroup_generated(klein_group, [1, 2]) == (0, 1, 2, 3)


def test_subgroup_generated_idempotent(klein_group):
    sub = subgroup_generated(klein_group, [3])
    again = subgroup_generated(klein_group, sub)
    assert again == sub


def test_left_cosets_whole_group(klein_group):
    blocks = left_cosets(klein_group, subgroup_generated(klein_group, [1, 2]))
    assert blocks == [(0, 1, 2, 3)]


def test_left_cosets_klein_split(klein_group):
    blocks = left_cosets(klein_group, subgroup_generated(klein_group, [2]))
    assert len(blocks) == 2
    assert all(len(b) == 2 for b in blocks)
    assert blocks[0] == (0, 2)


def test_left_cosets_trivial_subgroup(klein_group):
    blocks = left_cosets(klein_group, (0,))
    assert blocks == [(0,), (1,), (2,), (3,)]


def test_cosets_partition_symmetric4():
    G = builtin_group("symmetric", 4)
    sub = subgroup_generated(G, [1, 2])
    blocks = left_cosets(G, sub)
    assert sorted(x for b in blocks for x in b) == list(range(24))
    assert len(blocks) * len(blocks[0]) == 24
    assert all(b[0] == min(b) for b in blocks)


def test_element_order_divides_group_order():
    for fam, params in (("dihedral", (4,)), ("symmetric", (4,)), ("cyclic", (6,))):
        G = builtin_group(fam, *params)
        for x in G.elements():
            assert G.order % element_order(G, x) == 0


def test_symmetric_tables_are_built_once():
    assert builtin_group("symmetric", 5) is builtin_group("symmetric", 5)
    assert builtin_group_from_string("symmetric:3") is builtin_group("symmetric", 3)
    for _ in range(2):  # a refused k is not cached
        with pytest.raises(UnsupportedFamily):
            builtin_group_from_string("symmetric:6")


@pytest.fixture
def fresh_builtins(monkeypatch):
    """An empty builtin table cache, in place of the process's one."""
    cache = groups._TableCache()
    monkeypatch.setattr(groups, "_BUILTINS", cache)
    return cache


def test_equal_specs_share_one_group(fresh_builtins):
    assert builtin_group_from_string("Cyclic:128") is builtin_group("cyclic", 128)
    assert builtin_group(" Elementary-Abelian ", 2, 5) is builtin_group_from_string("elementary_abelian:2,5")
    assert builtin_group("trivial") is builtin_group_from_string("cyclic:1") is builtin_group("TRIVIAL")
    assert builtin_group("dihedral", 32) is builtin_group("dihedral", 32)
    assert builtin_group("cyclic", 5) is not builtin_group("cyclic", 6)
    assert fresh_builtins.cells == 128**2 + 32**2 + 1 + 64**2 + 5**2 + 6**2


def test_inexact_params_behave_as_without_a_cache(fresh_builtins):
    """Only exact-int parameters are keys: 3.0 == 3 and True == 1 as dict
    keys, but symmetric(3.0) and cyclic(2.0) raise, and True builds anew."""
    for family, k in (("symmetric", 3), ("cyclic", 2), ("dihedral", 4)):
        builtin_group(family, k)
        cells = fresh_builtins.cells
        for _ in range(2):
            with pytest.raises(UnsupportedFamily):
                builtin_group(family, float(k))
        assert fresh_builtins.cells == cells
    with pytest.raises(UnsupportedFamily):
        builtin_group("elementary_abelian", 2, 2.0)
    for family, params in (("cyclic", (1,)), ("symmetric", (1,)), ("dihedral", (1,)), ("elementary_abelian", (2, 1))):
        G = builtin_group(family, *params)
        cells = fresh_builtins.cells
        H = builtin_group(family, *params[:-1], True)
        assert H is not G and H is not builtin_group(family, *params[:-1], True)
        assert (H.order, H.mul, H.inv, H.labels) == (G.order, G.mul, G.inv, G.labels)
        assert fresh_builtins.cells == cells


def test_refused_specs_raise_on_every_call(fresh_builtins):
    for spec in ("symmetric:6", "cyclic:0", "cyclic:1025", "elementary_abelian:4,2", "dihedral:513",
                 "monster:3", "cyclic:2,3", "trivial:1", "cyclic:x", "symmetric"):
        for _ in range(3):
            with pytest.raises(UnsupportedFamily):
                builtin_group_from_string(spec)
    assert fresh_builtins.cells == 0 and not fresh_builtins.groups


def test_a_group_above_the_budget_is_not_kept(fresh_builtins):
    G = builtin_group("cyclic", 600)  # 360,000 cells
    assert 600**2 > groups.BUILTIN_CACHE_CELLS
    assert builtin_group("cyclic", 600) is not G
    assert fresh_builtins.cells == 0
    assert builtin_group("cyclic", 512) is builtin_group("cyclic", 512)  # exactly the budget
    assert fresh_builtins.cells == groups.BUILTIN_CACHE_CELLS


# specs from 1 to 262,144 cells, and one above the budget
CACHE_SPECS = [("trivial", ()), ("cyclic", (5,)), ("symmetric", (4,)), ("symmetric", (5,)),
               ("elementary_abelian", (2, 6)), ("dihedral", (100,)), ("cyclic", (300,)),
               ("dihedral", (180,)), ("cyclic", (512,)), ("cyclic", (513,))]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(CACHE_SPECS), max_size=12))
def test_kept_cells_stay_within_the_budget(calls):
    """The cache against a model: the least recently used groups whose
    tables fit are kept, every kept group comes back as the same object, and
    the kept cells never exceed the budget."""
    with pytest.MonkeyPatch.context() as mp:
        cache = groups._TableCache()
        mp.setattr(groups, "_BUILTINS", cache)
        model: dict = {}  # key -> group, least recently used first
        for family, params in calls:
            key = ("cyclic", (1,)) if family == "trivial" else (family, params)
            G = builtin_group(family, *params)
            if key in model:
                assert G is model.pop(key)
            if G.order**2 <= groups.BUILTIN_CACHE_CELLS:
                model[key] = G
            while sum(H.order**2 for H in model.values()) > groups.BUILTIN_CACHE_CELLS:
                del model[next(iter(model))]
            assert list(cache.groups.items()) == list(model.items())
            assert cache.cells == sum(H.order**2 for H in model.values()) <= groups.BUILTIN_CACHE_CELLS


def test_threads_building_one_spec_get_one_group(fresh_builtins):
    """Threads that build the same specs at once each get the one kept
    group, and the cell count stays the sum over the kept groups."""
    specs = [("cyclic", 64), ("dihedral", 32), ("symmetric", 4), ("elementary_abelian", 2, 5)]
    seen: list = []

    def build() -> None:
        for _ in range(20):
            seen.extend((spec, builtin_group(*spec)) for spec in specs)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 8 * 20 * len(specs)
    assert len({(spec, id(G)) for spec, G in seen}) == len(specs)
    assert fresh_builtins.cells == sum(G.order**2 for G in fresh_builtins.groups.values()) == 64**2 + 64**2 + 24**2 + 32**2


def test_a_second_keep_of_one_key_returns_the_first_group(fresh_builtins):
    """Two threads that both missed build the group twice; the later keep
    returns the group kept first and counts its cells once."""
    first, second = groups._cyclic(8), groups._cyclic(8)
    assert fresh_builtins.keep(("cyclic", (8,)), first) is first
    assert fresh_builtins.keep(("cyclic", (8,)), second) is first
    assert fresh_builtins.cells == 64
    assert builtin_group("cyclic", 8) is first


def test_tables_from_outside_are_never_shared(fresh_builtins):
    G = builtin_group("elementary_abelian", 2, 2)
    data = {"mul": [list(row) for row in G.mul]}
    cells = fresh_builtins.cells
    tables = [from_mul_table(KLEIN_TABLE), from_mul_table(KLEIN_TABLE), group_from_json(data), group_from_json(data)]
    assert len({id(H) for H in [G, *tables]}) == 5
    assert all(H.mul == G.mul for H in tables)
    assert fresh_builtins.cells == cells


def test_group_json_round_trip():
    G = builtin_group("dihedral", 3)
    data = {"order": G.order, "mul": [list(row) for row in G.mul], "labels": list(G.labels)}
    H = group_from_json(data)
    assert H.mul == G.mul
    assert H.labels == G.labels


def test_json_missing_table():
    with pytest.raises(NotAGroup):
        group_from_json({"order": 2})


def normalized_latin_squares(m):
    """Every m x m Latin square whose first row and column are 0..m-1."""
    rows = [list(range(m))] + [[r] + [None] * (m - 1) for r in range(1, m)]
    in_row = [{r} for r in range(m)]
    in_col = [{c} for c in range(m)]
    cells = [(r, c) for r in range(1, m) for c in range(1, m)]

    def fill(k):
        if k == len(cells):
            yield [list(row) for row in rows]
            return
        r, c = cells[k]
        for v in range(m):
            if v not in in_row[r] and v not in in_col[c]:
                rows[r][c] = v
                in_row[r].add(v)
                in_col[c].add(v)
                yield from fill(k + 1)
                in_row[r].discard(v)
                in_col[c].discard(v)

    yield from fill(0)


def first_associativity_failure(table):
    """The full O(m^3) sweep: the lexicographically first failing (x, y, z)."""
    m = len(table)
    for x in range(m):
        for y in range(m):
            for z in range(m):
                if table[table[x][y]][z] != table[x][table[y][z]]:
                    return (x, y, z)
    return None


def test_light_test_exhaustive_small_latin_squares():
    # Light's test over a generating set must agree with the full sweep on
    # every loop of order <= 6, and report the same witness
    counts = []
    for m in range(1, 7):
        count = 0
        for table in normalized_latin_squares(m):
            count += 1
            witness = first_associativity_failure(table)
            if witness is None:
                assert from_mul_table(table).mul == tuple(map(tuple, table))
                continue
            with pytest.raises(NotAGroup) as exc:
                from_mul_table(table)
            message = str(exc.value)
            assert "inverse" in message or message == "associativity fails at (%d, %d, %d)" % witness
        counts.append(count)
    assert counts == [1, 1, 1, 4, 56, 9408]  # OEIS A000315


# --- the builtin tables and the validator against their former cell-by-cell forms ---


def former_builtin_table(family, *params):
    """The builtin builders as they were, one cell at a time: (table, labels)."""
    if family == "cyclic":
        (m,) = params
        return [[(x + y) % m for y in range(m)] for x in range(m)], [str(x) for x in range(m)]
    if family == "dihedral":
        (m,) = params

        def mul(x, y):
            i1, j1 = x % m, x // m
            i2, j2 = y % m, y // m
            return (i1 + (i2 if j1 == 0 else -i2)) % m + m * ((j1 + j2) % 2)

        labels = []
        for x in range(2 * m):
            i, j = x % m, x // m
            rot = "e" if i == 0 else ("r" if i == 1 else f"r{i}")
            labels.append(rot if j == 0 else ("s" if i == 0 else rot + "s"))
        return [[mul(x, y) for y in range(2 * m)] for x in range(2 * m)], labels
    if family == "symmetric":
        (k,) = params
        perms = sorted(permutations(range(k)))
        index = {p: i for i, p in enumerate(perms)}
        table = [[index[tuple(p[q[t]] for t in range(k))] for q in perms] for p in perms]
        return table, ["".join(str(t) for t in p) for p in perms]
    p, k = params

    def coords(x):
        out = []
        for _ in range(k):
            x, r = divmod(x, p)
            out.append(r)
        return tuple(out)

    def index(v):
        acc = 0
        for t in reversed(range(k)):
            acc = acc * p + v[t]
        return acc

    table = [
        [index([(a + b) % p for a, b in zip(coords(x), coords(y))]) for y in range(p**k)]
        for x in range(p**k)
    ]
    return table, ["".join(str(d) for d in coords(x)) for x in range(p**k)]


BUILTIN_SPECS = (
    [("cyclic", (m,)) for m in range(1, 65)]
    + [("dihedral", (m,)) for m in range(1, 41)]
    + [("symmetric", (k,)) for k in range(1, 6)]
    + [("elementary_abelian", (2, k)) for k in range(1, 8)]
    + [("elementary_abelian", (3, k)) for k in range(1, 5)]
    + [("elementary_abelian", (5, k)) for k in range(1, 4)]
)


def test_builtin_tables_match_former_builders():
    for family, params in BUILTIN_SPECS:
        table, labels = former_builtin_table(family, *params)
        assert table[0] == list(range(len(table)))  # identity at 0: no relabeling
        G = builtin_group(family, *params)
        assert G.mul == tuple(map(tuple, table)), (family, params)
        assert G.inv == tuple(row.index(0) for row in table), (family, params)
        assert G.labels == tuple(labels), (family, params)


def former_from_mul_table(table, labels=None):
    """The validator as it was, one cell at a time, with the full
    associativity sweep (Light's test accepts exactly the same tables)."""
    rows = [list(r) for r in table]
    m = len(rows)
    if m == 0:
        raise NotAGroup("empty table")
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
    ident = None
    for e in range(m):
        if all(rows[e][x] == x for x in range(m)) and all(rows[x][e] == x for x in range(m)):
            ident = e
            break
    if ident is None:
        raise NotAGroup("no two-sided identity element")
    label_list = [str(s) for s in labels] if labels is not None else None
    if label_list is not None and len(label_list) != m:
        raise NotAGroup(f"labels length {len(label_list)} != order {m}")
    if ident != 0:
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
    witness = first_associativity_failure(rows)
    if witness is not None:
        raise NotAGroup("associativity fails at (%d, %d, %d)" % witness)
    return tuple(map(tuple, rows)), tuple(inv), tuple(label_list)


class Int(int):
    pass


def _validated(validate, table, labels):
    try:
        G = validate(table, labels)
    except NotAGroup as exc:
        return "NotAGroup", str(exc)
    return G if isinstance(G, tuple) else (G.mul, G.inv, G.labels)


# tables to perturb: groups; the non-associative loops of order 5 (two of them
# have two-sided inverses and fail only associativity); Latin squares with no
# identity and with a left identity only
GROUP_TABLES = [list(map(list, builtin_group_from_string(spec).mul))
                for spec in ("cyclic:1", "cyclic:2", "cyclic:5", "elementary_abelian:2,2",
                             "symmetric:3", "dihedral:4")]
LOOPS_5 = [t for t in normalized_latin_squares(5) if first_associativity_failure(t)]
NO_IDENTITY = [[(2 * x + 3 * y) % 5 for y in range(5)] for x in range(5)]
LEFT_IDENTITY_ONLY = [[(y - x) % 3 for y in range(3)] for x in range(3)]
ODD_ENTRIES = [True, False, 1.0, 0.0, Int(1), Int(0), -1, None, "1"]


@st.composite
def perturbed_tables(draw):
    base = draw(st.sampled_from(GROUP_TABLES) | st.sampled_from(LOOPS_5)
                | st.sampled_from([NO_IDENTITY, LEFT_IDENTITY_ONLY]))
    table = [row[:] for row in base]
    m = len(table)
    perm = draw(st.permutations(range(m)))  # a relabeling moves the identity off 0
    table = [[perm[table[perm.index(x)][perm.index(y)]] for y in range(m)] for x in range(m)]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["entry", "out of range", "short row", "long row",
                                     "row swap", "column swap", "drop row"]))
        x = draw(st.integers(0, len(table) - 1))
        y = draw(st.integers(0, max(len(table[x]) - 1, 0)))
        if not table[x]:
            continue
        if kind == "entry":
            table[x][y] = draw(st.sampled_from(ODD_ENTRIES))
        elif kind == "out of range":
            table[x][y] = draw(st.sampled_from([m, m + 1, -1]))
        elif kind == "short row":
            table[x] = table[x][:-1]
        elif kind == "long row":
            table[x] = table[x] + [table[x][0]]
        elif kind == "row swap":
            z = draw(st.integers(0, len(table[x]) - 1))
            table[x][y], table[x][z] = table[x][z], table[x][y]
        elif kind == "column swap":
            z = draw(st.integers(0, len(table) - 1))
            if y < len(table[z]):
                table[x][y], table[z][y] = table[z][y], table[x][y]
        elif len(table) > 1:
            del table[x]
    labels = draw(st.none() | st.just([f"x{i}" for i in range(m)]))
    return table, labels


@settings(max_examples=400, deadline=None)
@given(perturbed_tables())
def test_validator_matches_former_validator(case):
    table, labels = case
    assert _validated(from_mul_table, table, labels) == _validated(
        former_from_mul_table, table, labels)


def test_validator_cases_reach_every_outcome():
    # the shapes the perturbed tables above rely on, once each
    k = [row[:] for row in KLEIN_TABLE]
    k[1][2], k[1][3] = k[1][3], k[1][2]  # rows stay permutations, columns do not
    for table in (k, [[0, 1], [1, True]], [[0, 1], [1, Int(0)]], [[0, 1.0], [1, 0]],
                  [[0, 1], [1, 0, 1]], NO_IDENTITY, LEFT_IDENTITY_ONLY, *LOOPS_5):
        assert _validated(from_mul_table, table, None) == _validated(
            former_from_mul_table, table, None)
    assert _validated(from_mul_table, k, None)[1] == "column 2 is not a permutation of 0..3"
    assert _validated(from_mul_table, [[0, 1], [1, Int(0)]], None)[0] == ((0, 1), (1, 0))
    for table in (NO_IDENTITY, LEFT_IDENTITY_ONLY):
        assert _validated(from_mul_table, table, None)[1] == "no two-sided identity element"


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(("trivial", "cyclic:8", "cyclic:9", "dihedral:6", "symmetric:4", "symmetric:5",
                     "elementary_abelian:2,4", "elementary_abelian:3,2")),
    st.randoms(use_true_random=False),
)
def test_involution_cosets_split_every_element(spec, rng):
    """Every g is a*t: t = reps[coset[g]] the least element of the right
    coset A*g, and a in A, an elementary abelian 2-subgroup whose F2 codes
    add under the group product."""
    G = relabeled(builtin_group_from_string(spec), rng)
    code, coset, reps = G.involution_cosets
    A = [g for g in G.elements() if coset[g] == 0]
    by_code = {code[a]: a for a in A}
    assert len(by_code) == len(A) == G.order // len(reps)
    assert len(A) & (len(A) - 1) == 0 and max(code) < len(A)
    for a in A:
        assert G.mul[a][a] == 0
        for b in A:
            assert G.mul[a][b] == G.mul[b][a] and code[G.mul[a][b]] == code[a] ^ code[b]
    for g in G.elements():
        t = reps[coset[g]]
        assert G.mul[by_code[code[g]]][t] == g
        assert t == min(G.mul[a][g] for a in A)
    assert G.involution_cosets is G.involution_cosets
