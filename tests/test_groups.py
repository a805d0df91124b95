import pytest

from coverslide import (
    NotAGroup,
    Subgroup,
    UnsupportedFamily,
    builtin_group,
    builtin_group_from_string,
    element_order,
    from_mul_table,
    group_from_json,
    group_to_json,
    left_cosets,
    subgroup_generated,
)

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
    assert subgroup_generated(klein_group, []).members == (0,)


def test_subgroup_generated_klein(klein_group):
    # closure of q(b) = element 2 by hand: {e, q(b)}
    assert subgroup_generated(klein_group, [2]).members == (0, 2)
    assert subgroup_generated(klein_group, [1, 2]).members == (0, 1, 2, 3)


def test_subgroup_generated_idempotent(klein_group):
    sub = subgroup_generated(klein_group, [3])
    again = subgroup_generated(klein_group, sub.members)
    assert again.members == sub.members


def test_left_cosets_whole_group(klein_group):
    blocks = left_cosets(klein_group, subgroup_generated(klein_group, [1, 2]))
    assert blocks == [(0, 1, 2, 3)]


def test_left_cosets_klein_split(klein_group):
    blocks = left_cosets(klein_group, subgroup_generated(klein_group, [2]))
    assert len(blocks) == 2
    assert all(len(b) == 2 for b in blocks)
    assert blocks[0] == (0, 2)


def test_left_cosets_trivial_subgroup(klein_group):
    blocks = left_cosets(klein_group, Subgroup((0,)))
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


def test_group_json_round_trip():
    G = builtin_group("dihedral", 3)
    data = group_to_json(G)
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
