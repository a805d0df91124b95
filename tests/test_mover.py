import dataclasses
import gc
import json
import weakref
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import assume, given, settings, strategies as st

from coverslide import (
    CertificateFailed,
    RankTooSmall,
    SearchExhausted,
    Word,
    ZeroVector,
    builtin_group,
    builtin_group_from_string,
    certificate_to_json,
    chain_of_path,
    chain_to_class,
    class_to_chain,
    component_basis,
    cycle_basis,
    find_pairing_edge,
    find_slide_loop,
    fundamental_loop_word,
    lifted_action_formula,
    lift_word,
    make_cover,
    make_slide,
    move_vector,
    orbit_rank_of_chain,
    path_is_closed,
    petal_complement_components,
    slide_increment,
    standard_images,
    verify_certificate,
)
from coverslide import homology, mover
from coverslide.cli import _dumps
from coverslide.linalg import mat_vec, vec_is_zero

from helpers import unit_vector


# --- pairing edge ------------------------------------------------------------


def test_pairing_zero_vector(mod2_cover, mod2_basis):
    with pytest.raises(ZeroVector):
        find_pairing_edge(mod2_cover, mod2_basis, [0] * 5)


def test_pairing_basis_vector(mod2_cover, mod2_basis):
    for k, e in enumerate(mod2_basis.cotree):
        j, g = find_pairing_edge(mod2_cover, mod2_basis, unit_vector(5, k))
        assert mod2_basis.cycles[k].get((g, j), 0) != 0


def test_pairing_loop_a_squared(mod2_cover, mod2_basis):
    v = chain_to_class(
        mod2_basis, chain_of_path(lift_word(mod2_cover, Word.from_string("a1.a1"), 0))
    )
    j, g = find_pairing_edge(mod2_cover, mod2_basis, v)
    assert j == 1
    assert g in (0, 1)  # A traverses the petal-1 edges at e and q(a)


def test_pairing_deterministic_smallest(klein_n3_cover, klein_n3_basis):
    B = klein_n3_basis
    v = [1] * B.rank
    j, g = find_pairing_edge(klein_n3_cover, B, v)
    chain = class_to_chain(B, v)
    for jj in range(1, j + 1):
        for gg in range(4):
            if (jj, gg) < (j, g):
                assert chain.get((gg, jj), 0) == 0


# --- fundamental loop words -----------------------------------------------------


def test_loop_word_trivial_rose(trivial_n3_cover):
    comps = petal_complement_components(trivial_n3_cover, 1)
    B0 = component_basis(comps[0])
    assert [fundamental_loop_word(B0, e) for e in B0.cotree] == [
        Word.from_string("a2"),
        Word.from_string("a3"),
    ]


def test_loop_word_mod2_b_squared(mod2_cover):
    comps = petal_complement_components(mod2_cover, 1)
    B0 = component_basis(comps[0])
    assert B0.cotree != ()
    words = [fundamental_loop_word(B0, e) for e in B0.cotree]
    assert words == [Word.from_string("a2.a2")]


def test_loop_word_round_trip():
    # lift of the loop word is closed and its class is the fundamental cycle
    covers = [
        make_cover(builtin_group("elementary_abelian", 2, 2), (1, 2, 0)),
        make_cover(builtin_group("symmetric", 3), (1, 2, 0)),
        make_cover(builtin_group("cyclic", 4), (1, 0, 1)),
    ]
    for Y in covers:
        for j in range(1, Y.n + 1):
            comps = petal_complement_components(Y, j)
            B0 = component_basis(comps[0])
            for k, e in enumerate(B0.cotree):
                w = fundamental_loop_word(B0, e)
                assert all(i != j for i, _ in w)
                p = lift_word(Y, w, 0)
                assert path_is_closed(Y, p)
                assert chain_of_path(p) == B0.cycles[k]


def test_loop_word_rejects_tree_edge(mod2_cover):
    comps = petal_complement_components(mod2_cover, 1)
    B0 = component_basis(comps[0])
    tree_edge = next(iter(B0.tree))
    with pytest.raises(ValueError):
        fundamental_loop_word(B0, tree_edge)


# --- slide loop search -----------------------------------------------------------


def test_find_loop_trivial_rose(trivial_n3_cover):
    B = cycle_basis(trivial_n3_cover)
    ell = find_slide_loop(trivial_n3_cover, B, 1)
    assert ell == Word.from_string("a2")


def test_find_loop_rank_too_small(mod2_cover, mod2_basis):
    with pytest.raises(RankTooSmall):
        find_slide_loop(mod2_cover, mod2_basis, 1)


def test_find_loop_klein_n3(klein_n3_cover, klein_n3_basis):
    Y, B = klein_n3_cover, klein_n3_basis
    for j in range(1, 4):
        ell = find_slide_loop(Y, B, j)
        assert all(i != j for i, _ in ell)
        assert Y.image_of(ell) == 0
        chain = chain_of_path(lift_word(Y, ell, 0))
        assert orbit_rank_of_chain(Y, B, chain) == 4
        # the lift stays in the identity component
        comp0 = petal_complement_components(Y, j)[0]
        assert all(e in set(comp0.edges) for e in chain)


def test_find_loop_search_exhausted(klein_n3_cover, klein_n3_basis):
    with pytest.raises(SearchExhausted):
        find_slide_loop(klein_n3_cover, klein_n3_basis, 1, max_candidates=0)


def test_find_loop_deterministic(klein_n3_cover, klein_n3_basis):
    a = find_slide_loop(klein_n3_cover, klein_n3_basis, 2)
    b = find_slide_loop(klein_n3_cover, klein_n3_basis, 2)
    assert a == b


def test_candidate_entries_stay_within_cap():
    # the random phase doubles its entry bound each round, up to the cap
    m = 3
    prefix = m + 3 + 1  # unit vectors, then weight-2 and weight-3 supports
    rounds = 20  # 2**20 would exceed the cap many times over
    stream = mover._candidate_vectors(m, seed=0)
    randoms = list(islice(stream, prefix + rounds * mover._RANDOM_ROUND))[prefix:]
    assert max(abs(x) for c in randoms for x in c) == mover._MAX_RANDOM_BOUND


# --- move_vector -------------------------------------------------------------------


def test_move_trivial_rose(trivial_n3_cover):
    B = cycle_basis(trivial_n3_cover)
    cert = move_vector(trivial_n3_cover, B, [1, 0, 0])
    assert cert.petal == 1
    assert cert.ell == Word.from_string("a2")
    assert cert.increment == [0, 1, 0]  # class of a2
    assert cert.orbit_rank_value == 1
    # iterates v, v+inc, v+2inc are distinct
    seen = set()
    w = [1, 0, 0]
    for _ in range(3):
        seen.add(tuple(w))
        w = mat_vec(cert.matrix, w)
    assert len(seen) == 3


def test_move_zero_vector(klein_n3_cover, klein_n3_basis):
    with pytest.raises(ZeroVector):
        move_vector(klein_n3_cover, klein_n3_basis, [0] * klein_n3_basis.rank)


def test_move_rank_too_small(mod2_cover, mod2_basis):
    with pytest.raises(RankTooSmall):
        move_vector(mod2_cover, mod2_basis, unit_vector(5, 0))


def test_move_klein_n3_all_basis_vectors(klein_n3_cover, klein_n3_basis):
    Y, B = klein_n3_cover, klein_n3_basis
    cache = {}
    for k in range(B.rank):
        v = unit_vector(B.rank, k)
        cert = move_vector(Y, B, v, loop_cache=cache)
        assert cert.orbit_rank_value == 4
        assert cert.iterates_checked == 10
        assert verify_certificate(Y, B, v, cert).ok


def test_move_cyclic3_loop_edge_class(cyclic3_cover):
    Y = cyclic3_cover
    B = cycle_basis(Y)
    v = chain_to_class(B, chain_of_path(lift_word(Y, Word.from_string("a3"), 0)))
    cert = move_vector(Y, B, v)
    assert verify_certificate(Y, B, v, cert).ok
    assert cert.orbit_rank_value == 3


def test_move_poisoned_cache_raises_certificate_failed(klein_n3_cover, klein_n3_basis):
    Y, B = klein_n3_cover, klein_n3_basis
    v = unit_vector(B.rank, 0)
    j, _ = find_pairing_edge(Y, B, v)
    k = 2 if j == 1 else 1
    # a_k has order 2 in the Klein group: a_k.a_k closes, but its deck orbit
    # spans only 2 of the 4 dimensions
    poisoned = Word.generator(k) * Word.generator(k)
    assert orbit_rank_of_chain(Y, B, chain_of_path(lift_word(Y, poisoned, 0))) < 4
    with pytest.raises(CertificateFailed, match="property 3") as info:
        move_vector(Y, B, v, loop_cache={j: poisoned})
    assert "property 3" in info.value.failures


@pytest.mark.parametrize("depth", [0, -5, mover.MAX_ITERATE_DEPTH + 1])
def test_move_rejects_depth_out_of_range(cyclic3_cover, depth):
    B = cycle_basis(cyclic3_cover)
    with pytest.raises(ValueError, match="depth"):
        move_vector(cyclic3_cover, B, unit_vector(B.rank, 0), depth=depth)


def test_move_with_and_without_cache_identical(klein_n3_cover, klein_n3_basis):
    Y, B = klein_n3_cover, klein_n3_basis
    v = unit_vector(B.rank, 4)
    plain = move_vector(Y, B, v)
    cached = move_vector(Y, B, v, loop_cache={})
    assert plain == cached


def test_certificate_properties(klein_n3_cover, klein_n3_basis):
    Y, B = klein_n3_cover, klein_n3_basis
    v = unit_vector(B.rank, 0)
    cert = move_vector(Y, B, v)
    # property 1: loop avoids the slid petal
    assert all(i != cert.petal for i, _ in cert.ell)
    # property 2: lifts closed
    assert Y.image_of(cert.ell) == 0
    # property 3: full orbit rank
    assert cert.orbit_rank_value == Y.group.order
    assert not vec_is_zero(cert.increment)
    # pairing edge pairs with v
    assert class_to_chain(B, v).get(tuple(cert.pairing_edge), 0) != 0


# --- verify_certificate ---------------------------------------------------------------


def test_verify_rejects_tampered_ell(cyclic3_cover):
    Y = cyclic3_cover
    B = cycle_basis(Y)
    v = unit_vector(B.rank, 0)
    cert = move_vector(Y, B, v)
    bad = dataclasses.replace(cert, ell=Word.from_string("a2"))
    check = verify_certificate(Y, B, v, bad)
    assert not check
    assert "property 2" in check.failures


def test_verify_rejects_zero_increment(cyclic3_cover):
    Y = cyclic3_cover
    B = cycle_basis(Y)
    v = unit_vector(B.rank, 0)
    cert = move_vector(Y, B, v)
    bad = dataclasses.replace(cert, increment=[0] * B.rank)
    check = verify_certificate(Y, B, v, bad)
    assert not check
    assert "increment nonzero" in check.failures


def test_verify_rejects_petal_in_loop(klein_n3_cover, klein_n3_basis):
    Y, B = klein_n3_cover, klein_n3_basis
    v = unit_vector(B.rank, 0)
    cert = move_vector(Y, B, v)
    bad_word = Word.generator(cert.petal) * Word.generator(cert.petal, -1)
    bad = dataclasses.replace(cert, ell=cert.ell * bad_word)
    check = verify_certificate(Y, B, v, bad)
    assert not check
    assert "property 1" in check.failures


def test_verify_rejects_tampered_matrix(klein_n3_cover, klein_n3_basis):
    Y, B = klein_n3_cover, klein_n3_basis
    v = unit_vector(B.rank, 0)
    cert = move_vector(Y, B, v)
    matrix = [row[:] for row in cert.matrix]
    matrix[0][0] += 1
    bad = dataclasses.replace(cert, matrix=matrix)
    check = verify_certificate(Y, B, v, bad)
    assert not check
    assert "matrix vs formula" in check.failures



@pytest.mark.parametrize("x", ["0", None, [1], 1j])
def test_verify_rejects_non_real_entries_without_raising(klein_n3_cover, klein_n3_basis, x):
    """A certificate entry that is no real number fails the iterate check
    instead of being multiplied: ``"0"`` is truthy, and ``"0" * 1`` once
    reached ``int + str`` and raised TypeError."""
    Y, B = klein_n3_cover, klein_n3_basis
    v = unit_vector(B.rank, 0)
    cert = move_vector(Y, B, v)

    def put(row):
        for c in (0, 1, 6):
            row[c] = x
        return row

    for bad in (_with_row(cert, 0, put), _with_increment(cert, lambda inc: put(inc))):
        check = verify_certificate(Y, B, v, bad)
        assert not check
        assert "iterate closed form" in check.failures


@pytest.mark.parametrize(
    "name, value, failure",
    [
        ("pairing_edge", (0,), "pairing edge"),
        ("pairing_edge", 5, "pairing edge"),
        ("pairing_edge", ([0], 3), "pairing edge"),
        ("petal", "1", "property 1"),
        ("petal", None, "property 1"),
        ("iterates_checked", "10", "iterate closed form"),
        ("iterates_checked", 2.5, "iterate closed form"),
        ("ell_class", None, "loop class mismatch"),
        ("increment", None, "increment nonzero"),
        ("increment", 5, "increment nonzero"),
        ("matrix", None, "matrix vs formula"),
        ("matrix", [None] * 9, "matrix vs formula"),
        ("matrix", [5] * 9, "matrix vs formula"),
        ("ell", "a1", "property 1"),
        ("pairing_edge", (False, 3), "pairing edge"),
        ("orbit_rank_value", 4.0, "property 3"),
        ("iterates_checked", True, "iterate closed form"),
    ],
)
def test_verify_rejects_malformed_fields_without_raising(
    klein_n3_cover, klein_n3_basis, name, value, failure
):
    """A field of the wrong type, as a certificate rebuilt from JSON may
    carry, fails its named check; each of these once raised IndexError,
    TypeError or ValueError."""
    Y, B = klein_n3_cover, klein_n3_basis
    v = unit_vector(B.rank, 0)
    cert = move_vector(Y, B, v)
    assert cert.petal == 3  # the unhashable pairing edge names the right petal
    check = verify_certificate(Y, B, v, dataclasses.replace(cert, **{name: value}))
    assert not check
    assert failure in check.failures


def test_verify_rejects_wrong_orbit_rank_claim(klein_n3_cover, klein_n3_basis):
    Y, B = klein_n3_cover, klein_n3_basis
    v = unit_vector(B.rank, 1)
    cert = move_vector(Y, B, v)
    bad = dataclasses.replace(cert, orbit_rank_value=3)
    check = verify_certificate(Y, B, v, bad)
    assert not check
    assert "property 3" in check.failures


@pytest.mark.parametrize("depth", [0, -5, mover.MAX_ITERATE_DEPTH + 1])
def test_verify_rejects_depth_out_of_range(cyclic3_cover, depth):
    # zero or negative depth would check no iterate at all
    Y = cyclic3_cover
    B = cycle_basis(Y)
    v = unit_vector(B.rank, 0)
    bad = dataclasses.replace(move_vector(Y, B, v), iterates_checked=depth)
    check = verify_certificate(Y, B, v, bad)
    assert not check
    assert check.failures == ("iterate closed form",)


# --- certificate JSON ----------------------------------------------------------------


def test_certificate_json(klein_n3_cover, klein_n3_basis):
    Y, B = klein_n3_cover, klein_n3_basis
    v = unit_vector(B.rank, 0)
    cert = move_vector(Y, B, v)
    data = certificate_to_json(cert, Y)
    assert data["petal"] == cert.petal
    assert data["orbit_rank"] == 4
    assert data["cover"] == {"group_order": 4, "n": 3, "images": [1, 2, 0]}
    assert len(data["matrix"]) == B.rank
    assert Word.from_string(data["ell"]) == cert.ell


# --- iterate check against the dense loop ------------------------------------------------


def dense_mat_vec(a, v):
    """The dense ``mat_vec`` the verifier stepped before: zip over each row."""
    out = []
    for row in a:
        acc = 0
        for x, y in zip(row, v):
            if x != 0 and y != 0:
                acc += x * y
        out.append(acc)
    return out


def dense_iterate_failure(cert, v, *_unused):
    """The verifier's former iterate check: ``depth`` dense steps on v; it
    ignores the row nonzeros and the scaled v the verifier passes."""
    w = v
    seen = {tuple(w)}
    for d in range(1, cert.iterates_checked + 1):
        w = dense_mat_vec(cert.matrix, w)
        if w != [a + d * b for a, b in zip(v, cert.increment)]:
            return "iterate closed form"
        key = tuple(w)
        if key in seen:
            return "iterates distinct"
        seen.add(key)
    return None


def _with_row(cert, i, edit):
    matrix = [row[:] for row in cert.matrix]
    matrix[i] = edit(matrix[i])
    return dataclasses.replace(cert, matrix=matrix)


def _with_increment(cert, edit):
    return dataclasses.replace(cert, increment=edit(list(cert.increment)))


def _set(row, j, x):
    row[j] = x
    return row


def _second_step_only(cert, v):
    """The certificate with M + P for M, where P = e_0 phi^T and phi(v) = 0 !=
    phi(increment): M v = v + increment still holds but M increment !=
    increment, so the closed form fails at d = 2 and not before."""
    s = cert.increment
    k, m = next((k, m) for k in range(len(v)) for m in range(len(v)) if v[k] * s[m] != v[m] * s[k])
    return _with_row(cert, 0, lambda row: _set(_set(row, m, row[m] + v[k]), k, row[k] - v[m]))


def _tampered(cert, v=None):
    """(name, certificate) pairs: the certificate and tampered copies of it;
    with v, also copies whose first iterate is right for v and whose second is
    wrong."""
    r = len(cert.matrix)
    # a row the slide moves: it has an off-diagonal nonzero
    moved = next(i for i, row in enumerate(cert.matrix) if sum(map(bool, row)) > 1)
    out = [("as built", cert)]
    for i in (0, moved, r - 1):
        out += [
            (f"extra column in row {i}", _with_row(cert, i, lambda row: row + [7])),
            (f"short row {i}", _with_row(cert, i, lambda row: row[:-1])),
            (f"empty row {i}", _with_row(cert, i, lambda row: [])),
        ]
        for j in (0, moved, r - 1):
            wrong = _with_row(cert, i, lambda row: _set(row, j, row[j] + 1))
            out.append((f"entry ({i}, {j}) + 1", wrong))
    out += [
        ("fractional entry", _with_row(cert, moved, lambda row: _set(row, moved, Fraction(1, 2)))),
        ("increment halved", _with_increment(cert, lambda inc: [Fraction(x, 2) for x in inc])),
        ("increment short", _with_increment(cert, lambda inc: inc[:-1])),
        ("increment long", _with_increment(cert, lambda inc: inc + [1])),
        ("identity, zero increment", dataclasses.replace(
            cert, matrix=[[int(i == j) for j in range(r)] for i in range(r)], increment=[0] * r)),
    ]
    for k in (0, moved):
        for delta in (1, Fraction(1, 3)):
            wrong = _with_increment(cert, lambda inc: _set(inc, k, inc[k] + delta))
            out.append((f"increment[{k}] + {delta}", wrong))
    for depth in (1, mover.MAX_ITERATE_DEPTH):
        out.append((f"depth {depth}", dataclasses.replace(cert, iterates_checked=depth)))
    past_r = [0] * r + [1]
    out += [
        ("increment nonzero only past r", _with_increment(cert, lambda inc: past_r)),
        ("identity, increment nonzero only past r", dataclasses.replace(
            cert, matrix=[[int(i == j) for j in range(r)] for i in range(r)], increment=past_r)),
    ]
    if v is not None:
        second = _second_step_only(cert, v)
        out.append(("fails only at d = 2", second))
        for depth in (1, 2, 3, mover.MAX_ITERATE_DEPTH):
            wrong = dataclasses.replace(second, iterates_checked=depth)
            out.append((f"fails only at d = 2, depth {depth}", wrong))
    return out


@pytest.mark.parametrize(
    "v",
    [
        [1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, -2, 0, 0, 3, 0, 0, 0, 1],
        [Fraction(1, 2), 0, Fraction(-3, 4), 0, 0, 0, 0, 0, Fraction(7, 3)],
        [Fraction(2, 3), 1, 0, 0, 0, 0, 0, 0, 0],
    ],
    ids=["unit", "integer", "p/q", "mixed"],
)
def test_iterate_check_matches_dense_loop(klein_n3_cover, klein_n3_basis, monkeypatch, v):
    """On the certificate and tampered copies of it, the verifier returns
    exactly what it returned with the dense loop, and never raises."""
    Y, B = klein_n3_cover, klein_n3_basis
    cert = move_vector(Y, B, v)
    cases = [(name, c, v) for name, c in _tampered(cert, v)]
    new = [verify_certificate(Y, B, u, c) for _, c, u in cases]
    monkeypatch.setattr(mover, "_iterate_failure", dense_iterate_failure)
    for (name, c, u), got in zip(cases, new):
        assert got == verify_certificate(Y, B, u, c), name
    assert new[0].ok
    failures = {f for check in new for f in check.failures}
    assert {"iterate closed form", "iterates distinct"} <= failures


@pytest.mark.parametrize(
    "v",
    [[0, -2, 0, 0, 3, 0, 0, 0, 1], [Fraction(1, 2), 0, Fraction(-3, 4), 0, 0, 0, 0, 0, 3]],
    ids=["integer", "p/q"],
)
def test_two_products_find_a_failure_at_the_second_step(klein_n3_cover, klein_n3_basis, v):
    """M v = v + s with M s != s: the first iterate is right and the second is
    not, so the check passes at depth 1 and fails the closed form beyond, as
    the dense loop does."""
    Y, B = klein_n3_cover, klein_n3_basis
    second = _second_step_only(move_vector(Y, B, v), v)
    rows = mover._matrix_nonzeros(second.matrix, B.rank)[1]
    for depth in (1, 2, 3, mover.MAX_ITERATE_DEPTH):
        c = dataclasses.replace(second, iterates_checked=depth)
        got = mover._iterate_failure(c, v, rows, mover._scaled(v))
        assert got == (None if depth == 1 else "iterate closed form"), depth
        assert got == dense_iterate_failure(c, v), depth


def test_iterate_check_work_does_not_depend_on_depth(klein_n3_cover, klein_n3_basis, monkeypatch):
    """A certificate takes one row product at depth 1 and two at any depth >= 2."""
    Y, B = klein_n3_cover, klein_n3_basis
    v = [0, -2, 0, 0, 3, 0, 0, 0, 1]
    cert = move_vector(Y, B, v)
    calls = []
    row_products = mover._row_products

    def counted(rows, w):
        calls.append(len(rows))
        return row_products(rows, w)

    monkeypatch.setattr(mover, "_row_products", counted)
    counts = {}
    for depth in (1, 2, mover.MAX_ITERATE_DEPTH):
        calls.clear()
        assert verify_certificate(Y, B, v, dataclasses.replace(cert, iterates_checked=depth)).ok
        counts[depth] = len(calls)
    assert counts == {1: 1, 2: 2, mover.MAX_ITERATE_DEPTH: 2}


def _differential_covers():
    klein = builtin_group("elementary_abelian", 2, 2)
    s3 = builtin_group("symmetric", 3)
    covers = [
        make_cover(klein, (1, 2, 0)),
        make_cover(builtin_group("cyclic", 3), (1, 1, 0)),
        make_cover(s3, standard_images(s3, 3)),
    ]
    return [(Y, cycle_basis(Y), {}) for Y in covers]


DIFFERENTIAL_COVERS = _differential_covers()
rationals = st.one_of(
    st.integers(-6, 6), st.fractions(min_value=-6, max_value=6, max_denominator=12)
)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(DIFFERENTIAL_COVERS), st.data())
def test_integer_route_matches_fraction_route(cover, data):
    """move_vector computes v's cycle and the increment on den * v in ints;
    the increment equals the Fraction route's entry by entry, with the same
    text, and the certificate JSON has the same bytes."""
    Y, B, loop_cache = cover
    v = data.draw(st.lists(rationals, min_size=B.rank, max_size=B.rank))
    assume(any(v))
    cert = move_vector(Y, B, v, loop_cache=loop_cache)
    L = lifted_action_formula(make_slide(Y.n, cert.petal, cert.ell), Y, B)
    reference = slide_increment(L, class_to_chain(B, v))
    assert len(cert.increment) == len(reference)
    for got, want in zip(cert.increment, reference):
        assert got == want and str(got) == str(want)
    fraction_route = dataclasses.replace(cert, increment=reference)
    assert _dumps(certificate_to_json(cert, Y)) == _dumps(certificate_to_json(fraction_route, Y))
    assert verify_certificate(Y, B, v, fraction_route).ok


# --- matrix checks against the dense comparisons -----------------------------------


class DenseComparison:
    """Stands in for the certificate's column maps: ``!=`` against the
    formula's or the oracle's columns is the dense ``!=`` of rows the verifier
    made before, on the certificate's own matrix."""

    def __init__(self, matrix):
        self.matrix = matrix

    def __ne__(self, columns):
        return [[col.get(i, 0) for col in columns] for i in range(len(columns))] != self.matrix


def dense_matrix_nonzeros(matrix, r):
    """The former comparisons, and the former iterate rows (truthy entries)."""
    rows = [[(c, x) for c, x in enumerate(islice(row, r)) if x] for row in matrix]
    return DenseComparison(matrix), rows


def _more_tampered(cert):
    """Shapes and entry types the column scan must read as the dense
    comparison did."""
    moved = next(i for i, row in enumerate(cert.matrix) if sum(map(bool, row)) > 1)
    nonzero = next(k for k, x in enumerate(cert.matrix[moved]) if x)
    zero = next(k for k, x in enumerate(cert.matrix[moved]) if x == 0)
    last_zero = next(i for i, row in enumerate(cert.matrix) if row[-1] == 0)
    out = [
        ("extra zero column", dataclasses.replace(
            cert, matrix=[row + [0] for row in cert.matrix])),
        ("short row, a zero dropped", _with_row(cert, last_zero, lambda row: row[:-1])),
        ("missing row", dataclasses.replace(cert, matrix=[row[:] for row in cert.matrix[:-1]])),
        ("extra zero row", dataclasses.replace(
            cert, matrix=[row[:] for row in cert.matrix] + [[0] * len(cert.matrix)])),
        ("rows as tuples", dataclasses.replace(cert, matrix=[tuple(row) for row in cert.matrix])),
        ("matrix as a tuple", dataclasses.replace(cert, matrix=tuple(cert.matrix))),
    ]
    for x in (0.0, Fraction(2, 1)):
        for where, k in (("nonzero", nonzero), ("zero", zero)):
            out.append((f"{x!r} at a {where}", _with_row(cert, moved, lambda row: _set(row, k, x))))
    return out


@pytest.mark.parametrize(
    "v",
    [
        [1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, -2, 0, 0, 3, 0, 0, 0, 1],
        [Fraction(1, 2), 0, Fraction(-3, 4), 0, 0, 0, 0, 0, Fraction(7, 3)],
    ],
    ids=["unit", "integer", "p/q"],
)
def test_matrix_checks_match_dense_comparison(klein_n3_cover, klein_n3_basis, monkeypatch, v):
    """The column-map comparisons give the CertificateCheck the dense ``!=``
    gave, on the 31 tampered certificates and the new shapes and entries."""
    Y, B = klein_n3_cover, klein_n3_basis
    cert = move_vector(Y, B, v)
    cases = [(name, c, v) for name, c in _tampered(cert) + _more_tampered(cert)]
    new = [verify_certificate(Y, B, u, c) for _, c, u in cases]
    monkeypatch.setattr(mover, "_matrix_nonzeros", dense_matrix_nonzeros)
    for (name, c, u), got in zip(cases, new):
        assert got == verify_certificate(Y, B, u, c), name
    assert new[0].ok
    outcome = {name: got for (name, _, _), got in zip(cases, new)}
    for name in ("extra zero column", "short row, a zero dropped", "missing row", "extra zero row",
                 "rows as tuples", "matrix as a tuple"):
        assert {"matrix vs formula", "matrix vs oracle"} <= set(outcome[name].failures), name
    assert outcome["0.0 at a zero"].ok


# --- the exact contract --------------------------------------------------------------


def _inexact(cert):
    """(name, certificate, checks) triples: copies with a matrix or increment
    entry that is not an int or a Fraction, and the checks each must fail."""
    moved = next(i for i, row in enumerate(cert.matrix) if sum(map(bool, row)) > 1)
    nonzero = next(k for k, x in enumerate(cert.matrix[moved]) if x)
    zero = next(k for k, x in enumerate(cert.matrix[moved]) if x == 0)
    matrix_checks = {"matrix vs formula", "matrix vs oracle", "iterate closed form"}
    out = [
        ("float entries", _with_row(cert, moved, lambda row: [float(x) for x in row]),
         matrix_checks),
        ("increment as floats", _with_increment(cert, lambda inc: [float(x) for x in inc]),
         {"increment nonzero", "increment consistent", "iterate closed form"}),
    ]
    for x in (None, "0", 1.0):
        for where, k in (("nonzero", nonzero), ("zero", zero)):
            bad = _with_row(cert, moved, lambda row: _set(row, k, x))
            out.append((f"{x!r} at a {where}", bad, matrix_checks))
    return out


@pytest.mark.parametrize(
    "v",
    [
        [1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, -2, 0, 0, 3, 0, 0, 0, 1],
        [Fraction(1, 2), 0, Fraction(-3, 4), 0, 0, 0, 0, 0, Fraction(7, 3)],
    ],
    ids=["unit", "integer", "p/q"],
)
def test_inexact_entries_fail_by_name(klein_n3_cover, klein_n3_basis, v):
    """A float, None or str in the matrix or the increment fails every check
    that reads the field, by name, instead of being stepped through in
    floats; an entry equal to 0 is a zero whatever its type."""
    Y, B = klein_n3_cover, klein_n3_basis
    cert = move_vector(Y, B, v)
    for name, c, checks in _inexact(cert):
        assert checks <= set(verify_certificate(Y, B, v, c).failures), name


@pytest.mark.parametrize(
    "x", [0.5, 0.0, "1", True, 1j], ids=["float", "float zero", "str", "bool", "complex"]
)
def test_inexact_v_raises_value_error(klein_n3_cover, klein_n3_basis, x):
    """v is input, not certificate: like a bad depth, an entry of v that is
    not an int or a Fraction is refused by index and type."""
    Y, B = klein_n3_cover, klein_n3_basis
    v = [0, 1, 0, 0, 0, 0, 0, 0, 0]
    cert = move_vector(Y, B, v)
    bad = v[:4] + [x] + v[5:]
    message = rf"^v\[4\] is a {type(x).__name__}, not an int or a Fraction$"
    with pytest.raises(ValueError, match=message):
        move_vector(Y, B, bad)
    with pytest.raises(ValueError, match=message):
        verify_certificate(Y, B, bad, cert)
    # once refused only at its own self-check, as "iterate closed form"
    with pytest.raises(ValueError, match=r"^v\[0\] is a float"):
        move_vector(Y, B, [0.1] * 9)


ODD_ENTRIES = st.sampled_from([None, 5, "0", 0.5, 1.0, True, []])


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["ell_class", "increment", "row", "matrix"]),
    ODD_ENTRIES | st.lists(ODD_ENTRIES, max_size=10),
    st.integers(0, 8),
)
def test_odd_field_fails_by_name(field, value, i):
    """The elementary_abelian:2,2 certificate with ell_class, the increment,
    matrix row i or the whole matrix replaced by an odd value, or a list of
    them, fails the check that reads the field, and nothing raises."""
    Y, B, loop_cache = DIFFERENTIAL_COVERS[0]
    v = [1, 0, 0, 0, 0, 0, 0, 0, 0]
    cert = move_vector(Y, B, v, loop_cache=loop_cache)
    if field == "row":
        bad = _with_row(cert, i, lambda row: value)
    else:
        bad = dataclasses.replace(cert, **{field: value})
    named = {"ell_class": "loop class mismatch", "increment": "increment consistent"}
    assert named.get(field, "matrix vs formula") in verify_certificate(Y, B, v, bad).failures


# --- the per-basis slide memo --------------------------------------------------------


def _loop_tampered(Y, cert):
    """Certificates whose loop-level fields are wrong: they meet the memo
    with another loop, another petal, or the memo's own loop and wrong
    claimed values."""
    j = cert.petal
    other = next(i for i in range(1, Y.n + 1) if i != j)
    return [
        ("ell squared", dataclasses.replace(cert, ell=cert.ell * cert.ell)),
        ("ell_class + 1", dataclasses.replace(
            cert, ell_class=[x + 1 for x in cert.ell_class])),
        ("orbit rank 3", dataclasses.replace(cert, orbit_rank_value=3)),
        ("loop through the petal", dataclasses.replace(
            cert, ell=cert.ell * Word.generator(j) * Word.generator(j, -1))),
        ("open loop", dataclasses.replace(cert, ell=Word.generator(other))),
        ("other petal", dataclasses.replace(cert, petal=other)),
        ("petal 0", dataclasses.replace(cert, petal=0)),
        ("pairing edge moved", dataclasses.replace(
            cert, pairing_edge=(cert.pairing_edge[0], other))),
    ]


@pytest.mark.parametrize(
    "v",
    [[1, 0, 0, 0, 0, 0, 0, 0, 0], [Fraction(1, 2), 0, Fraction(-3, 4), 0, 0, 0, 0, 0, 3]],
    ids=["unit", "p/q"],
)
def test_warm_basis_checks_like_a_fresh_one(klein_n3_cover, v):
    """Every tampered certificate gets the same CertificateCheck on one basis
    whose memo the earlier cases filled as on a fresh basis per case; the
    memo is replaced, never trusted, when a case brings another loop or
    petal."""
    Y = klein_n3_cover
    warm = cycle_basis(Y)
    cert = move_vector(Y, warm, v)
    cases = _tampered(cert) + _more_tampered(cert) + _loop_tampered(Y, cert)
    cases += [(name, c) for name, c, _ in _inexact(cert)] + [("as built again", cert)]
    for name, c in cases:
        got = verify_certificate(Y, warm, v, c)
        assert got == verify_certificate(Y, cycle_basis(Y), v, c), name
    outcome = {name: verify_certificate(Y, cycle_basis(Y), v, c) for name, c in cases}
    assert outcome["as built again"].ok
    assert "loop class mismatch" in outcome["ell squared"].failures
    assert "loop class mismatch" in outcome["ell_class + 1"].failures
    assert "property 3" in outcome["orbit rank 3"].failures
    assert "property 1" in outcome["loop through the petal"].failures


def test_mutating_a_certificate_leaves_the_memo_alone(klein_n3_cover):
    Y = klein_n3_cover
    B = cycle_basis(Y)
    v = unit_vector(B.rank, 0)
    cert = move_vector(Y, B, v)
    kept = dataclasses.replace(
        cert,
        ell_class=list(cert.ell_class),
        increment=list(cert.increment),
        matrix=[row[:] for row in cert.matrix],
    )
    moved = next(i for i, row in enumerate(cert.matrix) if sum(map(bool, row)) > 1)
    cert.ell_class[0] += 1
    cert.increment[moved] += 5
    cert.matrix[moved][0] += 1
    cert.matrix[0].append(3)
    assert move_vector(Y, B, v) == kept
    assert verify_certificate(Y, B, v, kept).ok
    fresh = cycle_basis(Y)
    assert verify_certificate(Y, B, v, cert) == verify_certificate(Y, fresh, v, cert)
    assert move_vector(Y, B, v) == move_vector(Y, fresh, v)


def test_memo_computes_each_slide_once_per_basis(klein_n3_cover, monkeypatch):
    """Many moves and re-checks on one basis run the formula, the oracle and
    the loop's orbit rank once per petal; a second cover object, even an
    equal one, never reads the first one's entry."""
    Y = klein_n3_cover
    B = cycle_basis(Y)
    calls = {"formula": 0, "oracle": 0, "rank": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(mover, "lifted_action_formula", counted("formula", mover.lifted_action_formula))
    monkeypatch.setattr(mover, "lifted_action_oracle", counted("oracle", mover.lifted_action_oracle))
    monkeypatch.setattr(mover, "orbit_rank_of_chain", counted("rank", mover.orbit_rank_of_chain))
    cache: dict = {}
    certs = []
    for k in range(B.rank):
        v = unit_vector(B.rank, k)
        cert = move_vector(Y, B, v, loop_cache=cache)
        assert verify_certificate(Y, B, v, cert).ok
        certs.append((v, cert))
    assert calls["formula"] == calls["oracle"] == len(B.slide_memo) == len(cache)
    before = dict(calls)
    for v, cert in certs:
        assert verify_certificate(Y, B, v, cert).ok
    assert calls == before

    twin = make_cover(Y.group, Y.images)
    assert twin == Y and twin is not Y
    v, cert = certs[0]
    assert verify_certificate(twin, B, v, cert).ok
    assert calls["formula"] == before["formula"] + 1
    assert B.slide_memo[cert.petal][0].cover is twin


@pytest.mark.parametrize("spec", ["dihedral:4", "symmetric:4", "elementary_abelian:2,3"])
def test_property_three_reads_the_search_rank(spec, monkeypatch):
    """The loop the search accepts is ranked once: the slide's orbit rank
    for property 3 is the basis's memo of the search's last answer."""
    G = builtin_group_from_string(spec)
    Y = make_cover(G, standard_images(G, 3))
    B = cycle_basis(Y)
    calls = {"rank": 0, "split": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(mover, "orbit_rank_of_chain", counted("rank", mover.orbit_rank_of_chain))
    monkeypatch.setattr(homology, "_split_rank", counted("split", homology._split_rank))
    cert = move_vector(Y, B, unit_vector(B.rank, B.rank - 1))
    assert cert.orbit_rank_value == G.order
    assert calls["split"] == calls["rank"] - 1 >= 1


def test_basis_is_freed_by_reference_counting(klein_n3_cover):
    Y = klein_n3_cover
    B = cycle_basis(Y)
    v = unit_vector(B.rank, 0)
    cert = move_vector(Y, B, v)
    assert verify_certificate(Y, B, v, cert).ok
    assert B.slide_memo
    ref = weakref.ref(B)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del B
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_certificate_json_same_cold_and_warm(klein_n3_cover):
    Y = klein_n3_cover
    warm = cycle_basis(Y)
    cache: dict = {}
    vectors = [unit_vector(warm.rank, k) for k in range(warm.rank)]
    vectors.append([Fraction(1, 2), 0, Fraction(-3, 4), 0, 0, 0, 0, 0, 3])

    def text(B, v, loop_cache=None):
        cert = move_vector(Y, B, v, loop_cache=loop_cache)
        return json.dumps(certificate_to_json(cert, Y), indent=2, sort_keys=True)

    for v in vectors:
        text(warm, v, cache)
    for v in vectors:
        assert text(warm, v, cache) == text(cycle_basis(Y), v), v


def test_memo_keeps_an_oracle_that_disagrees(klein_n3_cover, monkeypatch):
    """When the oracle's columns differ from the formula's, the memo keeps
    them and every later check on the basis fails "matrix vs oracle"."""
    Y = klein_n3_cover
    v = unit_vector(9, 0)
    cert = move_vector(Y, cycle_basis(Y), v)
    oracle = mover.lifted_action_oracle

    def wrong_oracle(s, Y, B):
        columns = oracle(s, Y, B)
        columns[0][0] = columns[0].get(0, 0) + 1
        return columns

    monkeypatch.setattr(mover, "lifted_action_oracle", wrong_oracle)
    B = cycle_basis(Y)
    for _ in range(2):
        check = verify_certificate(Y, B, v, cert)
        assert check.failures == ("matrix vs oracle",)
    with pytest.raises(CertificateFailed, match="matrix vs oracle"):
        move_vector(Y, B, v)
