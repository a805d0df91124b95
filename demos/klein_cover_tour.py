"""Tour of the smallest interesting cover: the mod-2 homology cover.

The 2-petal rose (figure eight) has a 4-fold normal cover with deck group
Z/2 x Z/2, obtained by killing first homology mod 2.  This script builds it,
decomposes its rational homology under the deck action, and locates every
irreducible piece with explicit loops.

Run:  python demos/klein_cover_tour.py
"""

from fractions import Fraction

from coverslide import (
    Word,
    builtin_group,
    chain_of_path,
    chain_to_class,
    commutator_lift_check,
    cycle_basis,
    deck_action_matrix,
    elevation_class,
    elevation_rank_obstruction,
    isotypic_decomposition,
    lift_word,
    make_cover,
    orbit_rank,
    to_dot,
    verify_chevalley_weil,
)
from coverslide.linalg import mat_vec, vec_scale, vec_sub

G = builtin_group("elementary_abelian", 2, 2)
Y = make_cover(G, (1, 2))  # q(a1) = (1,0), q(a2) = (0,1)
B = cycle_basis(Y)

print("== The cover ==")
print(f"deck group of order {G.order}, elements labeled {G.labels}")
print(f"vertices: {Y.vertex_count}, edges: {Y.edge_count}, rank H1 = {B.rank}")
print("(DOT export available via to_dot; first lines:)")
print("\n".join(to_dot(Y).splitlines()[:3]))
print()

print("== Character of the deck action ==")
report = verify_chevalley_weil(Y, B)
for g, t in report.traces.items():
    print(f"  trace at {G.labels[g]}: {t}")
print(f"matches (n-1)|G|+1 at the identity and 1 elsewhere: {report.verdict}")
print()

print("== Isotypic decomposition ==")
iso = isotypic_decomposition(Y, B)
for chi in iso.characters:
    values = ", ".join(f"{G.labels[g]}:{chi[g]:+d}" for g in G.elements())
    print(f"  character ({values})  ->  dimension {iso.dims[chi]}")
print()


def lift_class(text):
    return chain_to_class(B, chain_of_path(lift_word(Y, Word.from_string(text), 0)))


rho = {g: deck_action_matrix(Y, B, g) for g in G.elements()}
qa, qb = 1, 2

print("== Explicit eigenvectors ==")
A = lift_class("a1.a1")  # lift of a^2 at the identity vertex
Bcls = lift_class("a2.a2")
x_a = vec_sub(A, mat_vec(rho[qb], A))
x_b = vec_sub(Bcls, mat_vec(rho[qa], Bcls))
print(f"A - q(b)A = {[str(c) for c in x_a]}")
print(f"  fixed by q(a): {mat_vec(rho[qa], x_a) == x_a}, negated by q(b): {mat_vec(rho[qb], x_a) == vec_scale(-1, x_a)}")
print(f"B - q(a)B = {[str(c) for c in x_b]}")
print(f"  negated by q(a): {mat_vec(rho[qa], x_b) == vec_scale(-1, x_b)}, fixed by q(b): {mat_vec(rho[qb], x_b) == x_b}")

C = elevation_class(Y, B, Word.from_string("a1.a2"), 0)
C_prime = elevation_class(Y, B, Word.from_string("a2.a1"), 0)
x_ab = vec_sub(C, C_prime)
print(f"elev(ab) - elev(ba) = {[str(c) for c in x_ab]}")
print(f"  negated by both generators: "
      f"{mat_vec(rho[qa], x_ab) == vec_scale(-1, x_ab) and mat_vec(rho[qb], x_ab) == vec_scale(-1, x_ab)}")

t1 = [a + b for a, b in zip(A, mat_vec(rho[qb], A))]
t2 = [a + b for a, b in zip(Bcls, mat_vec(rho[qa], Bcls))]
print(f"invariant transfer vectors: A + q(b)A and B + q(a)B "
      f"(invariant: {all(mat_vec(rho[g], t1) == t1 and mat_vec(rho[g], t2) == t2 for g in G.elements())})")
print()

print("== A class with a full regular orbit ==")
x = lift_class("a1.a1.a1.a2^-1.a1.a2")  # lift of a^3 b^-1 a b
print(f"orbit rank of the lift of a^3 b^-1 a b: {orbit_rank(Y, B, x)} (= |G|)")
print()

print("== Why single loops cannot do this ==")
for text in ("a1", "a2", "a1.a2"):
    rep = elevation_rank_obstruction(Y, B, Word.from_string(text))
    print(f"  loop {text}: preimage has {rep.component_count} < {G.order} components, "
          f"elevation orbit rank {rep.orbit_rank} -> obstructed = {rep.obstructed}")
comm = commutator_lift_check(Y, B)
print(f"commutator [a1, a2]: lifts closed = {comm.lifts}, lift is homologically "
      f"nontrivial = {comm.class_nonzero}")
print("(its conjugacy class is preserved by every rank-2 homotopy equivalence,")
print(" which is why 2-petal roses admit classes with finite orbits)")
