"""Moving a homology class on an infinite orbit, end to end.

Pick a cover of a 3-petal rose and any nonzero rational homology class.
This script finds an edge slide whose lift provably sends the class on an
infinite orbit, then walks through every field of the certificate.

Run:  python demos/moving_a_class.py
"""

import json

from coverslide import (
    builtin_group,
    certificate_to_json,
    cycle_basis,
    make_cover,
    move_vector,
    verify_certificate,
)
from coverslide.linalg import mat_vec

G = builtin_group("elementary_abelian", 2, 2)
Y = make_cover(G, (1, 2, 0))  # third petal maps to the identity: four loop edges
B = cycle_basis(Y)

print(f"cover: |G| = {G.order}, n = {Y.n}, rank H1 = {B.rank}")

v = [0] * B.rank
v[0] = 1
print(f"class to move: first basis vector, v = {v}")
print()

cert = move_vector(Y, B, v)

print("== The certificate ==")
print(f"slid petal:      a{cert.petal}")
print(f"slide loop:      {cert.ell.to_string()}")
print(f"  (avoids a{cert.petal}, maps to the group identity, and stays in the")
print(f"   identity component of the cover minus the a{cert.petal}-edges)")
print(f"pairing edge:    {tuple(cert.pairing_edge)} carries a nonzero coefficient of v")
print(f"orbit rank:      {cert.orbit_rank_value} = |G|, so the deck translates of the")
print("                 lifted loop's class are linearly independent")
print(f"increment:       {[str(c) for c in cert.increment]}")
print()

print("== Iterates F^d(v) = v + d * increment ==")
w = list(v)
for d in range(5):
    print(f"  d={d}: {[str(c) for c in w]}")
    w = mat_vec(cert.matrix, w)
print("  ... pairwise distinct for every d, hence an infinite orbit")
print()

check = verify_certificate(Y, B, v, cert)
print(f"independent re-verification: ok = {check.ok}")
print()
print("certificate JSON (as written by the CLI):")
print(json.dumps(certificate_to_json(cert, Y), indent=2, sort_keys=True)[:400] + " ...")
