"""Seeded request generators for the coverslide benchmark.

Every request list is a pure function of the workload name and the seed and
uses no coverslide code, so two commits of the program receive identical
inputs.  Class vectors are given in fundamental-cycle coordinates of the
cover's H1, whose rank is ``(n - 1) * |G| + 1``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# Group orders of the builtin specs the workloads use.
GROUP_ORDER = {
    "cyclic:128": 128,
    "dihedral:32": 64,
    "symmetric:5": 120,
    "symmetric:4": 24,
    "elementary_abelian:2,4": 16,
    "elementary_abelian:2,5": 32,
}

# Covers each workload cycles through, in order.  A run always measures whole
# cycles, so every run has the same mix of covers and class kinds.  On the
# ``cli`` workload the three n=3 covers stress the orbit rank of large deck
# groups and the (Z/2)^5 n=5 cover stresses standard_images and the loop
# search; the verify-cw covers stress the isotypic projectors and MB-sized
# JSON output.  verify-cw on (Z/2)^5 is left out: at ~4 s a request it would
# fill a third of every cycle and leave too few cycles in a run to average
# over the host's speed changes.
MOVE_COVERS = (
    ("cyclic:128", 3),
    ("dihedral:32", 3),
    ("symmetric:5", 3),
    ("elementary_abelian:2,5", 5),
)
CW_COVERS = (
    ("elementary_abelian:2,4", 5),
    ("elementary_abelian:2,4", 6),
)
BATCH_COVER = ("symmetric:4", 4)

# Class kinds, in the order each cover sees them.
MOVE_KINDS = ("sparse", "dense")
BATCH_KINDS = ("sparse", "dense", "sparse-frac", "dense-frac")


@dataclass(frozen=True)
class Request:
    """One unit of work: a CLI argv, or a class vector for the library API."""

    group: str
    n: int
    argv: tuple[str, ...] = ()
    vector: tuple = ()
    images: tuple[int, ...] = ()

    @property
    def label(self) -> str:
        return f"{self.group} n={self.n}"


def h1_rank(group: str, n: int) -> int:
    return (n - 1) * GROUP_ORDER[group] + 1


def _nonzero(rng: random.Random, fractional: bool) -> int | Fraction:
    p = rng.choice((-3, -2, -1, 1, 2, 3))
    return Fraction(p, rng.choice((2, 3))) if fractional else p


def class_vector(rng: random.Random, rank: int, kind: str) -> list:
    """A nonzero class: ``sparse`` has 1-3 nonzero coordinates, ``dense``
    draws every coordinate from [-3, 3]; a ``-frac`` kind makes the nonzero
    entries p/q with q in {2, 3}."""
    fractional = kind.endswith("-frac")
    v: list = [0] * rank
    if kind.startswith("sparse"):
        for k in rng.sample(range(rank), rng.randint(1, 3)):
            v[k] = _nonzero(rng, fractional)
        return v
    for k in range(rank):
        if rng.random() < 6 / 7:
            v[k] = _nonzero(rng, fractional)
    if not any(v):
        v[rng.randrange(rank)] = _nonzero(rng, fractional)
    return v


def vector_csv(v) -> str:
    return ",".join(str(x) for x in v)


def _move_request(rng: random.Random, group: str, n: int, kind: str) -> Request:
    v = class_vector(rng, h1_rank(group, n), kind)
    # "--vector=<csv>": argparse reads a bare "-1,0,..." as an option flag
    argv = ("move", "--json", "--group", group, "--n", str(n), f"--vector={vector_csv(v)}")
    return Request(group=group, n=n, argv=argv, vector=tuple(v))


def generating_images(rng: random.Random, k: int, n: int) -> tuple[int, ...]:
    """n elements of (Z/2)^k that generate it.  Elements of the builtin
    ``elementary_abelian:2,k`` are bit vectors and the group law is XOR."""
    while True:
        images = tuple(rng.randrange(2**k) for _ in range(n))
        basis: list[int] = []
        for x in images:
            for b in basis:
                x = min(x, x ^ b)
            if x:
                basis.append(x)
        if len(basis) == k:
            return images


def cycle(workload: str, rng: random.Random) -> list[Request]:
    """One whole cycle of the workload's requests, drawn from ``rng``."""
    if workload == "cli":
        out = [
            _move_request(rng, group, n, kind)
            for kind in MOVE_KINDS
            for group, n in MOVE_COVERS
        ]
        for group, n in CW_COVERS:
            k = GROUP_ORDER[group].bit_length() - 1
            images = generating_images(rng, k, n)
            argv = (
                "verify-cw", "--json", "--group", group,
                "--images", ",".join(map(str, images)),
            )
            out.append(Request(group=group, n=n, argv=argv, images=images))
        return out
    if workload == "move-batch":
        group, n = BATCH_COVER
        return [
            Request(group=group, n=n, vector=tuple(class_vector(rng, h1_rank(group, n), kind)))
            for kind in BATCH_KINDS
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("cli", "move-batch")


def request_stream(workload: str, seed: int):
    """Endless sequence of whole cycles for this workload and seed."""
    rng = random.Random(f"{workload}/{seed}")
    while True:
        yield cycle(workload, rng)
