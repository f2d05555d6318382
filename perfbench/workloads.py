"""Seeded workloads: each is a list of veropinch CLI invocations ("ops").

Every workload draws its ops from a fixed, finite universe whose stdout
digests are recorded in ``digests.json``, so any seed yields ops whose output
can be checked.  Every seed yields the same number of ops with the same cost
structure; the seed only chooses among inputs of comparable cost.
"""

from __future__ import annotations

import itertools
import random

Op = tuple[str, ...]

JSON = ("--format", "json")

# The README's oracle sweeps.  Dense bottom-up layer enumeration
# (membership._layer_codes through gapset.gap_set_bruteforce) does most of
# the work; this is the only workload that reaches classify.quotient_basis
# and the brute-force multipinch path.
SWEEP: tuple[Op, ...] = (
    ("verify", "--n", "2..4", "--d", "2..5", "--tmax", "6", *JSON),
    ("verify", "--socle", "--d", "3..8", *JSON),
    ("verify", "--frobenius", "--n", "2..3", "--d", "2..4", "--chars", "2,3,5", *JSON),
)

# Multipinch: n=4 removal sets of generators with max < d-1.  The
# coordinate-box loop in gapset.multipinch_gap_set issues ~420k shallow
# is_member calls at d=4 whatever the removal set, and ~4k at d=3.
MULTIPINCH_N = 4
MULTIPINCH_CHARS = "2,3,5"
MULTIPINCH_D4_BASES = (
    ((2, 1, 1, 0),),
    ((2, 1, 1, 0), (1, 1, 2, 0)),
    ((2, 2, 0, 0), (1, 1, 1, 1)),
)
MULTIPINCH_PER_PASS = {4: 2, 3: 3}

# High characteristic: line-family single pinches (max(m) = d-1) traced at
# primes from 9001..9973; every image p*v is a deep memoized DFS.
HIGH_CHAR_PINCHES = ((2, 4, (3, 1)), (3, 4, (3, 1, 0)), (4, 3, (2, 1, 0, 0)))
HIGH_CHAR_BAND = (9001, 9973)


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % k for k in range(2, int(p**0.5) + 1))


def high_char_primes() -> tuple[int, ...]:
    """Every second prime p = 1 (mod 12) of the band: 14 primes spread over it.

    The residue of p mod d sets the DFS cost: at d=3 the primes p = 2 (mod 3)
    cost half as much as p = 1 (mod 3).  One residue class mod 3 and mod 4
    keeps the cost of a pass independent of the seed, and few enough primes
    keep the digest of every reachable op recorded.
    """
    lo, hi = HIGH_CHAR_BAND
    band = [p for p in range(lo, hi + 1) if p % 12 == 1 and _is_prime(p)]
    return tuple(band[::2])


def _vec(v) -> str:
    return ",".join(str(c) for c in v)


def _axis_images(vectors, n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Distinct removal sets obtained by permuting the axes of ``vectors``."""
    return sorted(
        {tuple(sorted(tuple(v[i] for i in perm) for v in vectors)) for perm in itertools.permutations(range(n))}
    )


def _line_axis_images(m: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Axis permutations of a line pinch that keep its d-1 entry on the first axis.

    membership tries generators in descending lexicographic order, so where
    the d-1 entry sits decides the DFS cost: with the 1 before it the DFS
    needs 3-5x as many memo entries, and each zero axis before it adds about
    a third to the search.  Holding it on the first axis keeps the cost of a
    pass independent of the seed.
    """
    return sorted(v for v in set(itertools.permutations(m)) if v[0] == max(m))


def multipinch_removals(d: int) -> list[tuple[tuple[int, ...], ...]]:
    if d == 3:  # every nonempty subset of the four (1,1,1,0) permutations
        small = sorted(set(itertools.permutations((1, 1, 1, 0))))
        return [s for k in range(1, len(small) + 1) for s in itertools.combinations(small, k)]
    return sorted({s for base in MULTIPINCH_D4_BASES for s in _axis_images(base, MULTIPINCH_N)})


def multipinch_op(d: int, removal) -> Op:
    removes = [arg for v in removal for arg in ("--remove", _vec(v))]
    return (
        "analyze", "--n", str(MULTIPINCH_N), "--d", str(d), *removes,
        "--multipinch", "--char", MULTIPINCH_CHARS, *JSON,
    )


def high_char_op(n: int, d: int, m: tuple[int, ...], p: int) -> Op:
    return ("analyze", "--n", str(n), "--d", str(d), "--pinch", _vec(m), "--char", str(p), *JSON)


def universe(workload: str) -> list[Op]:
    """Every op any seed can produce for ``workload``."""
    if workload == "sweep":
        return list(SWEEP)
    if workload == "multipinch":
        return [multipinch_op(d, r) for d in sorted(MULTIPINCH_PER_PASS) for r in multipinch_removals(d)]
    if workload == "high-char":
        return [
            high_char_op(n, d, v, p)
            for n, d, m in HIGH_CHAR_PINCHES
            for v in _line_axis_images(m)
            for p in high_char_primes()
        ]
    raise ValueError(f"unknown workload {workload!r}")


def ops(workload: str, seed: int) -> list[Op]:
    """The ops of one pass over ``workload``; the same seed gives the same ops."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        return list(SWEEP)
    if workload == "multipinch":
        return [
            multipinch_op(d, r)
            for d, k in MULTIPINCH_PER_PASS.items()
            for r in rng.sample(multipinch_removals(d), k)
        ]
    if workload == "high-char":
        primes = high_char_primes()
        return [
            high_char_op(n, d, rng.choice(_line_axis_images(m)), rng.choice(primes))
            for n, d, m in HIGH_CHAR_PINCHES
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("sweep", "multipinch", "high-char")


def key(op: Op) -> str:
    """The digest table's key for an op."""
    return " ".join(op)
