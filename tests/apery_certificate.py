"""A certificate that a set of vectors is a spec's whole Apéry set, in every degree.

Let S be the spec's semigroup, P = {d*e_1, ..., d*e_n} its pure powers (a
spec keeps them all unless it is a ``SATURATED`` pinch, which has no finite
Apéry set) and Ap = {s in S : s - p is not in S for every p in P}.  Call
u = v (mod d) when they agree mod d on every axis.  A finite set A is Ap
when these four conditions hold:

1. 0 is in A;
2. every a in A is in S, shown by a witness: kept generators summing to a;
3. for every a in A and every kept generator g other than a pure power,
   some a' in A with a' = a + g (mod d) has a' <= a + g;
4. the elements of A that are equal mod d are pairwise incomparable.

Proof.  Let U = A + N*P, the vectors a + d*x with a in A and x in N^n.
U lies in S by 2, and holds 0 by 1.  It is closed under adding a kept
generator g: a pure power takes a + d*x to a + d*(x + e_i), and any other
g takes it to a' + (a + g - a') + d*x with a' from 3, where a + g - a' is
nonnegative and 0 mod d on every axis, so lies in N*P.  Every element of S
is 0 plus kept generators, so S = U.  Now let s be in Ap.  Then s = a + d*x
with a in A, and x = 0, for otherwise s - d*e_i is in U = S for some
x_i > 0.  So Ap lies in A.  Conversely, let a be in A, and suppose a - p
is in S for some p in P.  Then a - p = a' + d*x with a' in A, so a' <= a - p,
and a' differs from a but is equal to it mod d, which 4 forbids.  So A
lies in Ap.

Nothing here reads the layer walk that builds the Apéry set: the conditions
read only the spec's generators and A, and a witness from
:func:`veropinch.decompose` counts only once its sum is checked here.
"""

import itertools
import operator

from veropinch import decompose


def certificate_failures(spec, elements):
    """The conditions of the module docstring that ``elements`` break, one line each; [] certifies them."""
    n, d, gens = spec.n, spec.d, spec.generators()
    elements = [tuple(a) for a in elements]
    classes = {}
    for a in elements:
        classes.setdefault(tuple(c % d for c in a), []).append(a)
    failures = [] if (0,) * n in elements else ["1: 0 is missing"]
    for a in elements:
        witness = decompose(a, spec)
        parts = () if witness is None else witness.parts
        total = [sum(column) for column in zip(*parts, (0,) * n)]
        if witness is None or not set(parts) <= set(gens) or tuple(total) != a:
            failures.append(f"2: no witness that {a} is in S")
    for a, g in itertools.product(elements, gens):
        u = tuple(map(operator.add, a, g))
        if d not in g and not any(all(map(operator.le, b, u)) for b in classes.get(tuple(c % d for c in u), ())):
            failures.append(f"3: no element of the class of {a} + {tuple(g)} lies below it")
    for found in classes.values():
        for b, c in itertools.combinations(found, 2):
            if all(map(operator.le, b, c)) or all(map(operator.le, c, b)):
                failures.append(f"4: {b} and {c} are comparable")
    return failures
