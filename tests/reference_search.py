"""A membership oracle for the tests that shares nothing with the layer walk.

Plain memoized recursion on the definition: zero is a member, and so is any
point from which some generator can be subtracted to reach a member.
"""

import functools


@functools.lru_cache(maxsize=None)
def _search(spec):
    gens = spec.generators()

    @functools.lru_cache(maxsize=None)
    def member(point):
        return not any(point) or any(
            min(rest) >= 0 and member(rest)
            for rest in (tuple(a - b for a, b in zip(point, g)) for g in gens)
        )

    return member


def reference_member(point, spec):
    """True iff ``point`` is a sum of the spec's generators."""
    return sum(point) % spec.d == 0 and _search(spec)(tuple(point))
