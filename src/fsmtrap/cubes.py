"""Cube algebra over named binary variables.

A cube is a partial assignment (dict var -> 0/1) and denotes the conjunction
of its literals; the empty cube is the universal function.  Covers are lists
of cubes.  Subtraction produces pairwise-disjoint cubes, which is what the
synthesizer relies on when compiling transition priority and hold conditions.
"""

from __future__ import annotations

from typing import Mapping, Sequence

Cube = dict


def cubes_overlap(a: Mapping[str, int], b: Mapping[str, int]) -> bool:
    small, big = (a, b) if len(a) <= len(b) else (b, a)
    for var, val in small.items():
        if var in big and big[var] != val:
            return False
    return True


def cube_subtract(
    a: Mapping[str, int], b: Mapping[str, int], var_order: Sequence[str]
) -> list[Cube]:
    """a AND NOT b as a list of pairwise-disjoint cubes."""
    if not cubes_overlap(a, b):
        return [dict(a)]
    pieces: list[Cube] = []
    cur = dict(a)
    for var in var_order:
        if var not in b or var in a:
            continue
        piece = dict(cur)
        piece[var] = 1 - b[var]
        pieces.append(piece)
        cur[var] = b[var]
    # If b binds nothing beyond a, 'a' is fully covered by b: no pieces.
    return pieces


def cover_subtract(
    cover: Sequence[Mapping[str, int]],
    minus: Sequence[Mapping[str, int]],
    var_order: Sequence[str],
) -> list[Cube]:
    result = [dict(c) for c in cover]
    for b in minus:
        nxt: list[Cube] = []
        for c in result:
            nxt.extend(cube_subtract(c, b, var_order))
        result = nxt
    return result


def cover_complement(
    cover: Sequence[Mapping[str, int]], var_order: Sequence[str]
) -> list[Cube]:
    """Complement of a cover over the given variables, as disjoint cubes."""
    return cover_subtract([{}], cover, var_order)


def cover_minterms(
    cover: Sequence[Mapping[str, int]], var_order: Sequence[str]
) -> frozenset:
    """Exact minterm set of a cover; var space must be small (<= ~16 vars)."""
    n = len(var_order)
    terms: set[int] = set()
    for cube in cover:
        fixed = 0
        free = 0
        for i, var in enumerate(var_order):
            bit = 1 << (n - 1 - i)
            if var not in cube:
                free |= bit
            elif cube[var]:
                fixed |= bit
        # Every submask of ``free``, from ``free`` itself down to 0.
        sub = free
        while True:
            terms.add(fixed | sub)
            if not sub:
                break
            sub = (sub - 1) & free
    return frozenset(terms)
