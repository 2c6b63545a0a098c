import random

import pytest

from fsmtrap.cubes import cover_minterms


def _reference_minterms(cover, var_order):
    """Minterms by walking every assignment of each cube's free positions."""
    n = len(var_order)
    terms = set()
    for cube in cover:
        fixed = 0
        free_positions = []
        for i, var in enumerate(var_order):
            if var in cube:
                if cube[var]:
                    fixed |= 1 << (n - 1 - i)
            else:
                free_positions.append(n - 1 - i)
        for bits in range(1 << len(free_positions)):
            m = fixed
            for j, pos in enumerate(free_positions):
                if (bits >> j) & 1:
                    m |= 1 << pos
            terms.add(m)
    return frozenset(terms)


@pytest.mark.parametrize("n_vars", range(10))
def test_cover_minterms_matches_enumeration(n_vars):
    rng = random.Random(n_vars)
    var_order = [f"x{i}" for i in range(n_vars)]
    for _ in range(30):
        cover = []
        for _ in range(rng.randint(0, 4)):
            bound = [v for v in var_order if rng.random() < 0.4]
            cover.append({v: rng.randint(0, 1) for v in bound})
        got = cover_minterms(cover, var_order)
        assert isinstance(got, frozenset)
        assert got == _reference_minterms(cover, var_order)


def test_cover_minterms_edge_cases():
    assert cover_minterms([], ["a", "b"]) == frozenset()
    assert cover_minterms([{}], []) == frozenset({0})
    assert cover_minterms([{}], ["a", "b"]) == frozenset(range(4))
    assert cover_minterms([{"a": 1}], ["a", "b"]) == frozenset({2, 3})
    assert cover_minterms([{"b": 0, "a": 0}], ["a", "b"]) == frozenset({0})
