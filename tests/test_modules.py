"""Packed module monomials (``modules.Layout``) against the tuple keys and
the divisibility rule of ``oracles``: int order is the module order, the
guard test is "same position and divides", and tracked relation terms
sort below every module term and are divisible by none."""

import itertools
import random

import pytest
from oracles import base_module_key, module_divides, schreyer_key

from brisk.modules import Layout
from brisk.orders import elim, grevlex, lex

NVARS = 3


def random_monomials(rng, rank, count, top=4):
    return [
        (rng.randrange(rank), tuple(rng.randint(0, top) for _ in range(NVARS)))
        for _ in range(count)
    ]


def assert_agrees(layout, key, degree, monomials):
    """Order, divisibility, unpacking and degree of packed ``monomials``
    against the reference ``key`` and ``degree``."""
    packed = [layout.pack(*m) for m in monomials]
    for m, p in zip(monomials, packed):
        assert layout.unpack(p) == m
        assert layout.degree(p) == degree(m)
    for (a, pa), (b, pb) in itertools.combinations(zip(monomials, packed), 2):
        assert (pa < pb) == (key(a) < key(b))
        assert (pa == pb) == (a == b)
        assert (not (pb - pa) & layout.guard) == module_divides(a, b)
        assert (not (pa - pb) & layout.guard) == module_divides(b, a)


@pytest.mark.parametrize("order", [grevlex(), lex(), elim(1)], ids=str)
def test_free_and_schreyer_layouts_match_the_tuple_keys(order):
    rng = random.Random(3)
    twists = (-3, 0, 2, -1)  # dual twists are negative
    free = Layout.free(order, NVARS, 8, twists)

    def base(m):
        return base_module_key(order, twists, m)

    def base_degree(m):
        return sum(m[1]) + twists[m[0]]

    assert_agrees(free, base, base_degree, random_monomials(rng, len(twists), 60))
    # a Schreyer level over leads of the free layout, repeated leads too
    images = random_monomials(rng, len(twists), 5, top=2)
    images.append(images[0])
    level = free.extend([free.pack(*m) for m in images])

    def level_key(m):
        return schreyer_key(base, images, m)

    def level_degree(m):
        return sum(m[1]) + base_degree(images[m[0]])

    assert_agrees(level, level_key, level_degree, random_monomials(rng, len(images), 60, top=3))
    # and one more level on top of it
    images2 = random_monomials(rng, len(images), 4, top=2)
    level2 = level.extend([level.pack(*m) for m in images2])
    assert_agrees(
        level2,
        lambda m: schreyer_key(level_key, images2, m),
        lambda m: sum(m[1]) + level_degree(images2[m[0]]),
        random_monomials(rng, len(images2), 40, top=2),
    )


def test_rank_that_fills_the_pair_field():
    # 8-bit fields hold values below 128: ranks up to 126 keep n + 1 in
    # the field, 127 does not
    rng = random.Random(5)
    rank = 126
    twists = tuple(rng.randint(-2, 2) for _ in range(rank))
    free = Layout.free(grevlex(), NVARS, 8, twists)
    monomials = random_monomials(rng, rank, 50) + [(0, (1, 0, 0)), (rank - 1, (1, 0, 0))]
    assert_agrees(
        free,
        lambda m: base_module_key(grevlex(), twists, m),
        lambda m: sum(m[1]) + twists[m[0]],
        monomials,
    )
    images = random_monomials(rng, rank, rank, top=2)
    level = free.extend([free.pack(*m) for m in images])
    assert_agrees(
        level,
        lambda m: schreyer_key(lambda x: base_module_key(grevlex(), twists, x), images, m),
        lambda m: sum(m[1]) + sum(images[m[0]][1]) + twists[images[m[0]][0]],
        random_monomials(rng, rank, 50) + [(0, (0, 0, 0)), (rank - 1, (0, 0, 0))],
    )
    with pytest.raises(OverflowError):
        Layout.free(grevlex(), NVARS, 8, (0,) * (rank + 1))
    with pytest.raises(OverflowError):
        free.extend([free.pack(0, (0, 0, 0))] * (rank + 1))


@pytest.mark.parametrize("schreyer", [False, True], ids=["columns", "schreyer"])
def test_tracked_relations_sort_below_and_divide_by_no_lead(schreyer):
    rng = random.Random(7)
    rank = 126  # the tag (0, n + 1) fills the field
    twists = tuple(rng.randint(-2, 2) for _ in range(4))
    inner = Layout.free(grevlex(), NVARS, 8, twists)
    if schreyer:
        images = random_monomials(rng, len(twists), rank, top=2)
        relations = inner.extend([inner.pack(*m) for m in images])
    else:
        relations = Layout.free(grevlex(), NVARS, 8, tuple(rng.randint(-2, 2) for _ in range(rank)))
    tracked, elems = relations.track(inner, [{}] * rank, [1] * rank)
    assert elems[5] == {relations.bases[5]: 1}
    # constants divide every module monomial in their position
    module = random_monomials(rng, len(twists), 40) + [(i, (0, 0, 0)) for i in range(len(twists))]
    packed = [tracked.pack(*m) for m in module]
    for m, p in zip(module, packed):
        assert tracked.unpack(p) == m
        assert tracked.degree(p) == inner.degree(inner.pack(*m))
    for (a, pa), (b, pb) in itertools.combinations(zip(module, packed), 2):
        assert (pa < pb) == (inner.pack(*a) < inner.pack(*b))
        assert (not (pb - pa) & tracked.guard) == module_divides(a, b)
    rel = [relations.pack(k, (0, 0, 0)) for k in (0, 1, rank - 1)]
    rel += [relations.pack(*m) for m in random_monomials(rng, rank, 20)]
    for r in rel:
        assert not r & tracked.guard
        for p in packed:
            assert r < p
            assert (r - p) & tracked.guard


def test_restrict_renumbers_positions_and_move_keeps_the_monomial():
    rng = random.Random(9)
    twists = (-3, 0, 2, -1)
    free = Layout.free(grevlex(), NVARS, 8, twists)
    images = random_monomials(rng, len(twists), 5, top=2)
    leads = [free.pack(*m) for m in images]
    keep = [0, 2, 3]
    # dropping positions is the layout built on the kept ones alone
    assert free.restrict(keep) == Layout.free(grevlex(), NVARS, 8, tuple(twists[i] for i in keep))
    assert free.extend(leads).restrict(keep) == free.extend([leads[i] for i in keep])
    level = free.extend(leads)
    wide = Layout.free(grevlex(), NVARS, 16, (1, 5))
    u = level.monomial(level.pack(0, (1, 0, 2)), level)
    for pos, exp in random_monomials(rng, len(images), 20):
        key = level.pack(pos, exp)
        assert wide.unpack(level.move(key, wide, 1)) == (1, exp)
        assert level.unpack(key + u) == (pos, (exp[0] + 1, exp[1], exp[2] + 2))
    with pytest.raises(OverflowError):
        level.move(level.pack(0, (60, 0, 0)), Layout.free(grevlex(), NVARS, 8, (100,)), 0)
