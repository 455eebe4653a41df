"""Monomial-order axioms on the packed ints that the engine compares:
totality, antisymmetry, multiplicativity, divisibility refinement."""

import random

import pytest

from brisk import kernel
from brisk.orders import elim, grevlex, lex

ORDERS = [grevlex(), lex(), elim(1), elim(2)]


def packed(order, nvars=3):
    """The order's comparison: the int of its ``kernel.Packing``, with
    fields wide enough for every monomial these tests build."""
    return kernel.packing(order, nvars, kernel.bits_for(32)).pack


def random_monos(rng, count, nvars=3, max_deg=6):
    return [
        tuple(rng.randint(0, max_deg) for _ in range(nvars)) for _ in range(count)
    ]


@pytest.mark.parametrize("order", ORDERS, ids=str)
def test_total_and_antisymmetric(order):
    key = packed(order)
    rng = random.Random(101)
    for a, b in zip(random_monos(rng, 300), random_monos(rng, 300)):
        ka, kb = key(a), key(b)
        if a == b:
            assert ka == kb
        else:
            assert (ka < kb) != (ka > kb)
            assert ka != kb  # distinct monomials never compare equal


@pytest.mark.parametrize("order", ORDERS, ids=str)
def test_multiplicative(order):
    key = packed(order)
    rng = random.Random(202)
    for a, b, c in zip(
        random_monos(rng, 300), random_monos(rng, 300), random_monos(rng, 300)
    ):
        if key(a) < key(b):
            ac = tuple(x + y for x, y in zip(a, c))
            bc = tuple(x + y for x, y in zip(b, c))
            assert key(ac) < key(bc)


@pytest.mark.parametrize("order", ORDERS, ids=str)
def test_refines_divisibility(order):
    key = packed(order)
    rng = random.Random(303)
    for a in random_monos(rng, 300):
        extra = tuple(rng.randint(0, 3) for _ in a)
        if any(extra):
            bigger = tuple(x + y for x, y in zip(a, extra))
            assert key(a) < key(bigger)


def test_elim_block_dominates():
    # any monomial using an eliminated variable beats any that does not
    key = packed(elim(1))
    assert key((1, 0, 0)) > key((0, 5, 7))


def test_grevlex_classic_comparison():
    # x > y under grevlex in two variables
    key = packed(grevlex(), nvars=2)
    assert key((1, 0)) > key((0, 1))
    # degree dominates
    assert key((0, 3)) > key((2, 0))
