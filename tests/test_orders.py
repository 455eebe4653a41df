"""Monomial-order axioms: totality, antisymmetry, multiplicativity,
divisibility refinement."""

import random

import pytest

from brisk.orders import elim, grevlex, lex

ORDERS = [grevlex(), lex(), elim(1), elim(2), grevlex((2, 0, 1)), lex((1, 2, 0))]


def random_monos(rng, count, nvars=3, max_deg=6):
    return [
        tuple(rng.randint(0, max_deg) for _ in range(nvars)) for _ in range(count)
    ]


@pytest.mark.parametrize("order", ORDERS, ids=str)
def test_total_and_antisymmetric(order):
    rng = random.Random(101)
    for a, b in zip(random_monos(rng, 300), random_monos(rng, 300)):
        ka, kb = order.key(a), order.key(b)
        if a == b:
            assert ka == kb
        else:
            assert (ka < kb) != (ka > kb)
            assert ka != kb  # distinct monomials never compare equal


@pytest.mark.parametrize("order", ORDERS, ids=str)
def test_multiplicative(order):
    rng = random.Random(202)
    for a, b, c in zip(
        random_monos(rng, 300), random_monos(rng, 300), random_monos(rng, 300)
    ):
        if order.key(a) < order.key(b):
            ac = tuple(x + y for x, y in zip(a, c))
            bc = tuple(x + y for x, y in zip(b, c))
            assert order.key(ac) < order.key(bc)


@pytest.mark.parametrize("order", ORDERS, ids=str)
def test_refines_divisibility(order):
    rng = random.Random(303)
    for a in random_monos(rng, 300):
        extra = tuple(rng.randint(0, 3) for _ in a)
        if any(extra):
            bigger = tuple(x + y for x, y in zip(a, extra))
            assert order.key(a) < order.key(bigger)


def test_elim_block_dominates():
    # any monomial using an eliminated variable beats any that does not
    order = elim(1)
    assert order.key((1, 0, 0)) > order.key((0, 5, 7))


def test_grevlex_classic_comparison():
    # x > y under grevlex in two variables
    order = grevlex()
    assert order.key((1, 0)) > order.key((0, 1))
    # degree dominates
    assert order.key((0, 3)) > order.key((2, 0))
