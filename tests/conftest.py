"""Shared fixtures: the small ideal corpus used across property tests."""

from __future__ import annotations

import itertools
import random

import pytest

from brisk.groebner import Ideal
from brisk.polyring import PolyRing


@pytest.fixture(scope="session")
def ring2():
    return PolyRing(("z1", "z2"))


@pytest.fixture(scope="session")
def ring3():
    return PolyRing(("x", "y", "z"))


@pytest.fixture(scope="session")
def proj3():
    return PolyRing(("z0", "z1", "z2", "z3"))


def cusp_affine_ideal(p: int = 5) -> Ideal:
    R = PolyRing(("z1", "z2"))
    z1, z2 = R.gens()
    return Ideal(R, [z2, z1**2 - z2**p])


def kollar_ideal() -> Ideal:
    R = PolyRing(("z1", "z2"))
    z1, z2 = R.gens()
    return Ideal(R, [z1**2, z1 * z2 - 1])


def twisted_cubic_ideal() -> Ideal:
    P = PolyRing(("z0", "z1", "z2", "z3"))
    a, b, c, d = P.gens()
    return Ideal(P, [b * b - a * c, b * c - a * d, c * c - b * d])


def skew_lines_ideal() -> Ideal:
    P = PolyRing(("z0", "z1", "z2", "z3"))
    a, b, c, d = P.gens()
    return Ideal(P, [a * c, a * d, b * c, b * d])


def koszul3_ideal() -> Ideal:
    R = PolyRing(("x", "y", "z"))
    x, y, z = R.gens()
    return Ideal(R, [x, y, z])


def random_forms_ideal(rng: random.Random) -> Ideal:
    """2-4 forms of degree 2-3 in 3 variables, or 2-3 in 4, each with 1-3
    terms; four forms in four variables would make the minors reference
    run for tens of seconds."""
    ring = PolyRing(tuple(f"x{i}" for i in range(rng.choice((3, 4)))))
    gens = []
    for _ in range(rng.randint(2, 7 - ring.nvars)):
        monos = list(itertools.combinations_with_replacement(ring.gens(), rng.randint(2, 3)))
        f = ring.zero()
        for mono in rng.sample(monos, rng.randint(1, 3)):
            term = ring.one() * rng.choice((-2, -1, 1, 2, 3))
            for v in mono:
                term = term * v
            f = f + term
        gens.append(f)
    return Ideal(ring, gens)


def corpus_ideals() -> list[Ideal]:
    """The five corpus ideals used by the confluence / property suites."""
    return [
        cusp_affine_ideal(5),
        kollar_ideal(),
        twisted_cubic_ideal(),
        skew_lines_ideal(),
        koszul3_ideal(),
    ]


@pytest.fixture(scope="session")
def corpus():
    return corpus_ideals()
