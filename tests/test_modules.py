"""Packed module monomials (``modules.Layout``) against the tuple keys and
the divisibility rule of ``oracles``: int order is the module order, the
guard test is "same position and divides", and tracked relation terms
sort below every module term and are divisible by none.  Then the
module bases over Q: tails kept reduced once a lead coefficient other
than 1 appears, and syzygies of generators that span the whole kernel."""

import itertools
import random

import pytest
from conftest import twisted_cubic_ideal
from oracles import base_module_key, module_divides, schreyer_key
from test_golden import RESOLUTION_CASES, _rnc

from brisk import groebner, kernel, modules
from brisk.groebner import DEFAULT_BUDGET, buchberger
from brisk.invariants import hilbert_data
from brisk.modules import Layout
from brisk.orders import elim, grevlex, lex
from brisk.resolution import _coker_numerators, bef_codims, minimal_resolution, syzygies

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


# ------------------------------------------------------- module bases


@pytest.fixture
def module_bases(monkeypatch):
    """Each ``modules.module_groebner`` call as (layout, basis, tail
    reductions), the tail reductions being the ``kernel.normal_form``
    calls made inside it other than the pair reductions, which go through
    ``groebner._nf_terms``."""
    normal_form, module_groebner = kernel.normal_form, modules.module_groebner
    calls = []
    tails = {"count": None}  # None outside module_groebner

    def counted(*args, **kwargs):
        if tails["count"] is not None:
            tails["count"] += 1
        return normal_form(*args, **kwargs)

    def basis(inputs, layout, *args, **kwargs):
        tails["count"] = 0
        try:
            out = module_groebner(inputs, layout, *args, **kwargs)
        finally:
            count, tails["count"] = tails["count"], None
        calls.append((layout, out, count))
        return out

    monkeypatch.setattr(kernel, "normal_form", counted)
    monkeypatch.setattr(groebner, "_nf_terms", normal_form)
    monkeypatch.setattr(modules, "module_groebner", basis)
    return calls


def test_module_basis_over_q_keeps_its_tails_reduced(module_bases):
    # the transposed steps of random5_4 meet lead coefficients other than 1
    bef_codims(minimal_resolution(RESOLUTION_CASES["random5_4"]))
    reduced = [(layout, basis) for layout, basis, tails in module_bases if tails]
    assert reduced
    for layout, basis in reduced:
        leads = [max(g) for g in basis]
        assert any(g[lead] != 1 for g, lead in zip(basis, leads))
        for i, (g, lead) in enumerate(zip(basis, leads)):
            others = leads[:i] + leads[i + 1:]
            if any(not (lead - m) & layout.guard for m in others):
                continue  # another lead divides this one: no longer kept reduced
            for term in g:
                if term != lead:
                    assert all((term - m) & layout.guard for m in others)


@pytest.mark.parametrize("ideal", [twisted_cubic_ideal(), _rnc(4)], ids=["twisted_cubic", "rnc4"])
def test_module_bases_with_unit_leads_take_no_tail_reduction(ideal, module_bases):
    res = minimal_resolution(ideal)
    bef_codims(res)
    res.validate(check_exact=True)
    syzygies(ideal.gens)
    assert module_bases
    assert all(tails == 0 for _, _, tails in module_bases)


@pytest.mark.parametrize("name", sorted(RESOLUTION_CASES))
def test_syzygies_of_generators_span_the_kernel(name):
    ideal = RESOLUTION_CASES[name]
    syz = syzygies(ideal.gens)
    zero = ideal.ring.zero()
    for col in zip(*syz.matrix):
        assert sum((f * h for f, h in zip(ideal.gens, col)), zero).is_zero()
    # the cokernel of the syzygy map is J: HS(J) = HS(S) - HS(S/J)
    quotient = dict(enumerate(hilbert_data(buchberger(ideal)).numerator))
    ideal_series = {k: -v for k, v in quotient.items()}
    ideal_series[0] = ideal_series.get(0, 0) + 1
    assert _coker_numerators([syz], False, DEFAULT_BUDGET)[0] == {k: v for k, v in ideal_series.items() if v}


def test_golden_module_bases_reduce_only_reducible_tails(module_bases):
    # at the first lead coefficient other than 1 only the elements whose
    # tail holds a multiple of another lead are reduced: 18 over the 20
    # golden resolution cases, where reducing every element took 48
    for name in sorted(RESOLUTION_CASES):
        ideal = RESOLUTION_CASES[name]
        res = minimal_resolution(ideal)
        bef_codims(res)
        res.validate(check_exact=True)
        syzygies(ideal.gens)
    assert sum(tails for _, _, tails in module_bases) == 18
