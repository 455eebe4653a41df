"""Submodules of graded free modules: Groebner bases and syzygies.

A free-module element is a dict mapping module monomials (pos, exponent)
to coefficients; generator ``pos`` of the module carries a twist, so the
element degree is |exponent| + twist[pos].  Two module orders are used:

  * a degree-refined term-over-position order (the base case), and
  * the Schreyer order induced by the leading monomials of a Groebner
    basis one step down the resolution.

Syzygies come from S-pair divisions: for a Groebner basis g_1..g_t, a
same-position pair (i, j), i < j, contributes

    sigma_ij = (lcm/lt_i) e_i - (lcm/lt_j) e_j - sum_k q_k e_k,

where the q_k track the division of the S-element to zero.  Over all
pairs these form a Groebner basis of the syzygy module with respect to
the induced Schreyer order (Schreyer's theorem); only the pairs whose
leading terms (lcm/lt_i) e_i minimally generate that leading module are
kept, which is what makes iterated resolution steps cheap.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from . import kernel
from .errors import BudgetExceededError
from .groebner import DEFAULT_BUDGET, Budget
from .orders import MonomialOrder
from .polyring import MultiPoly, PolyRing

ModMono = tuple[int, tuple[int, ...]]


@dataclass(frozen=True)
class FreeModule:
    """⊕_i S(-twists[i]): generator i in degree twists[i]."""

    twists: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.twists)

    def degree_of(self, elem: dict) -> int | None:
        """Degree of a homogeneous element (None for zero)."""
        for (pos, e) in elem:
            return sum(e) + self.twists[pos]
        return None

    def is_homogeneous(self, elem: dict) -> bool:
        degs = {sum(e) + self.twists[pos] for (pos, e) in elem}
        return len(degs) <= 1


@dataclass(frozen=True)
class BaseModuleOrder:
    """Degree first, then the ring order on the monomial, then position."""

    ring_order: MonomialOrder
    twists: tuple[int, ...]

    def key(self, m: ModMono):
        pos, e = m
        return (sum(e) + self.twists[pos], self.ring_order.key(e), -pos)


@dataclass(frozen=True)
class SchreyerOrder:
    """Order on ⊕ S(-deg g_i) induced by the leading monomials of the g_i."""

    prev: object  # BaseModuleOrder | SchreyerOrder
    images: tuple[ModMono, ...]

    def key(self, m: ModMono):
        i, u = m
        pos, lead = self.images[i]
        return (self.prev.key((pos, kernel.mono_mul(u, lead))), -i)


# ----------------------------------------------------------- element ops


def mod_leading(elem: dict, order) -> ModMono | None:
    if not elem:
        return None
    return max(elem, key=order.key)


def mod_monic(elem: dict, order) -> dict:
    lead = mod_leading(elem, order)
    c = elem[lead]
    one = c / c
    if c == one:
        return dict(elem)
    return {m: v / c for m, v in elem.items()}


def mod_sub_shifted(work: dict, c, shift: tuple[int, ...], g: dict):
    """work -= c * x^shift * g, in place."""
    for (pos, e), q in g.items():
        m = (pos, kernel.mono_mul(e, shift))
        s = work.get(m)
        if s is None:
            work[m] = -(c * q)
        else:
            s = s - c * q
            if s:
                work[m] = s
            else:
                del work[m]


def mod_reduce(elem: dict, gb: list[dict], leads: list[ModMono], order):
    """Full division of ``elem`` by the monic family ``gb``.

    Returns (remainder, quotients); ``quotients`` maps (k, shift) -> coeff
    such that  elem = sum_k quotients * g_k + remainder.
    """
    work = dict(elem)
    out: dict = {}
    quot: dict = {}
    while work:
        m = max(work, key=order.key)
        c = work.pop(m)
        pos, e = m
        hit = -1
        for k, (lp, le) in enumerate(leads):
            if lp == pos and kernel.mono_divides(le, e):
                hit = k
                break
        if hit < 0:
            out[m] = c
            continue
        shift = kernel.mono_div(e, leads[hit][1])
        work[m] = c  # reinstate, the subtraction cancels it
        mod_sub_shifted(work, c, shift, gb[hit])
        # the leading monomial strictly decreases, so no key repeats
        quot[(hit, shift)] = c
    return out, quot


def _minimal_pairs(leads: list[ModMono]):
    """The pairs (i, j), i < j in the same position, whose quotient
    lcm(lt_i, lt_j)/lt_i minimally generates the monomial ideal of those
    quotients over all such j (the smallest j on ties)."""
    for i, (pos, ei) in enumerate(leads):
        first: dict = {}
        for j in range(i + 1, len(leads)):
            if leads[j][0] == pos:
                q = kernel.mono_div(kernel.mono_lcm(ei, leads[j][1]), ei)
                first.setdefault(q, j)
        for q in kernel.minimal_generators(first):
            yield i, first[q]


def module_groebner(inputs: list[dict], order, budget: Budget = DEFAULT_BUDGET):
    """Groebner basis of the submodule generated by ``inputs``.

    Returns (gb, leads, reps): monic basis elements, their leading module
    monomials, and for each basis element its expression as a combination
    of the inputs (a dict (j, exp) -> coeff over input j).

    Pairs are taken smallest lcm first (the normal strategy, which
    completes a homogeneous module degree by degree).  Each new element
    goes through the Gebauer-Moeller update within its position:
    criterion B_k on the pending pairs and one new pair per minimal lcm.
    The coprimality criterion does not hold for modules and is not used.
    """
    gb: list[dict] = []
    leads: list[ModMono] = []
    reps: list[dict] = []
    # elements whose lead no later lead divides; only they get new pairs,
    # while every element stays a reducer
    active: list[int] = []
    pending: list[tuple] = []  # heap of (order key of the lcm, i, j, lcm)

    def push(elem: dict, rep: dict):
        h = len(gb)
        _push_monic(gb, leads, reps, elem, rep, order)
        pos, lh = leads[h]
        kept = [
            p
            for p in pending
            if leads[p[1]][0] != pos
            or not kernel.mono_divides(lh, p[3])
            or kernel.mono_lcm(leads[p[1]][1], lh) == p[3]
            or kernel.mono_lcm(leads[p[2]][1], lh) == p[3]
        ]
        if len(kept) < len(pending):
            pending[:] = kept
            heapq.heapify(pending)
        first: dict = {}
        for i in active:
            if leads[i][0] == pos:
                first.setdefault(kernel.mono_lcm(leads[i][1], lh), i)
        for lcm in kernel.minimal_generators(first):
            heapq.heappush(pending, (order.key((pos, lcm)), first[lcm], h, lcm))
        active[:] = [
            i for i in active if leads[i][0] != pos or not kernel.mono_divides(lh, leads[i][1])
        ]
        active.append(h)

    for j, elem in enumerate(inputs):
        if elem:
            push(elem, {(j, _zero_exp(elem)): _one_of(elem)})

    done = 0
    while pending:
        _, i, j, _ = heapq.heappop(pending)
        done += 1
        if done > budget.max_pairs:
            raise BudgetExceededError(
                f"budget exhausted: module basis needed more than "
                f"{budget.max_pairs} S-pairs"
            )
        di, dj = _s_shifts(leads, i, j)
        rem, quot = mod_reduce(_s_element(gb, i, j, di, dj), gb, leads, order)
        if not rem:
            continue
        srep = _s_element(reps, i, j, di, dj)
        for (k, shift), c in quot.items():
            mod_sub_shifted(srep, c, shift, reps[k])
        push(rem, srep)
    return gb, leads, reps


def _zero_exp(elem: dict) -> tuple[int, ...]:
    (pos, e) = next(iter(elem))
    return (0,) * len(e)


def _one_of(elem: dict):
    c = next(iter(elem.values()))
    return c / c


def _push_monic(gb, leads, reps, elem, rep, order):
    lead = mod_leading(elem, order)
    c = elem[lead]
    one = c / c
    if c != one:
        elem = {m: v / c for m, v in elem.items()}
        rep = {m: v / c for m, v in rep.items()}
    gb.append(dict(elem))
    leads.append(lead)
    reps.append(rep)


def _s_shifts(leads, i, j):
    """(lcm/lt_i, lcm/lt_j) for the leading monomials of pair (i, j)."""
    ei, ej = leads[i][1], leads[j][1]
    lcm = kernel.mono_lcm(ei, ej)
    return kernel.mono_div(lcm, ei), kernel.mono_div(lcm, ej)


def _s_element(elems, i, j, di, dj) -> dict:
    """x^di * elems[i] - x^dj * elems[j]."""
    one = _one_of(elems[i])
    out: dict = {}
    mod_sub_shifted(out, -one, di, elems[i])
    mod_sub_shifted(out, one, dj, elems[j])
    return out


def syzygies_of_groebner(gb: list[dict], leads: list[ModMono], order):
    """Syzygies sigma_ij of a monic Groebner basis, one per pair of
    ``_minimal_pairs``; a Groebner basis for the induced Schreyer order.

    The Schreyer order breaks ties by the lower index, so sigma_ij leads
    with (lcm/lt_i) e_i.  The pairs kept have the same leading monomials
    up to divisibility as all same-position pairs, whose syzygies form a
    Groebner basis by Schreyer's theorem, so the kept ones do too.
    """
    syz = []
    for i, j in _minimal_pairs(leads):
        di, dj = _s_shifts(leads, i, j)
        rem, quot = mod_reduce(_s_element(gb, i, j, di, dj), gb, leads, order)
        if rem:
            raise AssertionError("S-element of a Groebner basis did not reduce to zero")
        one = _one_of(gb[i])
        sigma = {(i, di): one, (j, dj): -one}
        mod_sub_shifted(sigma, one, _zero_exp(gb[i]), quot)
        syz.append(sigma)
    return syz


def syzygies_of_columns(
    inputs: list[dict],
    order,
    budget: Budget = DEFAULT_BUDGET,
):
    """Generating set for the syzygy module of the given columns.

    Combines the Groebner-basis syzygies (mapped back through the basis
    representations) with the redundancy relations column_j - sum A V: the
    result generates all relations sum_j h_j * inputs_j = 0.
    """
    live = [(j, e) for j, e in enumerate(inputs) if e]
    if not live:
        return []
    gb, leads, reps = module_groebner([e for _, e in live], order, budget)
    out: list[dict] = []
    for sigma in syzygies_of_groebner(gb, leads, order):
        mapped: dict = {}
        for (i, u), c in sigma.items():
            mod_sub_shifted(mapped, -c, u, reps[i])
        if mapped:
            out.append(_relabel(mapped, live))
    for idx, (j, elem) in enumerate(live):
        rem, quot = mod_reduce(elem, gb, leads, order)
        if rem:
            raise AssertionError("input column did not reduce to zero modulo its basis")
        rel: dict = {(idx, _zero_exp(elem)): _one_of(elem)}
        for (k, shift), c in quot.items():
            mod_sub_shifted(rel, c, shift, reps[k])
        if rel:
            out.append(_relabel(rel, live))
    return out


def _relabel(rep: dict, live: list) -> dict:
    """Map representation indices back to original column positions."""
    return {(live[i][0], u): c for (i, u), c in rep.items()}


# ------------------------------------------------- matrix <-> module glue


def columns_to_elements(matrix: list[list[MultiPoly]]) -> list[dict]:
    """Matrix columns (rows = target generators) as module elements."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    elems = []
    for j in range(ncols):
        elem: dict = {}
        for i, row in enumerate(matrix):
            for e, c in row[j].terms.items():
                elem[(i, e)] = c
        elems.append(elem)
    return elems


def elements_to_columns(
    elems: list[dict], ring: PolyRing, target_rank: int
) -> list[list[MultiPoly]]:
    """Module elements as matrix columns; result[i][j] = entry (row i, col j)."""
    rows = [[ring.zero() for _ in elems] for _ in range(target_rank)]
    for j, elem in enumerate(elems):
        per_row: dict[int, dict] = {}
        for (pos, e), c in elem.items():
            per_row.setdefault(pos, {})[e] = c
        for pos, terms in per_row.items():
            rows[pos][j] = MultiPoly(ring, terms)
    return rows
