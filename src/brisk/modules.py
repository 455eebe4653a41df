"""Submodules of graded free modules: Groebner bases and syzygies.

A free-module element is a dict mapping module monomials (pos, exponent)
to coefficients; generator ``pos`` of the module carries a twist, so the
element degree is |exponent| + twist[pos].  Two module orders are used:

  * a degree-refined term-over-position order (the base case), and
  * the Schreyer order induced by the leading monomials of a Groebner
    basis one step down the resolution.

Syzygies come from S-pair divisions: for a Groebner basis g_1..g_t, each
same-position pair (i, j) contributes

    sigma_ij = (lcm/lt_i) e_i - (lcm/lt_j) e_j - sum_k q_k e_k,

where the q_k track the division of the S-element to zero.  These
generate the syzygy module and form a Groebner basis of it with respect
to the induced Schreyer order, which is what makes iterated resolution
steps cheap.
"""

from __future__ import annotations

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


def mod_reduce(elem: dict, gb: list[dict], leads: list[ModMono], order, track: bool = False):
    """Full division of ``elem`` by the monic family ``gb``.

    Returns (remainder, quotients); ``quotients`` maps (k, shift) -> coeff
    such that  elem = sum_k quotients * g_k + remainder  (only when
    ``track`` is set; otherwise None).
    """
    work = dict(elem)
    out: dict = {}
    quot: dict | None = {} if track else None
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
        if track:
            key = (hit, shift)
            s = quot.get(key)
            quot[key] = c if s is None else s + c
    return out, quot


def _pairs(leads: list[ModMono]):
    for j in range(len(leads)):
        for i in range(j):
            if leads[i][0] == leads[j][0]:
                yield i, j


def module_groebner(
    inputs: list[dict],
    order,
    budget: Budget = DEFAULT_BUDGET,
    track: bool = True,
):
    """Groebner basis of the submodule generated by ``inputs``.

    Returns (gb, leads, reps): monic basis elements, their leading module
    monomials, and (if ``track``) for each basis element its expression as
    a combination of the inputs (a dict (j, exp) -> coeff over input j).
    """
    gb: list[dict] = []
    leads: list[ModMono] = []
    reps: list[dict] = []
    for j, elem in enumerate(inputs):
        if not elem:
            continue
        rep = {(j, _zero_exp(elem)): _one_of(elem)} if track else None
        _push_monic(gb, leads, reps, elem, rep, order)

    pending = list(_pairs(leads))
    done = 0
    while pending:
        i, j = pending.pop(0)
        done += 1
        if done > budget.max_pairs:
            raise BudgetExceededError(
                f"budget exhausted: module basis needed more than "
                f"{budget.max_pairs} S-pairs"
            )
        spair, srep = _s_element(gb, leads, reps if track else None, i, j)
        rem, quot = mod_reduce(spair, gb, leads, order, track=track)
        if not rem:
            continue
        if track:
            for (k, shift), c in quot.items():
                _rep_sub_shifted(srep, c, shift, reps[k])
        old = len(gb)
        _push_monic(gb, leads, reps, rem, srep, order)
        for t in range(old):
            if leads[t][0] == leads[old][0]:
                pending.append((t, old))
    return gb, leads, (reps if track else None)


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
        if rep is not None:
            rep = {m: v / c for m, v in rep.items()}
    gb.append(dict(elem))
    leads.append(lead)
    reps.append(rep)


def _s_element(gb, leads, reps, i, j):
    (pos, ei), (_, ej) = leads[i], leads[j]
    lcm = kernel.mono_lcm(ei, ej)
    di = kernel.mono_div(lcm, ei)
    dj = kernel.mono_div(lcm, ej)
    one = _one_of(gb[i])
    spair: dict = {}
    mod_sub_shifted(spair, -one, di, gb[i])
    mod_sub_shifted(spair, one, dj, gb[j])
    srep: dict = {}
    if reps is not None:
        _rep_sub_shifted(srep, -one, di, reps[i])
        _rep_sub_shifted(srep, one, dj, reps[j])
    return spair, srep


def _rep_sub_shifted(rep: dict, c, shift, other: dict):
    for (j, e), q in other.items():
        m = (j, kernel.mono_mul(e, shift))
        s = rep.get(m)
        if s is None:
            rep[m] = -(c * q)
        else:
            s = s - c * q
            if s:
                rep[m] = s
            else:
                del rep[m]


def syzygies_of_groebner(gb: list[dict], leads: list[ModMono], order):
    """Syzygies sigma_ij of a monic Groebner basis, one per same-position
    S-pair; a Groebner basis for the induced Schreyer order."""
    syz = []
    for i, j in _pairs(leads):
        spair, _ = _s_element(gb, leads, None, i, j)
        rem, quot = mod_reduce(spair, gb, leads, order, track=True)
        if rem:
            raise AssertionError("S-element of a Groebner basis did not reduce to zero")
        (_, ei), (_, ej) = leads[i], leads[j]
        lcm = kernel.mono_lcm(ei, ej)
        sigma: dict = {}
        one = _one_of(gb[i])
        sigma[(i, kernel.mono_div(lcm, ei))] = one
        sigma[(j, kernel.mono_div(lcm, ej))] = -one
        for (k, shift), c in quot.items():
            m = (k, shift)
            s = sigma.get(m)
            if s is None:
                sigma[m] = -c
            else:
                s = s - c
                if s:
                    sigma[m] = s
                else:
                    del sigma[m]
        if sigma:
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
    gb, leads, reps = module_groebner([e for _, e in live], order, budget, track=True)
    out: list[dict] = []
    for sigma in syzygies_of_groebner(gb, leads, order):
        mapped: dict = {}
        for (i, u), c in sigma.items():
            _rep_sub_shifted(mapped, -c, u, reps[i])
        if mapped:
            out.append(_relabel(mapped, live))
    for idx, (j, elem) in enumerate(live):
        rem, quot = mod_reduce(elem, gb, leads, order, track=True)
        if rem:
            raise AssertionError("input column did not reduce to zero modulo its basis")
        rel: dict = {(idx, _zero_exp(elem)): _one_of(elem)}
        for (k, shift), c in quot.items():
            _rep_sub_shifted(rel, c, shift, reps[k])
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
