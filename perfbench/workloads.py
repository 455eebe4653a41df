"""The benchmark's four workloads.

``build(name, seed, small)`` makes a workload's inputs (the set-up
phase) and returns its ops.  Each op is one timed call into brisk's
public entry points plus a check of the answer against the independent
computations in ``checks``.  ``small`` swaps every input for a reduced
one of the same kind, so the fast test runs every check in seconds.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from brisk import bounds, certificate, cli, families, invariants, localorder, resolution
from brisk.fields import GF, poly_to_gf
from brisk.groebner import Budget, Ideal, buchberger
from brisk.orders import grevlex
from brisk.polyring import PolyRing, homogenize

import checks
from checks import require, terms_of

WORKLOADS = ("certify", "sweep", "groebner", "resolve")
PRIME = 32003
# Kollár(3,3,3) builds a 4057 x 8775 system with 14,625 nonzeros; the
# default cap meters rows x cols and refuses it.
RAISED = Budget(max_matrix_entries=10**9)
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], None]


def build(name: str, seed: int, small: bool = False) -> list[Op]:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    return globals()[f"_{name}"](seed, small)


# ------------------------------------------------------------ certify / sweep


def _plain(inst):
    """Generators and target of a membership instance as plain dicts."""
    return [terms_of(g) for g in inst.gens], terms_of(inst.phi), inst.ring.nvars


def _check_found(inst, found, rho_min_max: int, expect_rho: int | None = None) -> int:
    require(found is not None, "NotFound where a certificate exists")
    rho, cert = found
    require(cert.verified, "certificate not marked verified")
    if expect_rho is not None:
        require(rho == expect_rho, f"rho_min {rho}, expected {expect_rho}")
    require(rho <= rho_min_max, f"rho_min {rho} above the bound {rho_min_max}")
    gens, phi, n = _plain(inst)
    cofs = {index: terms_of(q) for index, q in cert.cofactors.items()}
    checks.check_certificate(gens, phi, cofs, rho, n)
    return rho


def _dense_not_found(inst, rho: int) -> None:
    """Re-prove NotFound at rho with the dense solve in ``checks``."""
    gens, phi, n = _plain(inst)
    require(checks.dense_infeasible(gens, phi, rho, n), f"a certificate exists at rho = {rho}")


def _check_macaulay(fam, found, cap: int) -> int | None:
    """A macaulay-generic answer: a certificate within the Macaulay bound
    d(n+1) - n, minimal because NotFound is re-proved one degree lower;
    or NotFound, re-proved at the scan cap.  The family only ensures no
    common zeros at infinity, so a sample can share an affine zero, and
    then 1 is in no degree of the ideal."""
    inst, d, n = fam.instance, fam.params["d"], fam.params["n"]
    if found is None:
        _dense_not_found(inst, cap)
        return None
    rho = _check_found(inst, found, d * (n + 1) - n)
    if rho > 0:
        _dense_not_found(inst, rho - 1)
    return rho


def _kollar_search_op(fam, rho: int) -> Op:
    d, m = fam.params["d"], fam.params["m"]

    def check(cert):
        require(cert is not None, f"NotFound at rho = {rho} >= d^m")
        _check_found(fam.instance, (cert.rho, cert), rho, expect_rho=d**m)

    return Op(
        f"kollar{d}{m}{fam.params['n']}.rho{rho}",
        lambda: certificate.search_at_degree(fam.instance, rho, budget=RAISED),
        check,
    )


def _kollar_scan_op(fam, rho_max: int) -> Op:
    d, m = fam.params["d"], fam.params["m"]
    require(rho_max < d**m, "the scan must stop below rho_min = d^m")

    def check(found):
        require(found is None, f"certificate below rho_min = d^m = {d**m}")

    return Op(
        f"kollar{d}{m}{fam.params['n']}.min{rho_max}",
        lambda: certificate.minimal_degree(fam.instance, rho_max, budget=RAISED),
        check,
    )


def _macaulay_op(fam) -> Op:
    d, n = fam.params["d"], fam.params["n"]
    bound = d * (n + 1) - n

    def check(found):
        _check_macaulay(fam, found, bound)

    return Op(
        f"macaulay.d{d}n{n}",
        lambda: certificate.minimal_degree(fam.instance, bound),
        check,
    )


def _certify(seed: int, small: bool) -> list[Op]:
    rng = random.Random(f"certify-{seed}")
    if small:
        big = families.kollar(2, 3, 3)
        mac = families.macaulay_generic(2, 2, rng)
        return [_kollar_search_op(big, 8), _kollar_scan_op(big, 6), _macaulay_op(mac)]
    big = families.kollar(3, 3, 3)
    mac = families.macaulay_generic(3, 3, rng)
    return [_kollar_search_op(big, 27), _kollar_scan_op(big, 20), _macaulay_op(mac)]


def _bench_cap(fam, hickel: int | None) -> int:
    """The scan cap of ``brisk bench``: 40, the Hickel bound, the family's
    own scan cap, whichever is least."""
    cap = 40 if hickel is None else min(40, hickel)
    return min(cap, fam.params.get("scan_cap", cap))


def _sweep_row(fam, tag: str) -> Op:
    """One ``brisk bench`` row: the bound formulas, the minimal-degree scan
    at default caps, and the family's extra (exponent or emptiness)."""
    inst, inp = fam.instance, fam.bound_inputs

    def call():
        hickel = bounds.hickel_bound_i(inp)
        others = [bounds.jelonek_bound(inp), bounds.hermann_bound(inp)]
        if fam.macaulay_applicable:
            others.append(bounds.macaulay_bound(inp).no_zeros_in_pn)
        found = certificate.minimal_degree(inst, _bench_cap(fam, hickel))
        if fam.name == "cusp":
            extra = localorder.max_bs_exponent(inst.gens, inst.phi, fam.branches)
        else:
            d = max(int(g.degree()) for g in inst.gens)
            proj = inst.ring.extend_front("z0")
            extra = invariants.empty_at_infinity(
                [homogenize(g, d, "z0") for g in inst.gens], Ideal(proj, [])
            )
        return hickel, others, found, extra

    def check(answer):
        hickel, others, found, extra = answer
        if fam.name == "cusp":
            p = fam.params["p"]
            # z1 is not in (z2) + (z1^2 - z2^p) = (z2, z1^2) for any p
            require(found is None, f"certificate for z1 on the cusp p = {p}")
            require(extra == Fraction(p, 2), f"max_bs_exponent {extra}, expected {p}/2")
            return
        if fam.name == "kollar":
            d, m = fam.params["d"], fam.params["m"]
            rho = _check_found(inst, found, d**m, expect_rho=d**m)
            # (0 : .. : 0 : 1) with z_m = 1 is a common zero at infinity
            require(extra is False, "Kollár system reported empty at infinity")
        else:
            d, n = fam.params["d"], fam.params["n"]
            require(others[-1] == d * (n + 1) - n, f"Macaulay bound {others[-1]}")
            require(extra is True, "sampled Macaulay system not empty at infinity")
            rho = _check_macaulay(fam, found, _bench_cap(fam, hickel))
            if rho is None:
                return
        for b in [hickel] + others:
            require(b >= rho, f"a degree bound {b} lies below rho_min {rho}")

    return Op(f"{fam.name}.{tag}", call, check)


def _sweep(seed: int, small: bool) -> list[Op]:
    rng = random.Random(f"sweep-{seed}")
    if small:
        fams = [families.kollar(2, 2, 2), families.macaulay_generic(2, 2, rng), families.cusp(3)]
        return [_sweep_row(f, "0") for f in fams]
    ops = [_sweep_row(families.kollar(d, 2, 2), f"d{d}m2") for d in range(2, 6)]
    ops.append(_sweep_row(families.kollar(2, 3, 3), "d2m3"))
    for d, n in ((2, 2), (3, 2), (4, 2), (2, 3)):
        for k in range(3):
            ops.append(_sweep_row(families.macaulay_generic(d, n, rng), f"d{d}n{n}.{k}"))
    ops += [_sweep_row(families.cusp(p), f"p{p}") for p in range(3, 15, 2)]
    return ops


# ------------------------------------------------------------ groebner


def cyclic(n: int) -> Ideal:
    ring = PolyRing(tuple(f"x{i}" for i in range(n)))
    x = ring.gens()
    gens = []
    for k in range(1, n):
        total = ring.zero()
        for i in range(n):
            term = ring.one()
            for j in range(k):
                term = term * x[(i + j) % n]
            total = total + term
        gens.append(total)
    prod = ring.one()
    for v in x:
        prod = prod * v
    gens.append(prod - ring.one())
    return Ideal(ring, gens)


def katsura(n: int) -> Ideal:
    ring = PolyRing(tuple(f"u{i}" for i in range(n + 1)))
    u = ring.gens()

    def at(k):
        k = abs(k)
        return u[k] if k <= n else ring.zero()

    gens = []
    for m in range(n):
        total = ring.zero()
        for l in range(-n, n + 1):
            total = total + at(l) * at(m - l)
        gens.append(total - u[m])
    total = u[0]
    for l in range(1, n + 1):
        total = total + u[l] * 2
    gens.append(total - ring.one())
    return Ideal(ring, gens)


def _to_gf(ideal: Ideal) -> Ideal:
    field = GF(PRIME)
    return Ideal(ideal.ring, [poly_to_gf(g, field) for g in ideal.gens])


def _basis_op(label: str, ideal: Ideal, solutions: int, p: int | None) -> Op:
    gens = [terms_of(g, p) for g in ideal.gens]

    def check(gb):
        basis = [terms_of(g, p) for g in gb]
        checks.check_groebner(gens, basis, ideal.ring.nvars, solutions, p)

    field = "Q" if p is None else f"GF{p}"
    return Op(f"{label}.{field}", lambda: buchberger(ideal, grevlex()), check)


def _closure_op(d: int) -> Op:
    """Projective closure of the affine rational normal curve
    z_k = z_1^k, k = 2..d, whose closure is cut out by the 2x2 minors."""
    ring = PolyRing(tuple(f"z{i}" for i in range(1, d + 1)))
    z = ring.gens()
    ideal = Ideal(ring, [z[k] - z[0] * z[k - 1] for k in range(1, d)])
    minors = [terms_of(g) for g in rnc(d).gens]

    def check(closure):
        gens = [terms_of(g) for g in closure.gens]
        require(closure.ring.names[0] == "z0", "closure ring must put z0 first")
        for g in gens:
            # (s^d, s^(d-1) t, .., t^d) parametrizes the curve
            image: dict = {}
            for e, c in g.items():
                t = sum(k * x for k, x in enumerate(e))
                image[(sum(e) * d - t, t)] = image.get((sum(e) * d - t, t), 0) + c
            require(not any(image.values()), "a closure generator misses the curve")
        for k, f in enumerate(minors):
            require(not checks.remainder(f, gens), f"minor {k} not in the closure")

    return Op(f"closure.rnc{d}", lambda: certificate.projective_closure(ideal), check)


def _groebner(seed: int, small: bool) -> list[Op]:
    if small:
        return [
            _basis_op("katsura3", katsura(3), 8, None),
            _basis_op("cyclic5", _to_gf(cyclic(5)), 70, PRIME),
            _closure_op(3),
        ]
    c5, c6, k5 = cyclic(5), cyclic(6), katsura(5)
    return [
        _basis_op("katsura6", katsura(6), 64, None),
        _basis_op("cyclic6", _to_gf(c6), 156, PRIME),
        _basis_op("cyclic5", c5, 70, None),
        _basis_op("cyclic5", _to_gf(c5), 70, PRIME),
        _basis_op("katsura5", k5, 32, None),
        _basis_op("katsura5", _to_gf(k5), 32, PRIME),
        _closure_op(5),
    ]


# ------------------------------------------------------------ resolve


def rnc(d: int) -> Ideal:
    """Rational normal curve of degree d in P^d: 2x2 minors of
    [[z0 .. z_{d-1}], [z1 .. z_d]]."""
    ring = PolyRing(tuple(f"z{i}" for i in range(d + 1)))
    z = ring.gens()
    minors = [
        z[i] * z[j + 1] - z[i + 1] * z[j] for i in range(d) for j in range(i + 1, d)
    ]
    return Ideal(ring, minors)


def skew_lines() -> Ideal:
    ring = PolyRing(("z0", "z1", "z2", "z3"))
    w, x, y, z = ring.gens()
    return Ideal(ring, [w * y, w * z, x * y, x * z])


def _resolve_op(label: str, ideal: Ideal, betti: dict, degree: int, with_bef: bool, max_steps=None) -> Op:
    def call():
        res = resolution.minimal_resolution(ideal, max_steps=max_steps)
        codims = resolution.bef_codims(res) if with_bef else None
        hilb = invariants.hilbert_data(buchberger(ideal, grevlex()))
        return res, resolution.regularity(res), codims, hilb

    def check(answer):
        res, reg, codims, hilb = answer
        checks.check_resolution(res.steps, betti)
        require(reg == 2, f"regularity {reg}, expected 2")
        require(hilb.proj_dimension() == 1, "a curve must have dimension 1")
        require(hilb.proj_degree() == degree, f"degree {hilb.proj_degree()}, expected {degree}")
        if codims is not None:
            # Buchsbaum-Eisenbud: the k-th drop-rank locus has codim >= k;
            # the first is the curve itself, of codimension n - 1
            require(len(codims) == res.length, "one codimension per step")
            for k, c in codims:
                require(c >= k, f"drop-rank codimension {c} < {k} at step {k}")
            require(codims[0][1] == ideal.ring.nvars - 2, f"codim of step 1 is {codims[0][1]}")

    return Op(label, call, check)


def _bounds_op(path: str, expect: dict) -> Op:
    """``brisk bounds FILE --compute-invariants``: saturation, Groebner
    basis, Hilbert data, resolution, regularity and the bound table."""

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["bounds", path, "--compute-invariants"])
        return code, out.getvalue()

    def check(answer):
        code, text = answer
        require(code == 0, f"exit code {code}")
        fields = dict(kv.split("=") for kv in text.splitlines()[0][len("inputs: "):].split(";"))
        for k, v in expect.items():
            require(fields.get(k) == v, f"{k}={fields.get(k)}, expected {v}")

    return Op(f"bounds.{os.path.basename(path)}", call, check)


def _resolve(seed: int, small: bool) -> list[Op]:
    en = checks.eagon_northcott
    cubic = _resolve_op("twisted_cubic", rnc(3), en(3), 3, True)
    if small:
        return [cubic, _resolve_op("skew_lines", skew_lines(), {(1, 2): 4, (2, 3): 4, (3, 4): 1}, 2, False)]
    inst = os.path.join(REPO, "instances")
    return [
        cubic,
        _resolve_op("skew_lines", skew_lines(), {(1, 2): 4, (2, 3): 4, (3, 4): 1}, 2, True),
        _resolve_op("rnc4", rnc(4), en(4), 4, True),
        _resolve_op("rnc5.steps20", rnc(5), en(5), 5, False, max_steps=20),
        # a plane quintic: dimension 1, degree 5, regularity 5
        _bounds_op(os.path.join(inst, "cusp5.txt"), {"n": "1", "degX": "5", "regX": "5"}),
        _bounds_op(os.path.join(inst, "kollar.txt"), {"n": "2", "degX": "1", "regX": "1"}),
        # fails today: the step cap nvars + 2 = 8 is below the frame length 10
        _resolve_op("rnc5.default", rnc(5), en(5), 5, False),
    ]
