"""Certificate search: soundness, completeness cross-checks, minimality,
monotone feasibility, projective lifts."""

import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import ascending_minimal_degree, dense_rank, key_of, monomials_up_to

from brisk import certificate, kernel, linalg
from brisk.certificate import (
    Certificate,
    MembershipInstance,
    minimal_degree,
    multi_indices,
    projective_closure,
    projective_lift,
    search_at_degree,
    verify,
)
from brisk.errors import BudgetExceededError
from brisk.families import cusp, kollar, macaulay_generic
from brisk.instances import parse_instance
from brisk.groebner import Budget, Ideal, buchberger
from brisk.orders import grevlex
from brisk.polyring import NEG_INF, PolyRing

R = PolyRing(("z1", "z2"))
Z1, Z2 = R.gens()


def kollar_instance(d=2):
    return MembershipInstance(
        R, Ideal(R, []), (Z1**d, Z1 * Z2 ** (d - 1) - 1), R.one()
    )


def cusp_instance(p=5):
    return MembershipInstance(R, Ideal(R, [Z1**2 - Z2**p]), (Z2,), Z1)


def oracle_feasible(inst, rho: int) -> bool:
    """Independent path: dense matrix of all basis products, feasibility by
    rank comparison rank(A) == rank([A | b])."""
    gb = buchberger(inst.variety)
    columns = []
    for index in multi_indices(inst.m, inst.power):
        base = R.one()
        for gpoly, e in zip(inst.gens, index):
            base = base * gpoly**e
        cap = rho - int(base.degree())
        if cap < 0:
            continue
        for alpha in monomials_up_to(inst.ring.nvars, cap):
            columns.append(gb.normal_form(inst.ring.monomial(alpha, 1) * base))
    target = gb.normal_form(inst.phi)
    monos = set(target.terms)
    for c in columns:
        monos.update(c.terms)
    basis = sorted(monos)
    ridx = {e: i for i, e in enumerate(basis)}
    a_rows = [[Fraction(0)] * len(columns) for _ in basis]
    ab_rows = [[Fraction(0)] * (len(columns) + 1) for _ in basis]
    for j, c in enumerate(columns):
        for e, v in c.terms.items():
            a_rows[ridx[e]][j] = v
            ab_rows[ridx[e]][j] = v
    for e, v in target.terms.items():
        ab_rows[ridx[e]][-1] = v
    if not columns:
        return not target
    return dense_rank(a_rows) == dense_rank(ab_rows)


class TestSearchAtDegree:
    def test_kollar_found_at_four(self):
        cert = search_at_degree(kollar_instance(), 4)
        assert cert is not None and cert.verified
        assert cert.rho == 4
        # the canonical certificate: Q1 = z2^2, Q2 = -1 - z1 z2, and the
        # identity z1^2 z2^2 - (z1 z2 - 1)(1 + z1 z2) = 1 holds on the nose
        q1, q2 = Z2**2, -1 * (R.one() + Z1 * Z2)
        assert Z1**2 * q1 + (Z1 * Z2 - 1) * q2 == R.one()
        assert cert.cofactor(0) == q1
        assert cert.cofactor(1) == q2

    def test_kollar_not_found_at_three(self):
        assert search_at_degree(kollar_instance(), 3) is None

    def test_per_generator_cap_blocks(self):
        # forcing deg Q1 <= 1 kills feasibility at any degree
        assert search_at_degree(kollar_instance(), 10, {0: 1}) is None

    @pytest.mark.parametrize("key", [-1, 2])
    def test_cap_on_a_generator_outside_the_instance(self, key):
        # kollar has two generators: -1 must not wrap to the last one
        with pytest.raises(ValueError, match="generator index"):
            search_at_degree(kollar_instance(), 4, {key: 1})

    def test_generator_membership_trivial(self):
        inst = MembershipInstance(R, Ideal(R, []), (Z1**2, Z2), Z1**2)
        cert = search_at_degree(inst, 2)
        assert cert is not None and cert.rho == 2
        assert cert.cofactor(0) == R.one() and cert.cofactor(1) is None

    def test_phi_in_variety_gives_zero_certificate(self):
        inst = MembershipInstance(R, Ideal(R, [Z1**2 - Z2**5]), (Z2,), Z1**2 - Z2**5)
        cert = search_at_degree(inst, 0)
        assert cert is not None and cert.cofactors == {} and cert.rho == NEG_INF

    def test_zero_certificate_has_no_cofactor(self):
        inst = MembershipInstance(R, Ideal(R, [Z1**2 - Z2**5]), (Z2,), Z1**2 - Z2**5)
        cert = search_at_degree(inst, 0)
        assert cert.cofactor(0) is None and cert.cofactor((1,)) is None

    def test_matrix_budget(self):
        with pytest.raises(BudgetExceededError):
            search_at_degree(
                kollar_instance(), 12, budget=Budget(max_matrix_entries=10)
            )

    def test_completeness_against_rank_oracle(self):
        for inst in (kollar_instance(), cusp_instance()):
            for rho in range(0, 7):
                got = search_at_degree(inst, rho)
                assert (got is not None) == oracle_feasible(inst, rho)


class TestPackedSystem:
    """The search builds its columns and rows on packed monomials."""

    @pytest.mark.parametrize("nvars", [1, 2, 3, 4])
    def test_int_order_is_the_grevlex_column_and_row_order(self, nvars):
        ring = PolyRing(tuple(f"z{i}" for i in range(1, nvars + 1)))
        for cap in range(7):
            packing = kernel.packing(grevlex(), nvars, kernel.bits_for(cap))
            exps = ring.exponents_up_to(cap)
            keys = sorted(map(packing.pack, exps), reverse=True)
            assert [packing.unpack(k) for k in keys] == sorted(
                exps, key=lambda e: key_of(e, grevlex()), reverse=True
            )

    @pytest.mark.parametrize("p", [13, 129])
    def test_width_holds_reducers_above_rho(self, p):
        # the scan starts at rho = 1 while the variety reducer z2^p - z1^2
        # has degree p; at p = 129 it outgrows the narrowest packing
        assert search_at_degree(cusp(p).instance, 1) is None

    @pytest.mark.parametrize("nvars", [1, 2, 3, 4])
    def test_columns_are_the_packed_and_sorted_shifts(self, nvars):
        # shifts grown degree by degree from packing.weights come per I in
        # the order of the packed and sorted exponents, and each column is
        # NF(x^alpha F^I)
        ring = PolyRing(tuple(f"z{i}" for i in range(1, nvars + 1)))
        z1, zn = ring.var(0), ring.var(nvars - 1)
        gens = (z1, zn**2 + 1)  # caps rho - 1 and rho - 2
        for variety in ([], [z1**3 - zn - 1]):
            for caps in (None, {0: 4, 1: 0}):
                inst = MembershipInstance(ring, Ideal(ring, variety), gens, ring.one())
                source = certificate._Columns(inst, 10, caps, Budget())
                gb, pack = buchberger(inst.variety), source.packing.pack
                for rho in range(11):
                    want = []
                    for j, index in enumerate(multi_indices(2, 1)):
                        cap = rho - int(gens[j].degree())
                        cap = min(cap, (caps or {}).get(j, cap))
                        shifts = sorted(map(pack, ring.exponents_up_to(cap)))
                        want += [(index, shift) for shift in shifts]
                    got = dict(source.columns(rho))
                    assert list(got) == want
                for (index, shift), col in got.items():
                    g = gens[index.index(1)]
                    nf = gb.normal_form(ring.monomial(source.packing.unpack(shift), 1) * g)
                    assert col == source.packing.pack_terms(nf.terms)

    def test_scan_packs_no_shift(self, monkeypatch):
        # over C^N a scan packs NF(Phi) and each NF(F^I), and no shift;
        # the pick packs its homogenized generators, with one more variable
        packed = []
        pack = kernel.Packing.pack
        monkeypatch.setattr(
            kernel.Packing, "pack", lambda self, e: packed.append(e) or pack(self, e)
        )
        inst = kollar(3, 3, 3).instance
        assert minimal_degree(inst, 20, budget=Budget(max_matrix_entries=10**9)) is None
        affine = [e for e in packed if len(e) == inst.ring.nvars]
        assert len(affine) == len(inst.phi.terms) + sum(len(g.terms) for g in inst.gens)
        assert all(len(e) == inst.ring.nvars + 1 for e in packed if e not in affine)

    def test_search_on_a_wider_scan_source(self):
        # a scan to rho = 64 packs wider fields than rho = 63 needs; its
        # searches read the scan's packing and reduced columns
        inst = MembershipInstance(
            R, Ideal(R, [Z1**2 - Z2**3]), (Z2, Z1 + Z2**2), Z1**2 * Z2 + Z1
        )
        caps = {0: 3, 1: 3}
        source = certificate._Columns(inst, 64, caps, Budget())
        assert source.packing.bits > kernel.bits_for(63)
        for rho in (63, 64):
            cert = search_at_degree(inst, rho, _source=source)
            assert cert is not None and cert == search_at_degree(inst, rho, caps)
        assert source.reduced


class TestCofactorCap:
    """More than ``MAX_COFACTORS`` multi-indices is a budget error, raised
    when the columns are first enumerated: a target in the variety ideal
    needs none."""

    GENS = (Z1, Z2, Z1 + Z2, Z1 - Z2)  # m = 4, power 13: 560 multi-indices
    MESSAGE = "560 cofactors exceed the 500 cap"

    def test_too_many_cofactors(self):
        assert len(multi_indices(4, 13)) == 560 > certificate.MAX_COFACTORS
        inst = MembershipInstance(R, Ideal(R, []), self.GENS, R.one(), power=13)
        with pytest.raises(BudgetExceededError, match=self.MESSAGE):
            search_at_degree(inst, 13)
        with pytest.raises(BudgetExceededError, match=self.MESSAGE):
            minimal_degree(inst, 13)

    def test_zero_target_needs_no_cofactor(self):
        inst = MembershipInstance(R, Ideal(R, []), self.GENS, R.zero(), power=13)
        cert = search_at_degree(inst, 13)
        assert cert.verified and not cert.cofactors and cert.rho == NEG_INF
        assert minimal_degree(inst, 13) == (0, cert)


class TestMinimalDegree:
    def test_kollar_sharpness(self):
        rho, cert = minimal_degree(kollar_instance(), 10)
        assert rho == 4  # = d^m
        assert cert.verified

    def test_kollar_d3(self):
        rho, cert = minimal_degree(kollar_instance(d=3), 12)
        assert rho == 9
        assert cert.verified

    def test_kollar_333_sharp(self):
        # the sharp example: rho_min = d^m = 27; the rho = 27 system is
        # 4057x8775, past the default rows x cols cap
        inst = kollar(3, 3, 3).instance
        found = minimal_degree(inst, 27, budget=Budget(max_matrix_entries=10**9))
        assert found is not None
        rho, cert = found
        assert rho == 27 and cert.rho == 27
        assert cert.verified and verify(inst, cert)

    def test_cusp_never_found(self):
        assert minimal_degree(cusp_instance(), 12) is None

    def test_monotone_feasibility(self):
        inst = kollar_instance()
        rho, _ = minimal_degree(inst, 8)
        for later in range(rho, rho + 3):
            assert search_at_degree(inst, later) is not None
        for earlier in range(0, rho):
            assert search_at_degree(inst, earlier) is None


class TestDeferredProof:
    """``minimal_degree`` searches only at its exact pick, and the pick's
    truncated basis refutes the degree below it, which proves every lower
    degree by monotonicity; a pick that the search or the refutation
    contradicts is a bug."""

    SCANS = [(kollar(2, 2, 2).instance, 10, 4), (cusp(5).instance, 12, None)]

    @staticmethod
    def _spy_lifts(monkeypatch, fail_first_witness=False):
        lifts = []  # (kind, prime, irows, answer)
        for kind, name in (("solution", "_lift_solution"), ("witness", "_lift_witness")):
            real = getattr(linalg, name)

            def spy(irows, *rest, kind=kind, real=real):
                factors = rest[-1]
                if kind == "witness" and fail_first_witness and not lifts:
                    answer = None  # as if the lift had passed its bound
                else:
                    answer = real(irows, *rest)
                lifts.append((kind, factors.p, irows, answer))
                return answer

            monkeypatch.setattr(linalg, name, spy)
        return lifts

    @staticmethod
    def _spy_searches(monkeypatch):
        searched = []  # the degree of each exact search of the scan
        search = certificate.search_at_degree

        def spy(inst, rho, *args, **kwargs):
            searched.append(rho)
            return search(inst, rho, *args, **kwargs)

        monkeypatch.setattr(certificate, "search_at_degree", spy)
        return searched

    @pytest.mark.parametrize("inst, rho_max, rho_min", SCANS, ids=["kollar222", "cusp5"])
    def test_a_scan_lifts_at_most_one_system(self, monkeypatch, inst, rho_max, rho_min):
        lifts = self._spy_lifts(monkeypatch)
        found = minimal_degree(inst, rho_max)
        assert (None if found is None else found[0]) == rho_min
        # Found: the solution at rho_min; NotFound: none, the basis
        # refutes rho_max
        kinds = ["solution"] if rho_min else []
        assert [kind for kind, *_ in lifts] == kinds
        assert all(answer is not None for *_, answer in lifts)

    @pytest.mark.parametrize("inst, rho_max, rho_min", SCANS, ids=["kollar222", "cusp5"])
    def test_a_wrong_pick_is_a_bug(self, monkeypatch, inst, rho_max, rho_min):
        # the pick one degree too low, one too high or none, each with the
        # real basis; on a NotFound scan, the first degree with a column
        # or the last
        picks = [rho_min - 1, rho_min + 1, None] if rho_min else [1, rho_max]
        pick_degree = certificate._pick_degree
        searched = self._spy_searches(monkeypatch)
        for pick in picks:

            def wrong(*args, pick=pick):
                return pick, pick_degree(*args)[1]

            monkeypatch.setattr(certificate, "_pick_degree", wrong)
            searched.clear()
            with pytest.raises(AssertionError):
                minimal_degree(inst, rho_max)
            # no degree below the pick is searched, and none twice
            assert searched in ([], [pick])

    def test_next_prime_proves_after_a_failed_lift(self, monkeypatch):
        # a scan lifts no witness, so the witness lift is shown on the
        # search at the scan's rho_max
        lifts = self._spy_lifts(monkeypatch, fail_first_witness=True)
        searched = self._spy_searches(monkeypatch)
        assert certificate.search_at_degree(cusp(5).instance, 12) is None
        (_, p, first, failed), (kind, q, second, answer) = lifts
        assert failed is None and p == linalg.P
        # the same system, proven by a witness mod the next prime
        assert kind == "witness" and second is first
        assert q == next(linalg._primes(p - 2))
        assert answer[0] is False and answer[1]
        assert searched == [12]  # no exact rescan

    def test_scan_searches_only_at_the_answer(self, monkeypatch):
        searched = self._spy_searches(monkeypatch)
        for (inst, rho_max, rho_min), want in zip(self.SCANS, ([4], [])):
            searched.clear()
            minimal_degree(inst, rho_max)
            assert searched == want

    def test_span_missing_a_member_mod_p(self, monkeypatch):
        # z1 = (F1 - F2) / P over Q, but mod P both columns are z2: the
        # exact pick is not misled by the prime
        searched = self._spy_searches(monkeypatch)
        inst = MembershipInstance(R, Ideal(R, []), (linalg.P * Z1 + Z2, Z2), Z1)
        rho, cert = minimal_degree(inst, 3)
        assert searched == [1]
        assert rho == 1 and cert.verified
        assert cert.cofactor(0) == R.one() * Fraction(1, linalg.P)

    def test_span_holding_a_non_member_mod_p(self, monkeypatch):
        # z1 + P z2 is z1 mod P, in the span mod P of F = z1 at rho = 1,
        # but it lies in no degree of (z1) over Q: neither the pick and
        # its refutation nor the exact search is misled by the prime
        searched = self._spy_searches(monkeypatch)
        inst = MembershipInstance(R, Ideal(R, []), (Z1,), Z1 + linalg.P * Z2)
        assert minimal_degree(inst, 3) is None
        assert searched == []
        assert certificate.search_at_degree(inst, 3) is None

    def test_budget_error_at_the_degree_of_the_ascending_scan(self):
        # rho_min is 16; the search at 15 refuses its system while it is
        # built, at the first column that takes rows x columns past the cap
        message = (
            r"the linear system at rho = 15 reaches 470x426, over 200000 entries "
            r"\(raise max_matrix_entries"
        )
        with pytest.raises(BudgetExceededError, match=message):
            minimal_degree(kollar(4, 2, 3).instance, 17)

    def test_a_refused_system_reads_few_columns(self, monkeypatch):
        # kollar(7, 4, 4) has no certificate up to 40; the system at 40
        # would have 4 * C(37, 4) = 264180 columns, and the meter stops
        # it in the batch where rows x columns first passes the cap
        read = []
        batches = certificate._Columns.batches

        def counted(self, tops):
            for batch in batches(self, tops):
                read.extend(batch)
                yield batch

        monkeypatch.setattr(certificate._Columns, "batches", counted)
        with pytest.raises(BudgetExceededError, match="at rho = 40"):
            minimal_degree(kollar(7, 4, 4).instance, 40)
        assert 0 < len(read) <= 500


# search_at_degree's answer to a ladder of matrix caps, recorded before
# the search built only the block of NF(Phi): the size in the budget
# message, or the answer when no cap fires.  The meter counts the whole
# system as if it were built column by column.  At the cap 10^3,
# kollar423 refuses at column 32, inside the batch of the first I at the
# monomials of degree 4 (columns 21 to 35)
LADDER_CASES = {
    "kollar423": (lambda: kollar(4, 2, 3).instance, 15),
    "kollar433": (lambda: kollar(4, 3, 3).instance, 64),
    "cusp5": (lambda: cusp(5).instance, 12),
}
LADDER = {
    "kollar423": {
        10**3: "33x32", 10**4: "101x100", 10**5: "317x316", 200_000: "470x426",
        **dict.fromkeys([10**k for k in range(6, 12)], "none"),
    },
    "kollar433": {
        10**3: "33x32", 10**4: "101x100", 10**5: "317x316", 10**6: "1001x1000",
        10**7: "3163x3162", 10**8: "10001x10000", 10**9: "31624x31623",
        2 * 10**9: "42380x47193", 5_700_000_000: "47901x118996",
        10**10: "found", 10**11: "found",
    },
    "cusp5": {
        10**3: "30x35", 2000: "39x53",
        **dict.fromkeys([10**k for k in range(4, 12)], "none"),
    },
}


@pytest.mark.parametrize(
    "name, cap", [(name, cap) for name, caps in LADDER.items() for cap in caps]
)
def test_matrix_cap_ladder(name, cap):
    make, rho = LADDER_CASES[name]
    inst, want = make(), LADDER[name][cap]
    budget = Budget(max_matrix_entries=cap)
    if want in ("found", "none"):
        cert = search_at_degree(inst, rho, budget=budget)
        assert (cert is not None and cert.verified) == (want == "found")
        return
    message = (
        f"budget exhausted: the linear system at rho = {rho} reaches {want}, "
        f"over {cap} entries (raise max_matrix_entries / --budget-matrix)"
    )
    with pytest.raises(BudgetExceededError) as err:
        search_at_degree(inst, rho, budget=budget)
    assert str(err.value) == message


def _random_on_a_quadric(seed):
    """Two generators and a target on V(q), each of degree <= 2.  By seed
    mod 3: the target is a combination of the generators; it is random;
    or q and the generators vanish at 0 and the target does not."""
    rng = random.Random(seed)
    kind = seed % 3

    def poly(d):
        exps = R.exponents_up_to(d)[kind == 2:]  # [1:] drops the constant
        return sum((rng.randint(-2, 2) * R.monomial(e, 1) for e in exps), R.zero())

    q = poly(rng.randint(1, 2)) or Z1
    gens = tuple(poly(rng.randint(1, 2)) or Z2 for _ in range(2))
    if kind == 0:
        phi = gens[0] * poly(1) + gens[1] * poly(1)
    else:
        phi = poly(2) + (kind == 2)
    return MembershipInstance(R, Ideal(R, [q]), gens, phi)


def _pick_corpus():
    cases = [(f"kollar{d}22", kollar(d, 2, 2).instance, d * d + 1) for d in range(2, 6)]
    cases.append(("kollar233", kollar(2, 3, 3).instance, 9))
    cases.append(("kollar422_below", kollar(4, 2, 2).instance, 15))
    for d, n in ((2, 2), (3, 2), (4, 2), (2, 3)):
        rng = random.Random(10 * d + n)
        for k in range(3):
            inst = macaulay_generic(d, n, rng).instance
            cases.append((f"macaulay_d{d}n{n}_{k}", inst, d * (n + 1) - n + 1))
    cases += [(f"cusp{p}", cusp(p).instance, 2 * p + 4) for p in range(3, 14, 2)]
    for path in sorted(Path(__file__).parent.parent.joinpath("instances").glob("*.txt")):
        parsed = parse_instance(path.read_text(encoding="utf-8"))
        if parsed.phi is not None:
            cases.append((path.stem, parsed.membership_instance(), 20))
    plane, curve = Ideal(R, []), Ideal(R, [Z1**2 - Z2**5])
    for ell in (2, 3):
        kollar_power = MembershipInstance(R, plane, (Z1**2, Z1 * Z2 - 1), R.one(), ell)
        cases.append((f"kollar_power{ell}", kollar_power, 4 * ell + 2))
        cusp_power = MembershipInstance(R, curve, (Z2, Z1), Z1 * Z2**ell, ell)
        cases.append((f"cusp_power{ell}", cusp_power, 8))
    cases += [(f"quadric{seed}", _random_on_a_quadric(seed), 7) for seed in range(9)]
    return cases


class TestPickAgainstAscendingScan:
    """``minimal_degree`` against the scan that searches every degree:
    the same rho_min and the same cofactors, or None from both."""

    CORPUS = _pick_corpus()

    @pytest.mark.parametrize("inst, rho_max", [c[1:] for c in CORPUS], ids=[c[0] for c in CORPUS])
    def test_same_answer(self, inst, rho_max):
        got, want = minimal_degree(inst, rho_max), ascending_minimal_degree(inst, rho_max)
        if want is None:
            assert got is None
        else:
            assert got[0] == want[0] and got[1].cofactors == want[1].cofactors

    def test_the_pick_counts_its_pairs(self):
        # over C^N the variety ideal needs no S-pair, and the pick's basis does
        with pytest.raises(BudgetExceededError, match="S-pairs"):
            minimal_degree(kollar(2, 2, 2).instance, 6, budget=Budget(max_pairs=0))

    def test_corpus_has_both_answers(self):
        answers = [ascending_minimal_degree(inst, rho_max) for _, inst, rho_max in self.CORPUS]
        assert sum(a is None for a in answers) == 11
        assert sum(a is not None and a[0] > 0 for a in answers) == len(answers) - 11


def _picked(inst, rho_max, budget=Budget()):
    """(the pick, its proof) for a scan of ``inst`` up to ``rho_max``."""
    source = certificate._Columns(inst, rho_max, None, budget)
    return certificate._pick_degree(source, rho_max, budget)


def _random_sparse(seed):
    """A power-2 instance over C^N with sparse Fraction coefficients.  By
    seed mod 3: the target is a combination of the squares and products
    of the generators; it is random; or it is 1."""
    rng = random.Random(seed)
    ring = PolyRing(("x", "y", "z")[: 2 + seed % 2])
    kind = seed % 3

    def poly(degree, terms):
        exps = rng.sample(ring.exponents_up_to(degree), terms)
        coeff = lambda: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
        return sum((ring.monomial(e, coeff()) for e in exps), ring.zero())

    gens = tuple(poly(rng.randint(1, 2), rng.randint(1, 3)) for _ in range(2))
    if kind == 0:
        phi = sum((a * b * poly(1, 2) for a in gens for b in gens), ring.zero()) or ring.one()
    else:
        phi = poly(3, 3) if kind == 1 else ring.one()
    return MembershipInstance(ring, Ideal(ring, []), gens, phi, power=2)


def _on_curves():
    """Instances on the cusp z1^2 = z2^5 and the affine twisted cubic
    (t, t^2, t^3), with and without certificates."""
    A = PolyRing(("z1", "z2", "z3"))
    a1, a2, a3 = A.gens()
    cubic = Ideal(A, [a2 - a1**2, a3 - a1 * a2])
    cusp5 = Ideal(R, [Z1**2 - Z2**5])
    return [
        ("cubic_t_minus_1", MembershipInstance(A, cubic, (a1 - 1,), a3 - 1), 6),
        ("cubic_no_common_zero", MembershipInstance(A, cubic, (a2 - 1, a3), A.one()), 8),
        ("cubic_nonzero_at_origin", MembershipInstance(A, cubic, (a1,), a2 + 1), 6),
        ("cubic_power", MembershipInstance(A, cubic, (a1, a2), a3, 2), 6),
        ("cusp_no_common_zero", MembershipInstance(R, cusp5, (Z1, Z2 - 1), R.one()), 12),
        ("cusp_one_branch", MembershipInstance(R, cusp5, (Z2 - 1,), Z1 - 1), 12),
    ]


REFUTE_EXTRA = [(f"sparse{seed}", _random_sparse(seed), 5) for seed in range(9)] + _on_curves()
REFUTE_CORPUS = _pick_corpus() + REFUTE_EXTRA


class TestRefutation:
    """``_refutes(proof, D)`` holds at exactly the degrees D <= rho_max
    where the exact search finds nothing, at every D, not only below the
    pick."""

    @pytest.mark.parametrize(
        "inst, rho_max", [c[1:] for c in REFUTE_CORPUS], ids=[c[0] for c in REFUTE_CORPUS]
    )
    def test_refutes_exactly_where_the_search_finds_nothing(self, inst, rho_max):
        _, proof = _picked(inst, rho_max)
        for rho in range(rho_max + 1):
            assert certificate._refutes(proof, rho) == (search_at_degree(inst, rho) is None), rho

    def test_the_added_cases_have_both_answers(self):
        answers = [ascending_minimal_degree(inst, rho_max) for _, inst, rho_max in REFUTE_EXTRA]
        assert sum(a is None for a in answers) == 7
        assert sum(a is not None and a[0] > 0 for a in answers) == 7


class TestRefutationSoundness:
    """A set that is not a truncated basis of K, or that misses part of
    K, refutes nothing."""

    # (instance, rho_max, the refuted degree): below a Found pick on the
    # plane, and at the cap of a scan that finds none on the cusp, where
    # z1 - 1 vanishes on one branch over z2 = 1 but not the other
    CASES = [
        (kollar(2, 2, 2).instance, 6, 3),
        (macaulay_generic(2, 2, random.Random(22)).instance, 4, 3),
        (MembershipInstance(R, Ideal(R, [Z1**2 - Z2**5]), (Z2 - 1,), Z1 - 1), 12, 12),
    ]

    @pytest.mark.parametrize("inst, rho_max, rho", CASES, ids=["kollar222", "macaulay22", "cusp_one_branch"])
    def test_a_dropped_element_or_a_changed_coefficient_is_rejected(self, inst, rho_max, rho):
        _, proof = _picked(inst, rho_max)
        assert certificate._refutes(proof, rho)
        low = [i for i, (_, degree) in enumerate(proof.basis) if degree <= rho]
        assert low
        for i in low:
            basis = proof.basis[:i] + proof.basis[i + 1 :]
            assert not certificate._refutes(replace(proof, basis=basis), rho), i
        changed = 0
        for i in low:
            (lead, lc, tail), degree = proof.basis[i]
            if not tail:
                continue
            (e, c), *rest = tail
            basis = list(proof.basis)
            basis[i] = (lead, lc, ((e, c + 1 or 2), *rest)), degree
            assert not certificate._refutes(replace(proof, basis=tuple(basis)), rho), i
            changed += 1
        assert changed

    @staticmethod
    def _triangle(h_squared):
        """x y + c h^2, x z, y z in x, y, z, h: three leads with the one
        lcm x y z, a basis exactly when c = 0; Phi' = h^2."""
        packing = kernel.packing(grevlex(), 4, 8)
        polys = [{(1, 1, 0, 0): 1, (0, 0, 0, 2): h_squared}, {(1, 0, 1, 0): 1}, {(0, 1, 1, 0): 1}]
        polys = [packing.pack_terms({e: c for e, c in t.items() if c}) for t in polys]
        return certificate._Proof(
            packing,
            tuple((t, 2) for t in polys),
            tuple((kernel.reducer(max(t), t), 2) for t in polys),
            packing.pack_terms({(0, 0, 0, 2): 1}),
            2,
            Budget(),
        )

    def test_the_chain_rule_is_strict(self, monkeypatch):
        proof = self._triangle(h_squared=1)
        leads = [proof.packing.unpack(r[0]) for r, _ in proof.basis]
        assert len({tuple(map(max, a, b)) for a in leads for b in leads if a != b}) == 1
        reduced = []
        s_poly = kernel.s_poly
        monkeypatch.setattr(kernel, "s_poly", lambda *args: reduced.append(args) or s_poly(*args))
        # S(x y + h^2, x z) = z h^2, which no lead divides
        assert not certificate._refutes(proof, 3)
        assert reduced
        # the monomials x y, x z, y z are a basis, and h^3 is outside it
        reduced.clear()
        assert certificate._refutes(self._triangle(h_squared=0), 3)
        assert len(reduced) == 3

    def test_the_check_counts_its_pairs(self):
        proof = replace(self._triangle(h_squared=0), budget=Budget(max_pairs=2))
        with pytest.raises(BudgetExceededError, match="more than 2 S-pairs"):
            certificate._refutes(proof, 3)
        # below the lcm degree no pair is taken
        assert certificate._refutes(proof, 2)


class TestVerify:
    def test_returned_certificates_reverify(self):
        rng = random.Random(3)
        inst = kollar_instance()
        _, cert = minimal_degree(inst, 6)
        assert verify(inst, cert)

    def test_perturbed_certificate_fails(self):
        inst = kollar_instance()
        _, cert = minimal_degree(inst, 6)
        index, q = next(iter(cert.cofactors.items()))
        bad = dict(cert.cofactors)
        bad[index] = q + 1
        assert not verify(
            inst, Certificate(power=1, cofactors=bad, rho=cert.rho, verified=True)
        )

    def test_power_generator_membership(self):
        inst = MembershipInstance(
            R, Ideal(R, []), (Z1**2, Z1 * Z2 - 1), (Z1**2) ** 2, power=2
        )
        cert = search_at_degree(inst, 4)
        assert cert is not None
        assert cert.cofactor((2, 0)) == R.one()
        assert verify(inst, cert)

    @staticmethod
    def _with(cert, index, q):
        cofactors = dict(cert.cofactors)
        cofactors[index] = q
        return replace(cert, cofactors=cofactors)

    def test_rational_coefficients(self):
        # F, Phi and the cofactors all have denominators, and they differ
        f1 = Fraction(1, 2) * Z1**2 - Fraction(2, 3) * Z2
        f2 = Fraction(3, 4) * Z1 * Z2 + Fraction(1, 5)
        q1 = Fraction(5, 7) * Z2 + Fraction(1, 9)
        q2 = Fraction(-1, 3) * Z1 + Fraction(2, 11) * Z2**2
        inst = MembershipInstance(R, Ideal(R, []), (f1, f2), f1 * q1 + f2 * q2)
        cert = Certificate(power=1, cofactors={(1, 0): q1, (0, 1): q2}, rho=4)
        assert verify(inst, cert)
        assert not verify(inst, self._with(cert, (0, 1), q2 + Fraction(1, 13) * Z1))
        # a searched certificate of a scaled Kollar system
        inst = MembershipInstance(
            R, Ideal(R, []), (Fraction(1, 2) * Z1**2, Fraction(2, 3) * Z1 * Z2 - Fraction(5, 7)),
            R.const(Fraction(3, 4)),
        )
        rho, cert = minimal_degree(inst, 6)
        assert rho == 4 and verify(inst, cert)
        assert any(c.denominator > 1 for q in cert.cofactors.values() for c in q.terms.values())

    def test_perturbed_power_certificate_fails(self):
        inst = MembershipInstance(R, Ideal(R, []), (Z1**2, Z1 * Z2 - 1), R.one(), power=2)
        rho, cert = minimal_degree(inst, 8)
        assert rho == 8 and verify(inst, cert)
        q = cert.cofactor((1, 1))
        assert not verify(inst, self._with(cert, (1, 1), q + Fraction(1, 3) * Z2))

    def test_residual_in_the_variety_ideal(self):
        # on the cusp z1^2 = z2^5, z1^2 = z2 * z2^4: the residual
        # z1^2 - z2^5 is nonzero in the ring and lies in I(V)
        inst = MembershipInstance(
            R, Ideal(R, [Z1**2 - Z2**5]), (Fraction(2, 3) * Z2,), Fraction(1, 2) * Z1**2
        )
        cert = Certificate(power=1, cofactors={(1,): Fraction(3, 4) * Z2**4}, rho=5)
        assert inst.phi - inst.gens[0] * cert.cofactor(0)
        assert verify(inst, cert)
        assert not verify(inst, self._with(cert, (1,), Fraction(3, 4) * Z2**4 + Z2))

    def test_malformed_certificates(self):
        inst = kollar_instance()
        _, cert = minimal_degree(inst, 6)
        q = cert.cofactor(0)
        assert not verify(inst, replace(cert, power=2))
        assert not verify(inst, self._with(cert, (1, 0, 0), q))  # index length
        assert not verify(inst, self._with(cert, (2, 0), q))  # index weight
        other = PolyRing(("a", "b"))
        assert not verify(inst, self._with(cert, (1, 0), other.one()))


class TestPowerCase:
    def test_multi_index_enumeration(self):
        assert multi_indices(2, 2) == [(2, 0), (1, 1), (0, 2)]
        assert multi_indices(3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert len(multi_indices(4, 3)) == 20

    def test_power_certificate_and_bound(self):
        from brisk.bounds import BoundInputs, CInf, power_bound

        inst = MembershipInstance(
            R, Ideal(R, []), (Z1**2, Z1 * Z2 - 1), (Z1**2) ** 2, power=2
        )
        rho, cert = minimal_degree(inst, 16)
        bound = power_bound(
            BoundInputs(
                ambient=2, dim=2, m=2, d=2, deg_phi=4, deg_x=1, reg_x=1,
                ell=2, mu_zero=0, c_inf=CInf.explicit(2),
            )
        )
        assert cert.rho <= bound
        assert rho <= bound


class TestProjectiveLift:
    def test_kollar_lift_identity(self):
        inst = kollar_instance()
        rho, cert = minimal_degree(inst, 6)
        lift = projective_lift(inst, cert, rho)
        # z1^2 q1 + (z1 z2 - z0^2) q2 = z0^4 exactly
        P = lift.ring
        acc = P.zero()
        for index, q in lift.cofactors.items():
            prod = q
            for f, e in zip(lift.fs, index):
                prod = prod * f**e
            acc = acc + prod
        assert acc == P.var(0) ** lift.z0_power * lift.phi

    def test_trivial_generator_lift(self):
        inst = MembershipInstance(R, Ideal(R, []), (Z1**2 + Z2,), Z1**2 + Z2)
        rho, cert = minimal_degree(inst, 4)
        assert rho == 2 and cert.cofactor((1,)) == R.one()
        lift = projective_lift(inst, cert, 3)
        assert lift.cofactors[(1,)] == lift.ring.var(0)  # q = z0^(rho - d)

    def test_lift_on_variety(self):
        # z1^2 = z2^(p-1) * z2 + 1 * (z1^2 - z2^p) on the cusp
        p = 5
        inst = MembershipInstance(R, Ideal(R, [Z1**2 - Z2**p]), (Z2,), Z1**2)
        rho, cert = minimal_degree(inst, p + 1)
        assert rho == p
        lift = projective_lift(inst, cert, rho)
        assert lift.z0_power == rho - 2

    def test_all_found_certificates_lift(self):
        instances = [
            kollar_instance(),
            kollar_instance(d=3),
            MembershipInstance(R, Ideal(R, []), (Z1**2, Z1 * Z2 - 1), (Z1**2) ** 2, power=2),
            MembershipInstance(R, Ideal(R, [Z1**2 - Z2**5]), (Z2,), Z2**3),
        ]
        for inst in instances:
            found = minimal_degree(inst, 12)
            assert found is not None
            rho, cert = found
            projective_lift(inst, cert, max(rho, inst.power * max(int(g.degree()) for g in inst.gens)))


class TestProjectiveClosure:
    def test_cusp_closure(self):
        ideal = Ideal(R, [Z1**2 - Z2**5])
        closure = projective_closure(ideal)
        G = buchberger(closure)
        assert list(G.basis) == [G.ring.parse("z1^2*z0^3 - z2^5")]

    def test_twisted_cubic_from_affine(self):
        # affine twisted cubic (t, t^2, t^3): ideal (z2 - z1^2, z3 - z1 z2)
        A = PolyRing(("z1", "z2", "z3"))
        a1, a2, a3 = A.gens()
        closure = projective_closure(Ideal(A, [a2 - a1**2, a3 - a1 * a2]))
        G = buchberger(closure)
        assert len(G.basis) == 3  # the three quadrics
        assert all(g.degree() == 2 for g in G.basis)
