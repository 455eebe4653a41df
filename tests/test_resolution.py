"""Free resolutions: syzygies, minimality, exactness, Betti tables,
regularity, and the drop-rank codimension bounds against the minors of
the Fitting ideals."""

import dataclasses
import itertools
import random
from math import comb

import pytest

from conftest import random_forms_ideal, skew_lines_ideal, twisted_cubic_ideal
from oracles import fitting_ideal_gens, generic_rank, mat_mul, schur_minimalize, syzygy_dimension_at_degree
from test_golden import _resolution_cases

from brisk import kernel, modules, resolution
from brisk.errors import BudgetExceededError
from brisk.fields import GF, GFElement, poly_to_gf
from brisk.groebner import Ideal, buchberger, membership
from brisk.invariants import hilbert_data
from brisk.kernel import mono_lcm, mono_mul
from brisk.modules import FreeModule
from brisk.orders import grevlex
from brisk.polyring import PolyRing
from brisk.resolution import (
    FreeResolution,
    ResolutionStep,
    bef_codims,
    betti,
    betti_table_text,
    minimal_resolution,
    regularity,
    syzygies,
)

P2 = PolyRing(("z0", "z1", "z2"))
P3 = PolyRing(("z0", "z1", "z2", "z3"))


def cusp_proj(p: int) -> Ideal:
    return Ideal(P2, [P2.parse(f"z1^2*z0^{p - 2} - z2^{p}")])


def rational_normal_curve(d: int) -> Ideal:
    """2x2 minors of [[z0 .. z_{d-1}], [z1 .. z_d]] in P^d."""
    ring = PolyRing(tuple(f"z{i}" for i in range(d + 1)))
    z = ring.gens()
    return Ideal(
        ring, [z[i] * z[j + 1] - z[i + 1] * z[j] for i in range(d) for j in range(i + 1, d)]
    )


def assert_hilbert_identity(res: FreeResolution) -> None:
    """The alternating sum of the twists reproduces the Hilbert numerator
    (an independent consistency identity)."""
    num = {0: 1}
    sign = -1
    for step in res.steps:
        for d in step.source.twists:
            num[d] = num.get(d, 0) + sign
        sign = -sign
    data = hilbert_data(buchberger(res.ideal))
    want = {i: c for i, c in enumerate(data.numerator) if c}
    assert {k: v for k, v in num.items() if v} == want


class TestSyzygies:
    def test_koszul_relation(self):
        R = PolyRing(("x", "y"))
        x, y = R.gens()
        step = syzygies([x, y])
        assert step.source.twists == (2,)
        col = [row[0] for row in step.matrix]
        assert col == [-y, x]

    def test_principal_is_free(self):
        R = PolyRing(("x", "y"))
        step = syzygies([R.parse("x^2*y - 1/3*x^3")])
        assert step.source.twists == ()

    def test_twisted_cubic_linear_syzygies(self):
        quadrics = list(twisted_cubic_ideal().gens)
        step = syzygies(quadrics)
        # oracle: dense kernel dimensions degree by degree
        assert syzygy_dimension_at_degree(quadrics, 2) == 0
        assert syzygy_dimension_at_degree(quadrics, 3) == 2
        linear = [j for j, d in enumerate(step.source.twists) if d == 3]
        assert len(linear) == 2
        # every reported column composes to zero with the quadrics
        for j in range(step.source.rank):
            acc = P3.zero()
            for i, q in enumerate(quadrics):
                acc = acc + q * step.matrix[i][j]
            assert not acc
        # any extra generators lie in the module spanned by the linear two
        layout = modules.Layout.free(grevlex(), P3.nvars, 8, step.target.twists)
        cols = modules.columns_to_elements([list(r) for r in step.matrix], layout)
        cols = [kernel.to_ints(c, None) for c in cols]
        basis = modules.module_groebner([cols[j] for j in linear], layout, None)
        reducers = [kernel.reducer(max(g), g) for g in basis]
        for j in range(step.source.rank):
            if j not in linear:
                assert not kernel.normal_form(cols[j], reducers, layout)

    def test_inhomogeneous_rejected(self):
        R = PolyRing(("x", "y"))
        with pytest.raises(ValueError):
            syzygies([R.parse("x^2 + y")])

    def test_zero_column_is_its_own_relation_over_gf(self):
        R = PolyRing(("x", "y"))
        x, y = R.gens()
        field = GF(32003)
        step = syzygies([poly_to_gf(x, field), R.zero(), poly_to_gf(y, field)])
        assert step.source.twists == (0, 2)
        assert [str(p) for p in step.matrix[1]] == ["1", "0"]
        assert all(isinstance(c, GFElement) for row in step.matrix for p in row for c in p.terms.values())


class TestMinimalResolution:
    def test_principal_ideal(self):
        res = minimal_resolution(cusp_proj(5))
        assert [s.source.twists for s in res.steps] == [(5,)]
        res.validate(check_exact=True)

    def test_koszul_two_variables(self):
        R = PolyRing(("x", "y"))
        x, y = R.gens()
        res = minimal_resolution(Ideal(R, [x, y]))
        assert [s.source.twists for s in res.steps] == [(1, 1), (2,)]
        res.validate(check_exact=True)

    def test_twisted_cubic_shape(self):
        res = minimal_resolution(twisted_cubic_ideal())
        assert [s.source.twists for s in res.steps] == [(2, 2, 2), (3, 3)]
        res.validate(check_exact=True)

    def test_zero_ideal(self):
        res = minimal_resolution(Ideal(P3, []))
        assert res.steps == ()
        assert regularity(res) == 1

    def test_power_ideal_widens_the_module_fields(self):
        # degree 150 at step 3 outgrows the narrowest (8-bit) fields, in
        # which the first two steps fit, so the frame is rebuilt wider
        R = PolyRing(("x", "y", "z"))
        gens = [v**50 for v in R.gens()]
        modules.Layout.free(grevlex(), R.nvars, kernel.MIN_BITS, (100,))
        with pytest.raises(OverflowError):
            modules.Layout.free(grevlex(), R.nvars, kernel.MIN_BITS, (150,))
        res = minimal_resolution(Ideal(R, gens))
        assert betti(res) == {(1, 50): 3, (2, 100): 3, (3, 150): 1}
        assert [c for _, c in bef_codims(res)] == [3, 3, 3]
        assert syzygies(gens).source.twists == (100, 100, 100)

    def test_unit_ideal_rejected(self):
        with pytest.raises(ValueError):
            minimal_resolution(Ideal(P3, [P3.one()]))

    def test_step_cap(self):
        # the twisted cubic's Schreyer frame has 2 steps
        with pytest.raises(BudgetExceededError, match="resolution exceeded 1 steps"):
            minimal_resolution(twisted_cubic_ideal(), max_steps=1)

    def test_inhomogeneous_rejected(self):
        R = PolyRing(("x", "y"))
        with pytest.raises(ValueError):
            minimal_resolution(Ideal(R, [R.parse("x^2 + y")]))

    def test_length_bounds(self):
        # length <= number of variables; for saturated ideals <= N
        cases = [
            (cusp_proj(5), 2),  # saturated in P^2: length <= 2
            (twisted_cubic_ideal(), 3),
            (skew_lines_ideal(), 3),
        ]
        for ideal, cap in cases:
            res = minimal_resolution(ideal)
            assert res.length <= cap
            assert res.length <= ideal.ring.nvars

    def test_skew_lines_shape(self):
        res = minimal_resolution(skew_lines_ideal())
        assert [s.source.twists for s in res.steps] == [(2, 2, 2, 2), (3, 3, 3, 3), (4,)]
        res.validate(check_exact=True)

    def test_resolution_exactness_via_hilbert(self):
        for ideal in [twisted_cubic_ideal(), skew_lines_ideal(), cusp_proj(5)]:
            assert_hilbert_identity(minimal_resolution(ideal))


class TestMinimalFrame:
    """The Schreyer frame keeps only the minimal pairs, so frames stay
    within the default step cap nvars + 2."""

    @pytest.mark.parametrize("d", [5, 6])
    def test_rational_normal_curve_at_default_caps(self, d):
        res = minimal_resolution(rational_normal_curve(d))
        # Eagon-Northcott: k * C(d, k+1) generators in twist k + 1
        assert betti(res) == {(k, k + 1): k * comb(d, k + 1) for k in range(1, d)}
        res.validate(check_exact=True)
        assert_hilbert_identity(res)

    def test_rnc5_frame_is_already_minimal(self, monkeypatch):
        frames = []
        minimalize = resolution._minimalize

        def spy(ring, steps):
            frames.append([step.source.rank for step in steps])
            return minimalize(ring, steps)

        monkeypatch.setattr(resolution, "_minimalize", spy)
        res = minimal_resolution(rational_normal_curve(5))
        assert frames == [[10, 20, 15, 4]]
        assert [step.source.rank for step in res.steps] == frames[0]

    def test_random_plane_ideal_within_step_cap(self):
        # the all-pairs frame of this ideal exceeded 5 steps
        R = PolyRing(("x0", "x1", "x2"))
        gens = ["-2*x0*x1 - x2^2", "-x0^2 + 2*x1*x2 - 2*x2^2", "-x1^2 - x0*x2", "-x0^2"]
        res = minimal_resolution(Ideal(R, [R.parse(g) for g in gens]))
        assert betti(res) == {(1, 2): 4, (2, 3): 2, (2, 4): 3, (3, 5): 2}
        assert regularity(res) == 3
        res.validate(check_exact=True)
        assert_hilbert_identity(res)


def replace_step(res: FreeResolution, k: int, step: ResolutionStep) -> FreeResolution:
    steps = res.steps[: k - 1] + (step,) + res.steps[k:]
    return FreeResolution(res.ideal, steps)


class TestExactnessCheck:
    """validate(check_exact=True) reads homology off Hilbert series and
    compares coker(phi_1) with S/J; each corruption below keeps the
    steps graded and composing to zero."""

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_dropped_last_column_of_last_map(self, d):
        res = minimal_resolution(rational_normal_curve(d))
        last = res.steps[-1]
        cut = ResolutionStep.from_matrix(
            res.ring, FreeModule(last.source.twists[:-1]), last.target, [row[:-1] for row in last.matrix]
        )
        broken = replace_step(res, res.length, cut)
        broken.validate()
        with pytest.raises(AssertionError, match=rf"not exact at F_{res.length - 1}"):
            broken.validate(check_exact=True)

    def test_labelled_with_a_smaller_ideal(self):
        res = minimal_resolution(twisted_cubic_ideal())
        smaller = Ideal(P3, list(twisted_cubic_ideal().gens[:2]))
        mislabelled = FreeResolution(smaller, res.steps)
        with pytest.raises(AssertionError, match="not in the ideal"):
            mislabelled.validate(check_exact=True)

    def test_labelled_with_a_larger_ideal(self):
        res = minimal_resolution(twisted_cubic_ideal())
        larger = Ideal(P3, list(twisted_cubic_ideal().gens) + [P3.parse("z0^3")])
        mislabelled = FreeResolution(larger, res.steps)
        with pytest.raises(AssertionError, match="Hilbert series differ"):
            mislabelled.validate(check_exact=True)

    def test_changed_entry_of_the_first_map(self):
        # a principal ideal has no composition to break: only the
        # membership of the entries in J sees the new generator
        res = minimal_resolution(cusp_proj(5))
        step = res.steps[0]
        changed = ResolutionStep.from_matrix(P2, step.source, step.target, [[P2.parse("z0^5 - z2^5")]])
        broken = replace_step(res, 1, changed)
        broken.validate()
        with pytest.raises(AssertionError, match="not in the ideal"):
            broken.validate(check_exact=True)

    def test_empty_resolution_is_exact_only_for_the_zero_ideal(self):
        FreeResolution(Ideal(P3, []), ()).validate(check_exact=True)
        with pytest.raises(AssertionError, match="nonzero ideal"):
            FreeResolution(skew_lines_ideal(), ()).validate(check_exact=True)


class TestBetti:
    def test_principal(self):
        assert betti(minimal_resolution(cusp_proj(5))) == {(1, 5): 1}

    def test_koszul(self):
        R = PolyRing(("x", "y"))
        x, y = R.gens()
        assert betti(minimal_resolution(Ideal(R, [x, y]))) == {(1, 1): 2, (2, 2): 1}

    def test_twisted_cubic(self):
        assert betti(minimal_resolution(twisted_cubic_ideal())) == {
            (1, 2): 3,
            (2, 3): 2,
        }

    def test_table_text_layout(self):
        text = betti_table_text(minimal_resolution(twisted_cubic_ideal()))
        assert text.splitlines() == [
            "           0     1     2",
            "    0:     1     .     .",
            "    1:     .     3     2",
        ]


class TestRegularity:
    def test_projective_space(self):
        assert regularity(minimal_resolution(Ideal(P2, []))) == 1

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_cusp(self, p):
        assert regularity(minimal_resolution(cusp_proj(p))) == p

    def test_twisted_cubic(self):
        assert regularity(minimal_resolution(twisted_cubic_ideal())) == 2

    def test_invariant_under_generator_permutation(self):
        gens = list(twisted_cubic_ideal().gens)
        values = set()
        for perm in itertools.permutations(gens):
            values.add(regularity(minimal_resolution(Ideal(P3, perm))))
        assert values == {2}

    def test_cohen_macaulay_degree_bound(self):
        # for arithmetically Cohen-Macaulay members:
        # reg(S/J) <= deg X - codim X  (regularity convention: reg X - 1)
        for ideal in [twisted_cubic_ideal(), cusp_proj(5)]:
            res = minimal_resolution(ideal)
            data = hilbert_data(buchberger(ideal))
            codim = ideal.ring.nvars - data.cone_dim
            assert regularity(res) - 1 <= data.proj_degree() - codim


class TestFittingAndRankLoci:
    def test_koszul_step(self):
        R = PolyRing(("x", "y"))
        x, y = R.gens()
        res = minimal_resolution(Ideal(R, [x, y]))
        assert set(fitting_ideal_gens(res.steps[0].matrix, R)) == {x, y}

    def test_principal_step(self):
        res = minimal_resolution(cusp_proj(5))
        assert fitting_ideal_gens(res.steps[0].matrix, P2) == [res.ideal.gens[0].monic()]

    def test_twisted_cubic_last_map_minors_regenerate_the_curve(self):
        res = minimal_resolution(twisted_cubic_ideal())
        step2 = res.steps[1]
        assert generic_rank(step2.matrix, P3) == 2
        fitt = Ideal(P3, fitting_ideal_gens(step2.matrix, P3))
        G = buchberger(fitt)
        for q in twisted_cubic_ideal().gens:
            assert G.contains(q)
        for g in fitt.gens:
            assert membership(g, twisted_cubic_ideal())

    def test_bef_codims_corpus(self):
        # codim Z_k >= k on everything; >= k+1 for k >= 1 + codim on the
        # pure-dimensional radical members
        cases = [
            (minimal_resolution(cusp_proj(5)), 1),
            (minimal_resolution(twisted_cubic_ideal()), 2),
            (minimal_resolution(skew_lines_ideal()), 2),
        ]
        koszul = minimal_resolution(
            Ideal(PolyRing(("x", "y", "z")), PolyRing(("x", "y", "z")).gens())
        )
        cases.append((koszul, 3))
        for res, codim_j in cases:
            for k, c in bef_codims(res):
                assert c >= k
                if k >= 1 + codim_j:
                    assert c >= k + 1

    def test_koszul_regular_sequence_codims(self):
        R = PolyRing(("x", "y", "z"))
        res = minimal_resolution(Ideal(R, R.gens()))
        assert [int(c) for _, c in bef_codims(res)] == [3, 3, 3]

    def test_skew_lines_exercises_strict_bound(self):
        # length 3 > codim 2: step 3 must have codim >= 4
        res = minimal_resolution(skew_lines_ideal())
        codims = dict(bef_codims(res))
        assert codims[3] >= 4


def minors_codims(res: FreeResolution) -> list[tuple[int, float]]:
    """Reference for bef_codims: the codimension of each Fitting ideal of
    minors, from the Hilbert data of its Groebner basis."""
    out = []
    for k in range(1, res.length + 1):
        minors = fitting_ideal_gens(res.steps[k - 1].matrix, res.ring)
        data = hilbert_data(buchberger(Ideal(res.ring, minors)))
        out.append((k, float("inf") if data.is_unit_ideal else res.ring.nvars - data.cone_dim))
    return out


def over_gf32003(ideal: Ideal) -> Ideal:
    field = GF(32003)
    return Ideal(ideal.ring, [poly_to_gf(g, field) for g in ideal.gens])


class TestModuleGroebner:
    def test_basis_property_and_representations(self):
        # the pair criteria may skip pairs, never a needed one: every
        # same-position S-element of the result reduces to zero, every
        # input reduces to zero, and the tracked relations express the
        # basis in the inputs
        rng = random.Random(11)
        for _ in range(6):
            ideal = random_forms_ideal(rng)
            for member in (ideal, over_gf32003(ideal)):
                modulus = kernel.field_modulus(member.gens)
                order, nvars = grevlex(), member.ring.nvars
                for step in minimal_resolution(member).steps:
                    layout = modules.Layout.free(order, nvars, 16, [-b for b in step.source.twists])
                    relations = modules.Layout.free(order, nvars, 16, [-a for a in step.target.twists])
                    rows = modules.columns_to_elements([list(c) for c in zip(*step.matrix)], layout)
                    tracked, inputs = relations.track(layout, rows, [1] * len(rows))
                    inputs = [kernel.to_ints(e, modulus) for e in inputs]
                    basis = modules.module_groebner(inputs, tracked, modulus)
                    reducers = [kernel.reducer(max(g), g) for g in basis]

                    def residue(terms):
                        nf = kernel.normal_form(terms, reducers, tracked, modulus)
                        return [t for t in nf if t >= tracked.flag]

                    leads = [tracked.unpack(r[0]) for r in reducers]
                    for i, j in itertools.combinations(range(len(basis)), 2):
                        if leads[i][0] == leads[j][0]:
                            lcm = mono_lcm(leads[i][1], leads[j][1])
                            lcm_key = tracked.pack(leads[i][0], lcm)
                            s = kernel.s_poly(reducers[i], reducers[j], lcm_key, tracked.guard, modulus)
                            assert not residue(s)
                    for e in inputs:
                        assert not residue(e)
                    fields = [{layout.unpack(t): c for t, c in row.items()} for row in rows]
                    for g in basis:
                        acc: dict = {}
                        for t, c in g.items():
                            if t >= tracked.flag:
                                acc = kernel.poly_sub(acc, {tracked.unpack(t): c})
                            else:
                                k, u = relations.unpack(t)
                                shifted = {(pos, mono_mul(e, u)): c * v for (pos, e), v in fields[k].items()}
                                acc = kernel.poly_add(acc, shifted)
                        assert not acc


class TestExtCodimsAgainstMinors:
    """bef_codims reads Ext Hilbert series; the minors of the Fitting
    ideals must give the same codimensions wherever they can be taken."""

    def test_classical_resolutions(self):
        R = PolyRing(("x", "y", "z"))
        a, b, c, d = P3.gens()
        cases = [
            (Ideal(R, R.gens()), [3, 3, 3]),
            # a plane and a point of P^3: Ext^2 vanishes, Z_2 = Supp Ext^3
            (Ideal(P3, [a * b, a * c, a * d]), [1, 3, 3]),
            (skew_lines_ideal(), [2, 2, 4]),
            (rational_normal_curve(3), [2, 2]),
            (rational_normal_curve(4), [3, 3, 3]),
            (cusp_proj(5), [1]),
        ]
        for ideal, want in cases:
            res = minimal_resolution(ideal)
            codims = bef_codims(res)
            assert codims == minors_codims(res)
            assert [c for _, c in codims] == want

    def test_random_ideals_over_q_and_gf(self):
        rng = random.Random(5)
        for _ in range(20):
            ideal = random_forms_ideal(rng)
            for member in (ideal, over_gf32003(ideal)):
                res = minimal_resolution(member)
                res.validate(check_exact=True)
                assert bef_codims(res) == minors_codims(res)


# ------------------------------------------------------ integer columns

CASES = _resolution_cases()
# name -> (frame generators, minimal generators)
FRAME_SIZES = {"random5_0": (15, 5), "random5_4": (25, 7), "random5_5": (35, 9)}


def frame_and_resolution(ideal, monkeypatch):
    frames = []
    minimalize = resolution._minimalize

    def spy(ring, steps):
        frames.append(list(steps))
        return minimalize(ring, steps)

    monkeypatch.setattr(resolution, "_minimalize", spy)
    res = minimal_resolution(ideal)
    monkeypatch.undo()
    return frames[0], res


def bumped(step: ResolutionStep) -> ResolutionStep:
    """``step`` with one int coefficient of its first column moved by one."""
    col = dict(step.columns[0])
    t = max(col)
    col[t] += 1 if col[t] != -1 else -1
    if step.modulus:
        col[t] %= step.modulus
    return dataclasses.replace(step, columns=(col,) + step.columns[1:])


class TestIntegerColumns:
    """Steps keep packed int columns; minimalization, composition and the
    checks of ``validate`` run on them and must agree with the field
    arithmetic on the polynomial matrices."""

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_minimalization_matches_the_schur_complement(self, name, monkeypatch):
        frame, res = frame_and_resolution(CASES[name], monkeypatch)
        got = [(s.source.twists, s.target.twists, s.matrix) for s in res.steps]
        assert got == schur_minimalize(frame)
        sizes = (sum(s.source.rank for s in frame), sum(s.source.rank for s in res.steps))
        assert sizes == FRAME_SIZES.get(name.removesuffix("_gf"), sizes)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_integer_composition_matches_the_matrix_product(self, name, monkeypatch):
        frame, res = frame_and_resolution(CASES[name], monkeypatch)
        for steps in (frame, res.steps):
            for a, b in zip(steps, steps[1:]):
                for right in (b, bumped(b)):
                    layout, elems, scales = resolution._compose(a, right)
                    got = modules.elements_to_columns(elems, scales, layout, a.modulus, a.ring, a.target.rank)
                    assert got == mat_mul(a.matrix, right.matrix, a.ring)
                    assert any(elems) == (right is not b)

    @pytest.mark.parametrize("name", ["rnc4", "rnc4_gf", "random5_4", "random5_4_gf"])
    def test_validate_rejects_on_the_integer_columns(self, name):
        res = minimal_resolution(CASES[name])
        res.validate()
        with pytest.raises(AssertionError, match="do not compose to zero"):
            replace_step(res, 2, bumped(res.steps[1])).validate()
        # a trivial summand S(-t) -> S(-t) on top: graded and composing to
        # zero, with the unit entry 1
        ring, last = res.ring, res.steps[-1]
        t = last.source.twists[0]
        one = ring.const(GFElement(1, last.modulus) if last.modulus else 1)
        padded_rows = [row + (ring.zero(),) for row in last.matrix]
        wider_source = FreeModule(last.source.twists + (t,))
        wider = ResolutionStep.from_matrix(ring, wider_source, last.target, padded_rows)
        unit_rows = [[ring.zero()]] * last.source.rank + [[one]]
        unit = ResolutionStep.from_matrix(ring, FreeModule((t,)), wider_source, unit_rows)
        padded = FreeResolution(res.ideal, res.steps[:-1] + (wider, unit))
        with pytest.raises(AssertionError, match="unit entry"):
            padded.validate()

    @pytest.mark.parametrize("name", ["rnc4", "random5_4_gf"])
    def test_steps_equal_by_twists_and_matrices(self, name):
        one, two = minimal_resolution(CASES[name]), minimal_resolution(CASES[name])
        assert one == two
        assert [hash(s) for s in one.steps] == [hash(s) for s in two.steps]
        step = one.steps[1]
        assert step == ResolutionStep.from_matrix(one.ring, step.source, step.target, step.matrix)
        assert step != bumped(step)
        assert replace_step(one, 2, bumped(step)) != two
        assert step != dataclasses.replace(step, source=FreeModule(step.source.twists[::-1] + (0,)))
