"""CLI behaviour: commands, exit codes, determinism."""

import re

import pytest

from brisk.cli import _budget, build_parser, main
from brisk.errors import BudgetExceededError
from brisk.groebner import Budget
from brisk.instances import parse_ideal_file
from brisk.resolution import bef_codims, minimal_resolution

KOLLAR = """vars: z1, z2
generators:
  z1^2
  z1*z2 - 1
target: 1
params:
  dim = 2
  deg_x = 1
  reg_x = 1
  mu0 = 0
  mu_prime = 0
  c_inf = 2
"""

CUSP = """vars: z1, z2
variety:
  z1^2 - z2^5
generators:
  z2
target: z1
branches:
  branch: z1 = t^5; z2 = t^2
params:
  mu0 = 3
"""

TWISTED_CUBIC_IDEAL = """vars: z0, z1, z2, z3
z1^2 - z0*z2
z1*z2 - z0*z3
z2^2 - z1*z3
"""


@pytest.fixture
def kollar_file(tmp_path):
    f = tmp_path / "kollar.txt"
    f.write_text(KOLLAR)
    return str(f)


@pytest.fixture
def cusp_file(tmp_path):
    f = tmp_path / "cusp.txt"
    f.write_text(CUSP)
    return str(f)


@pytest.fixture
def cubic_file(tmp_path):
    f = tmp_path / "cubic.txt"
    f.write_text(TWISTED_CUBIC_IDEAL)
    return str(f)


class TestMembership:
    def test_min_scan(self, kollar_file, capsys):
        assert main(["membership", kollar_file, "--min", "--rho-max", "8"]) == 0
        out = capsys.readouterr().out
        assert "rho_min: 4" in out
        assert "verified: true" in out

    def test_cusp_not_in_ideal(self, cusp_file, capsys):
        assert main(["membership", cusp_file, "--rho", "20"]) == 0
        assert "not in ideal at rho<=20" in capsys.readouterr().out

    def test_cap_gen(self, kollar_file, capsys):
        assert main(["membership", kollar_file, "--min", "--rho-max", "8",
                     "--cap-gen", "1:1"]) == 0
        assert "not in ideal" in capsys.readouterr().out

    @pytest.mark.parametrize("spec", ["0:1", "-1:1", "9:1"])
    def test_cap_gen_outside_the_generators_exit_2(self, kollar_file, capsys, spec):
        # j is 1-based; 0 and -1 must not wrap to the last generator
        assert main(["membership", kollar_file, "--rho", "4", f"--cap-gen={spec}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"bad --cap-gen '{spec}'; j must be in 1..2" in captured.err

    @pytest.mark.parametrize("extra", [["--rho", "4", "--cap-gen", "x"], []])
    def test_option_error_names_no_file_position(self, kollar_file, capsys, extra):
        # the value comes from the command line, not from a line of the file
        assert main(["membership", kollar_file] + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "column" not in err

    def test_min_scans_to_rho_zero(self, kollar_file, capsys):
        # --rho 0 is a given scan cap, not an unset one
        assert main(["membership", kollar_file, "--min", "--rho", "0"]) == 0
        assert capsys.readouterr().out == "not in ideal at rho<=0\n"

    @pytest.mark.parametrize("extra", [[], ["--min"]])
    def test_negative_rho_exit_2(self, kollar_file, capsys, extra):
        assert main(["membership", kollar_file, "--rho", "-1"] + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bad --rho -1; must be >= 0\n"

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("vars: x\ngenerators:\n  (\ntarget: x\n")
        assert main(["membership", str(f), "--rho", "2"]) == 2

    @pytest.mark.parametrize("target, code", [("1", 3), ("0", 0)])
    @pytest.mark.parametrize("extra", [["--rho", "13"], ["--min", "--rho-max", "13"]])
    def test_cofactor_cap(self, tmp_path, capsys, target, code, extra):
        # 4 generators to the power 13 have 560 multi-indices, over the
        # 500-cofactor cap; the target 0 needs none of them
        f = tmp_path / "power.txt"
        f.write_text("vars: z1, z2\ngenerators:\n  z1\n  z2\n  z1 + z2\n  z1 - z2\n"
                     f"target: {target}\npower: 13\n")
        assert main(["membership", str(f), *extra]) == code
        captured = capsys.readouterr()
        if code:
            assert "560 cofactors exceed the 500 cap" in captured.err
        else:
            assert "rho: -1\nverified: true" in captured.out

    def test_budget_exit_3(self, kollar_file):
        assert main(["membership", kollar_file, "--rho", "12",
                     "--budget-matrix", "5"]) == 3

    def test_negative_budget_exit_2(self, kollar_file, capsys):
        assert main(["membership", kollar_file, "--min",
                     "--budget-matrix", "-5"]) == 2
        assert "max_matrix_entries" in capsys.readouterr().err

    def test_deterministic_output(self, kollar_file, capsys):
        main(["membership", kollar_file, "--min", "--rho-max", "6"])
        first = capsys.readouterr().out
        main(["membership", kollar_file, "--min", "--rho-max", "6"])
        assert capsys.readouterr().out == first


class TestBounds:
    def test_kollar_table(self, kollar_file, capsys):
        assert main(["bounds", kollar_file]) == 0
        out = capsys.readouterr().out
        assert re.search(r"hickel_i\s+8", out)
        assert re.search(r"jelonek\s+4", out)
        assert re.search(r"hermann\s+128", out)

    def test_compute_invariants_on_cusp(self, cusp_file, capsys):
        assert main(["bounds", cusp_file, "--compute-invariants"]) == 0
        out = capsys.readouterr().out
        assert "degX=5" in out and "regX=5" in out and "n=1" in out

    def test_missing_mu0_is_reported(self, cusp_file, tmp_path, capsys):
        text = CUSP.replace("  mu0 = 3\n", "  dim = 1\n  deg_x = 5\n  reg_x = 5\n")
        f = tmp_path / "nomu.txt"
        f.write_text(text)
        assert main(["bounds", str(f)]) == 0
        out = capsys.readouterr().out
        assert "muZero" in out

    def test_missing_invariants_exit_2(self, cusp_file, tmp_path, capsys):
        text = CUSP.replace("  mu0 = 3\n", "  mu0 = 3\n")
        f = tmp_path / "noinv.txt"
        f.write_text(text)
        # nontrivial variety without dim/deg/reg and without the pipeline
        assert main(["bounds", str(f)]) == 2
        assert main(["bounds", str(f), "--compute-invariants"]) == 0

    def test_pipeline_matches_separate_commands(self, cusp_file, capsys):
        main(["bounds", cusp_file, "--compute-invariants"])
        bounds_out = capsys.readouterr().out
        main(["resolve", cusp_file, "--homogenize-saturate"])
        resolve_out = capsys.readouterr().out
        main(["invariants", cusp_file])
        inv_out = capsys.readouterr().out
        assert "degX=5" in bounds_out
        assert "regularity: 5" in resolve_out
        assert "projective degree: 5" in inv_out
        assert "projective dimension: 1" in inv_out


class TestResolve:
    def test_twisted_cubic(self, cubic_file, capsys):
        assert main(["resolve", cubic_file]) == 0
        out = capsys.readouterr().out
        assert "regularity: 2" in out
        assert "3" in out and "2" in out  # betti entries

    def test_negative_budget_exit_2(self, cubic_file, capsys):
        assert main(["resolve", cubic_file, "--budget-pairs", "-1"]) == 2
        err = capsys.readouterr().err
        assert "max_pairs" in err and "budget exhausted" not in err
        # a cap of 0 is a real cap: the cubic needs S-pairs
        assert main(["resolve", cubic_file, "--budget-pairs", "0"]) == 3

    def test_affine_needs_flag(self, cusp_file, capsys):
        assert main(["resolve", cusp_file]) == 2
        assert main(["resolve", cusp_file, "--homogenize-saturate"]) == 0

    def test_char_option(self, cubic_file, capsys):
        assert main(["resolve", cubic_file, "--char", "32003"]) == 0
        out = capsys.readouterr().out
        assert "regularity: 2" in out

    @pytest.mark.parametrize(
        "d, codims",
        [
            (5, "k=1: 4, k=2: 4, k=3: 4, k=4: 4"),
            (6, "k=1: 5, k=2: 5, k=3: 5, k=4: 5, k=5: 5"),
        ],
    )
    def test_rational_normal_curves_at_default_caps(self, d, codims, tmp_path, capsys):
        # the second maps have ranks 9 (d = 5) and 14 (d = 6), too large
        # to expand minors of; the drop-rank codimensions take none
        z = [f"z{i}" for i in range(d + 1)]
        lines = [f"vars: {', '.join(z)}"] + [
            f"{z[i]}*{z[j + 1]} - {z[i + 1]}*{z[j]}" for i in range(d) for j in range(i + 1, d)
        ]
        f = tmp_path / f"rnc{d}.txt"
        f.write_text("\n".join(lines) + "\n")
        assert main(["resolve", str(f)]) == 0
        out = capsys.readouterr().out
        assert f"drop-rank codimensions: {codims}\n" in out

    def test_drop_rank_codims_respect_the_pair_budget(self):
        res = minimal_resolution(parse_ideal_file(TWISTED_CUBIC_IDEAL))
        with pytest.raises(BudgetExceededError, match="max_pairs"):
            bef_codims(res, Budget(max_pairs=0))

    @pytest.mark.parametrize("command", ["resolve", "invariants"])
    def test_closure_variable_when_z0_is_taken(self, command, tmp_path, capsys):
        # the homogenizing variable takes a fresh name when z0 is a ring
        # variable; the output names no variable, so it is the same
        outs = []
        for name in ("z0", "a"):
            f = tmp_path / f"{name}.txt"
            f.write_text(f"vars: {name}, x, y\n{name}*x - y^2 + 1\n")
            assert main([command, str(f), "--homogenize-saturate"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_zero_ideal_is_an_empty_resolution(self, tmp_path, capsys):
        f = tmp_path / "zero.txt"
        f.write_text("vars: x, y\n0\n")
        assert main(["resolve", str(f)]) == 0
        assert "drop-rank codimensions: (empty resolution)" in capsys.readouterr().out


class TestInvariants:
    def test_projective_space_regularity(self, tmp_path, capsys):
        f = tmp_path / "pn.txt"
        f.write_text("vars: z1, z2\ntarget: 1\ngenerators:\n  z1\n")
        assert main(["invariants", str(f)]) == 0
        out = capsys.readouterr().out
        assert "regularity: 1" in out
        assert "projective dimension: 2" in out

    def test_empty_at_infinity_report(self, cusp_file, capsys):
        main(["invariants", cusp_file])
        assert "empty at infinity: false" in capsys.readouterr().out

    def test_constant_generator_is_empty_at_infinity(self, tmp_path, capsys):
        f = tmp_path / "unit.txt"
        f.write_text("vars: z1, z2\ngenerators:\n  2\ntarget: 1\n")
        assert main(["invariants", str(f)]) == 0
        assert "empty at infinity: true" in capsys.readouterr().out


class TestCharDividesDenominator:
    @pytest.mark.parametrize(
        "command, text",
        [
            (["resolve"], "vars: x, y, z\nx^2 - 1/3*y*z\ny^2 - x*z\n"),
            (["invariants"], "vars: x, y, z\nx^2 - 1/3*y*z\ny^2 - x*z\n"),
            (["invariants"], "vars: x, y\nvariety:\n  x^2 - 1/3*y\ngenerators:\n  x\ntarget: 1\n"),
            (["bounds", "--compute-invariants"],
             "vars: x, y\nvariety:\n  x^2 - 1/3*y\ngenerators:\n  x\ntarget: 1\n"),
        ],
        ids=["resolve", "invariants-ideal", "invariants-instance", "bounds"],
    )
    def test_exit_2(self, command, text, tmp_path, capsys):
        f = tmp_path / "in.txt"
        f.write_text(text)
        assert main(command + [str(f), "--char", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: denominator divisible by 3; choose another prime\n"
        # another prime maps the coefficients
        assert main(command + [str(f), "--char", "5"]) == 0


def _strip_ms(text: str) -> str:
    lines = []
    for line in text.splitlines():
        lines.append(re.sub(r"\b\d+\s*$", "MS", line))
    return "\n".join(lines)


class TestBench:
    def test_kollar_rows(self, tmp_path, capsys):
        csv = tmp_path / "out.csv"
        assert main(["bench", "kollar", "--d", "2:3", "--m", "2",
                     "--csv", str(csv)]) == 0
        content = csv.read_text().splitlines()
        assert content[0] == "# brisk bench CSV v1"
        assert content[1] == "family,params,rho_min,hickel_i,macaulay,jelonek,hermann,slack,ms"
        rows = [line.split(",") for line in content[2:]]
        assert [r[2] for r in rows] == ["4", "9"]  # minimal degree = d^m
        for r in rows:
            assert int(r[7]) >= 0  # slack

    def test_macaulay_rows(self, capsys):
        assert main(["bench", "macaulay-generic", "--d", "2", "--n", "2",
                     "--count", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        for line in out.splitlines()[1:]:
            fields = line.split()
            if not fields or fields[0] != "macaulay-generic":
                continue
            assert int(fields[2]) <= 4  # d(n+1) - n

    def test_macaulay_bound_only_beside_a_certificate(self, tmp_path, capsys):
        # row 4 of this seed has a common affine zero, so no certificate of
        # 1 exists and the Macaulay bound's hypothesis fails
        csv = tmp_path / "out.csv"
        assert main(["bench", "macaulay-generic", "--d", "3", "--n", "2",
                     "--seed", "28", "--csv", str(csv)]) == 0
        rows = [line.split(",") for line in csv.read_text().splitlines()[2:]]
        assert [(r[2], r[4]) for r in rows] == [("7", "7")] * 3 + [
            ("notfound<=7", "")
        ] + [("7", "7")]

    def test_cusp_rows_carry_bs_exponent(self, capsys):
        assert main(["bench", "cusp", "--p", "3,5"]) == 0
        out = capsys.readouterr().out
        assert "bs_exp=3/2" in out
        assert "bs_exp=5/2" in out
        assert "notfound" in out

    def test_cusp_range_means_odd_p(self, capsys):
        assert main(["bench", "cusp", "--p", "3:7"]) == 0
        ranged = _strip_ms(capsys.readouterr().out)
        assert main(["bench", "cusp", "--p", "3,5,7"]) == 0
        assert ranged == _strip_ms(capsys.readouterr().out)

    def test_cusp_listed_even_p_exit_2(self, capsys):
        assert main(["bench", "cusp", "--p", "3,4"]) == 2

    @pytest.mark.parametrize("extra", [["--n", "0"], ["--n", "-1"], ["--d", "0"]])
    def test_macaulay_parameters_exit_2(self, capsys, extra):
        assert main(["bench", "macaulay-generic", *extra]) == 2
        assert "needs d >= 1 and n >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_count_below_1_exit_2(self, capsys, count):
        assert main(["bench", "macaulay-generic", "--count", count]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad --count {count}; must be >= 1\n"

    def test_negative_rho_cap_exit_2(self, capsys):
        assert main(["bench", "kollar", "--rho-cap", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bad --rho-cap -1; must be >= 0\n"

    def test_deterministic_modulo_ms(self, tmp_path, capsys):
        args = ["bench", "macaulay-generic", "--d", "2", "--n", "2",
                "--count", "2", "--seed", "7"]
        main(args)
        first = _strip_ms(capsys.readouterr().out)
        main(args)
        second = _strip_ms(capsys.readouterr().out)
        assert first == second


def test_subprocess_entry_point(tmp_path):
    import subprocess
    import sys

    f = tmp_path / "kollar.txt"
    f.write_text(KOLLAR)
    r = subprocess.run(
        [sys.executable, "-m", "brisk.cli", "membership", str(f), "--min"],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0
    assert "rho_min: 4" in r.stdout


class TestIdealFileInputs:
    def test_invariants_on_ideal_file(self, cubic_file, capsys):
        assert main(["invariants", cubic_file]) == 0
        out = capsys.readouterr().out
        assert "projective dimension: 1" in out
        assert "projective degree: 3" in out
        assert "1 - 3*t^2 + 2*t^3" in out

    def test_csv_bytes_deterministic_modulo_ms(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["bench", "kollar", "--d", "2", "--csv", str(out)]) == 0
        strip = lambda p: [l.rsplit(",", 1)[0] for l in p.read_text().splitlines()]
        assert strip(a) == strip(b)

    def test_help_runs(self, capsys):
        import pytest as _pytest

        with _pytest.raises(SystemExit) as ex:
            main(["--help"])
        assert ex.value.code == 0


class TestBenchBudgetRows:
    def test_exhausted_rows_are_marked_not_dropped(self, capsys):
        assert main(["bench", "kollar", "--d", "3", "--m", "2",
                     "--budget-matrix", "30"]) == 0
        out = capsys.readouterr().out
        assert "budget_exhausted" in out
        assert out.count("kollar") == 1  # the row survives, marked


class TestParseErrorPositions:
    """A parse error names the file line and the column in the raw line,
    once, and an error with no place in the file names none."""

    @pytest.mark.parametrize("text, message", [
        (KOLLAR.replace("target: 1\n", ""), "instance file has no target: section"),
        ("vars: z1, z2\ngenerators:\n  z1 + $\ntarget: 1\n",
         "unexpected character '$' (line 3, column 8)"),
        ("vars: z1, z2\ngenerators:\n  z2\ntarget: z1 + $\n",
         "unexpected character '$' (line 4, column 14)"),
        ("vars: z1, z2\ngenerators:\n  z2\ntarget: z1\nbranches:\n  branch: q = t^2\n",
         "unknown branch variable 'q' (line 6, column 3)"),
        (CUSP.replace("target: z1\n", "target: z1\npower: x\n"),
         "bad power 'x' (line 7, column 8)"),
        (KOLLAR.replace("  deg_x = 1\n", "  mu0 3\n"),
         "params line 'mu0 3' lacks '=' (line 8, column 3)"),
        (KOLLAR.replace("vars: z1, z2", "vars: z1, 2x"),
         "invalid variable name '2x' (line 1, column 7)"),
    ])
    def test_instance_file(self, tmp_path, capsys, text, message):
        f = tmp_path / "bad.txt"
        f.write_text(text)
        assert main(["membership", str(f), "--rho", "4"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_ideal_file(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("vars: z1, z2\nz1^2\n  z2 + $  # comment\n")
        assert main(["resolve", str(f)]) == 2
        assert capsys.readouterr().err == "error: unexpected character '$' (line 3, column 8)\n"

    def test_ideal_file_ring_header(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("vars: z1, 2x\nz1\n")
        assert main(["resolve", str(f)]) == 2
        assert capsys.readouterr().err == "error: invalid variable name '2x' (line 1, column 7)\n"

    def test_missing_file(self, tmp_path, capsys):
        assert main(["membership", str(tmp_path / "absent.txt"), "--rho", "4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read ")
        assert "line" not in err


@pytest.mark.parametrize("argv", [
    ["resolve", "F", "--seed", "1"],
    ["membership", "F", "--seed", "1"],
    ["bounds", "F", "--budget-matrix", "5"],
    ["invariants", "F", "--budget-matrix", "5"],
])
def test_flag_the_command_does_not_read_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as ex:
        main(argv)
    assert ex.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_budget_flags_default_to_the_default_budget():
    args = build_parser().parse_args(["resolve", "ideal.txt"])
    assert _budget(args) == Budget()
