"""Command-line surface: membership, bounds, resolve, invariants, bench.

Exit codes: 0 = mathematically resolved (including a definitive
NotFound), 2 = parse/validation error, 3 = resource budget exhausted.
All outputs are deterministic for a fixed command line and seed (the
bench ms column is the one timing-dependent field).
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from . import families
from .bounds import (
    comparison_bounds,
    hermann_bound,
    hickel_bound_i,
    jelonek_bound,
    macaulay_bound,
)
from .certificate import (
    minimal_degree,
    projective_closure,
    search_at_degree,
)
from .errors import BudgetExceededError, ParseError
from .fields import GF, poly_to_gf
from .groebner import DEFAULT_BUDGET, Budget, Ideal, buchberger
from .instances import (
    InstanceFile,
    format_certificate,
    parse_ideal_file,
    parse_instance,
)
from .invariants import empty_at_infinity, hilbert_data
from .localorder import max_bs_exponent
from .orders import grevlex
from .polyring import homogenize
from .resolution import bef_codims, betti_table_text, minimal_resolution, regularity


def _budget(args) -> Budget:
    """The caps of the budget flags; a command without ``--budget-matrix``
    builds no linear system and keeps the default."""
    matrix = getattr(args, "budget_matrix", DEFAULT_BUDGET.max_matrix_entries)
    return Budget(max_pairs=args.budget_pairs, max_matrix_entries=matrix)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as ex:
        raise ParseError(f"cannot read {path}: {ex}")


def _over_gf(ideal: Ideal, char: int) -> Ideal:
    """``ideal`` with its coefficients mapped into GF(char); a ValueError
    (exit 2) when char divides a coefficient denominator."""
    field = GF(char)
    try:
        return Ideal(ideal.ring, [poly_to_gf(g, field) for g in ideal.gens])
    except ZeroDivisionError as ex:
        raise ValueError(str(ex)) from None


def _pipeline_invariants(inst: InstanceFile, budget: Budget, char: int | None):
    """saturation -> Groebner -> Hilbert -> resolution -> regularity."""
    var = inst.ring.fresh_name("z0")
    j_x = projective_closure(inst.variety, budget, var)
    work = j_x if char is None else _over_gf(j_x, char)
    gb = buchberger(work, grevlex(), budget)
    data = hilbert_data(gb)
    res = minimal_resolution(work, budget)
    return {
        "dim": data.proj_dimension(),
        "deg_x": data.proj_degree(),
        "reg_x": regularity(res),
        "j_x": j_x,
        "hvar": var,
        "resolution": res,
        "hilbert": data,
    }


def _empty_at_infinity(inst: InstanceFile, computed: dict, budget: Budget) -> bool:
    """Whether the homogenized generators of ``inst`` have no common zero
    at infinity on the closure that ``_pipeline_invariants`` computed."""
    d = max(int(g.degree()) for g in inst.gens)
    fs = [homogenize(g, d, computed["hvar"]) for g in inst.gens]
    return empty_at_infinity(fs, computed["j_x"], budget)


def cmd_membership(args) -> int:
    budget = _budget(args)
    inst_file = parse_instance(_read(args.file))
    inst = inst_file.membership_instance()
    caps = {}
    for spec in args.cap_gen or []:
        try:
            j, cap = map(int, spec.split(":"))
        except ValueError:
            raise ParseError(f"bad --cap-gen {spec!r}; expected j:k")
        if not 1 <= j <= inst.m:
            raise ParseError(f"bad --cap-gen {spec!r}; j must be in 1..{inst.m}")
        caps[j - 1] = cap
    if args.rho is not None and args.rho < 0:
        raise ParseError(f"bad --rho {args.rho}; must be >= 0")
    if args.min:
        rho_max = next(r for r in (args.rho_max, args.rho, 20) if r is not None)
        found = minimal_degree(inst, rho_max, caps or None, budget)
        if found is None:
            print(f"not in ideal at rho<={rho_max}")
            return 0
        rho, cert = found
        print(f"rho_min: {rho}")
        print(format_certificate(inst, cert))
        return 0
    if args.rho is None:
        raise ParseError("membership needs --rho R or --min")
    cert = search_at_degree(inst, args.rho, caps or None, budget)
    if cert is None:
        print(f"not in ideal at rho<={args.rho}")
        return 0
    print(f"rho: {args.rho}")
    print(format_certificate(inst, cert))
    return 0


def cmd_bounds(args) -> int:
    budget = _budget(args)
    inst_file = parse_instance(_read(args.file))
    computed = None
    macaulay_ok = inst_file.param_flag("macaulay")
    if args.compute_invariants:
        computed = _pipeline_invariants(inst_file, budget, args.char)
        if inst_file.gens:
            macaulay_ok = macaulay_ok or _empty_at_infinity(inst_file, computed, budget)
    inputs = inst_file.bound_inputs(computed)
    report = comparison_bounds(
        inputs,
        macaulay_applicable=macaulay_ok,
        cohen_macaulay=inst_file.param_flag("cohen_macaulay"),
    )
    print(report.to_table())
    print()
    print(report.to_records())
    return 0


def _is_instance(text: str) -> bool:
    """True for an instance file, False for a bare ideal file."""
    return "variety:" in text or "generators:" in text or "target:" in text


def _load_homogeneous_ideal(args, budget: Budget) -> Ideal:
    text = _read(args.file)
    if _is_instance(text):
        inst_file = parse_instance(text)
        ideal = inst_file.variety
    else:
        ideal = parse_ideal_file(text)
    if args.homogenize_saturate:
        return projective_closure(ideal, budget, ideal.ring.fresh_name("z0"))
    if not ideal.is_homogeneous():
        raise ParseError(
            "ideal is not homogeneous; pass --homogenize-saturate to take the "
            "projective closure"
        )
    return ideal


def cmd_resolve(args) -> int:
    budget = _budget(args)
    ideal = _load_homogeneous_ideal(args, budget)
    if args.char is not None:
        ideal = _over_gf(ideal, args.char)
    res = minimal_resolution(ideal, budget)
    codims = bef_codims(res, budget)  # a budget error must come before any output
    print(betti_table_text(res))
    print(f"regularity: {regularity(res)}")
    if codims:
        report = ", ".join(
            f"k={k}: {'inf' if c == float('inf') else int(c)}" for k, c in codims
        )
        print(f"drop-rank codimensions: {report}")
    else:
        print("drop-rank codimensions: (empty resolution)")
    return 0


def cmd_invariants(args) -> int:
    budget = _budget(args)
    text = _read(args.file)
    if _is_instance(text):
        inst_file = parse_instance(text)
        computed = _pipeline_invariants(inst_file, budget, args.char)
        # a budget error must come before any output
        flag = _empty_at_infinity(inst_file, computed, budget) if inst_file.gens else None
        print(f"hilbert numerator: {_poly_in_t(computed['hilbert'].numerator)}")
        print(f"projective dimension: {computed['dim']}")
        print(f"projective degree: {computed['deg_x']}")
        print(f"regularity: {computed['reg_x']}")
        if flag is not None:
            print(f"empty at infinity: {'true' if flag else 'false'}")
        return 0
    ideal = _load_homogeneous_ideal(args, budget)
    if args.char is not None:
        ideal = _over_gf(ideal, args.char)
    data = hilbert_data(buchberger(ideal, grevlex(), budget))
    dim = data.proj_dimension()  # raises on the unit ideal, so before any output
    degree = data.proj_degree() if data.cone_dim > 0 else "(empty scheme)"
    print(f"hilbert numerator: {_poly_in_t(data.numerator)}")
    print(f"projective dimension: {dim}")
    print(f"projective degree: {degree}")
    return 0


def _poly_in_t(coeffs) -> str:
    if not coeffs:
        return "0"
    parts = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            mono = "t" if i == 1 else f"t^{i}"
            if c == 1:
                term = mono
            elif c == -1:
                term = f"-{mono}"
            else:
                term = f"{c}*{mono}"
            parts.append(term)
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


CSV_HEADER = "family,params,rho_min,hickel_i,macaulay,jelonek,hermann,slack,ms"


def _parse_range(text: str, odd: bool = False) -> list[int]:
    """Comma-separated values and A:B ranges; with ``odd`` a range keeps
    only its odd members (a listed value is kept as given)."""
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if ":" in piece:
            lo, hi = piece.split(":")
            out.extend(v for v in range(int(lo), int(hi) + 1) if v % 2 or not odd)
        elif piece:
            out.append(int(piece))
    if not out:
        raise ParseError(f"empty range {text!r}")
    return out


def _bench_rows(args, budget: Budget):
    rng = random.Random(args.seed)
    rows = []
    if args.family == "kollar":
        for d in _parse_range(args.d or "2"):
            for m in _parse_range(args.m or "2"):
                n = int(args.n) if args.n else m
                rows.append(families.kollar(d, m, n))
    elif args.family == "macaulay-generic":
        count = args.count
        for d in _parse_range(args.d or "2"):
            n = int(args.n) if args.n else 2
            for _ in range(count):
                rows.append(families.macaulay_generic(d, n, rng, budget))
    else:
        for p in _parse_range(args.p or "3,5,7", odd=True):
            rows.append(families.cusp(p))
    return rows


def _run_bench_row(fam: families.FamilyInstance, budget: Budget, rho_cap: int):
    t0 = time.perf_counter()
    inp = fam.bound_inputs
    hickel = hickel_bound_i(inp)
    jelonek = jelonek_bound(inp)
    hermann = hermann_bound(inp)
    cap = min(rho_cap, hickel, fam.params.get("scan_cap", rho_cap))
    status: str
    rho_min: int | None = None
    try:
        found = minimal_degree(fam.instance, cap, budget=budget)
        if found is None:
            status = f"notfound<={cap}"
        else:
            rho_min = found[0]
            status = str(rho_min)
    except BudgetExceededError:
        status = "budget_exhausted"
    # The Macaulay bound needs no common zero in P^n.  The family checks
    # infinity; with Phi = 1 only a certificate rules out an affine zero.
    macaulay = None
    if fam.macaulay_applicable and rho_min is not None:
        macaulay = macaulay_bound(inp).no_zeros_in_pn
    ms = int((time.perf_counter() - t0) * 1000)
    slack = None if rho_min is None else hickel - rho_min
    params = ";".join(f"{k}={v}" for k, v in sorted(fam.params.items()))
    extras = {}
    if fam.name == "cusp" and fam.branches:
        exp = max_bs_exponent(
            fam.instance.gens, fam.instance.phi, fam.branches
        )
        extras["max_bs_exponent"] = str(exp)
        params += f";bs_exp={exp}"
    return {
        "family": fam.name,
        "params": params,
        "rho_min": status,
        "hickel_i": str(hickel),
        "macaulay": "" if macaulay is None else str(macaulay),
        "jelonek": str(jelonek),
        "hermann": str(hermann),
        "slack": "" if slack is None else str(slack),
        "ms": str(ms),
        "extras": extras,
    }


def cmd_bench(args) -> int:
    if args.count < 1:
        raise ParseError(f"bad --count {args.count}; must be >= 1")
    if args.rho_cap < 0:
        raise ParseError(f"bad --rho-cap {args.rho_cap}; must be >= 0")
    budget = _budget(args)
    rows = [_run_bench_row(f, budget, args.rho_cap) for f in _bench_rows(args, budget)]
    cols = CSV_HEADER.split(",")
    widths = {c: max(len(c), max((len(r[c]) for r in rows), default=0)) for c in cols}
    print("  ".join(c.ljust(widths[c]) for c in cols))
    for r in rows:
        print("  ".join(r[c].ljust(widths[c]) for c in cols))
        for k, v in r["extras"].items():
            print(f"    {k}: {v}")
    if args.csv:
        lines = ["# brisk bench CSV v1", CSV_HEADER]
        lines += [",".join(r[c] for c in cols) for r in rows]
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {args.csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="brisk",
        description="Exact membership certificates, degree bounds, resolutions "
        "and projective invariants for polynomial systems on affine varieties.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    # every command takes --budget-pairs; only the two that build linear
    # systems take --budget-matrix
    pairs = argparse.ArgumentParser(add_help=False)
    pairs.add_argument("--budget-pairs", type=int, default=DEFAULT_BUDGET.max_pairs,
                       help="cap on Groebner S-pairs taken for reduction "
                            "(pairs the criteria discard do not count)")
    matrix = argparse.ArgumentParser(add_help=False, parents=[pairs])
    matrix.add_argument("--budget-matrix", type=int, default=DEFAULT_BUDGET.max_matrix_entries,
                        help="cap on linear-system entries before failing")
    closure = argparse.ArgumentParser(add_help=False, parents=[pairs])
    closure.add_argument("--homogenize-saturate", action="store_true",
                         help="work on the projective closure of an affine ideal")
    closure.add_argument("--char", type=int, help="prime field for the computation")

    p = sub.add_parser("membership", parents=[matrix],
                       help="search for degree-bounded certificates")
    p.add_argument("file")
    p.add_argument("--rho", type=int, help="search at this degree")
    p.add_argument("--min", action="store_true", help="scan for the minimal degree")
    p.add_argument("--rho-max", type=int, help="scan cap for --min (default: --rho or 20)")
    p.add_argument("--cap-gen", action="append", metavar="J:K",
                   help="cap deg Q_j <= K for generator j (1-based); repeatable")
    p.set_defaults(func=cmd_membership)

    p = sub.add_parser("bounds", parents=[pairs],
                       help="evaluate all degree bounds side by side")
    p.add_argument("file")
    p.add_argument("--compute-invariants", action="store_true",
                   help="fill dim/deg/reg via saturation+resolution pipeline")
    p.add_argument("--char", type=int, help="prime field for invariant computations")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("resolve", parents=[closure],
                       help="Betti table, regularity, drop-rank codims")
    p.add_argument("file")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("invariants", parents=[closure],
                       help="Hilbert data of the projective closure")
    p.add_argument("file")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("bench", parents=[matrix],
                       help="run an instance family, emit a table/CSV")
    p.add_argument("family", choices=["kollar", "macaulay-generic", "cusp"])
    p.add_argument("--d", help="degree or range (e.g. 2:3)")
    p.add_argument("--m", help="generator count or range")
    p.add_argument("--n", help="ambient dimension")
    p.add_argument("--p", help="cusp exponents (e.g. 3,5,7; a range A:B means its odd p)")
    p.add_argument("--count", type=int, default=5, help="samples per parameter point")
    p.add_argument("--rho-cap", type=int, default=40, help="certificate scan cap")
    p.add_argument("--csv", help="write rows to this CSV file")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.set_defaults(func=cmd_bench)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as ex:  # ParseError is a ValueError
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except BudgetExceededError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
