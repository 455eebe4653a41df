"""Text formats: instance files, ideal files, certificate files.

An instance file describes one membership problem:

    vars: z1, z2
    variety:
        z1^2 - z2^5          # generators of the variety ideal, one per line
    generators:
        z2                   # the F_j
    target: z1               # Phi
    power: 1                 # optional, default 1
    branches:
        branch: z1 = t^5; z2 = t^2
    params:
        mu0 = 2
        c_inf = mu           # or -inf, or an explicit integer
        deg_x = 5
        reg_x = 5
        dim = 1

An ideal file is just the ``vars:`` header followed by one polynomial per
line.  Certificates are written in the ideal-file format, one cofactor
per multi-index in the canonical (descending lexicographic) order, with
the trailer lines ``rho: <int>`` and ``verified: true``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bounds import BoundInputs, CInf
from .certificate import Certificate, MembershipInstance, multi_indices
from .errors import ParseError
from .groebner import Ideal
from .localorder import BranchParam
from .polyring import NEG_INF, MultiPoly, PolyRing

_SECTIONS = ("vars", "variety", "generators", "target", "power", "branches", "params")


@dataclass
class InstanceFile:
    """Parsed instance file (see the module docstring for the format)."""

    ring: PolyRing
    variety: Ideal
    gens: list[MultiPoly]
    phi: MultiPoly | None
    power: int = 1
    branches: list[BranchParam] = field(default_factory=list)
    params: dict[str, str] = field(default_factory=dict)

    def membership_instance(self) -> MembershipInstance:
        if self.phi is None:
            raise ParseError("instance file has no target: section")
        if not self.gens:
            raise ParseError("instance file has no generators: section")
        return MembershipInstance(
            ring=self.ring,
            variety=self.variety,
            gens=tuple(self.gens),
            phi=self.phi,
            power=self.power,
        )

    def param_int(self, key: str) -> int | None:
        v = self.params.get(key)
        return None if v is None else int(v)

    def param_flag(self, key: str) -> bool:
        return self.params.get(key, "").lower() in ("1", "true", "yes")

    def c_inf(self) -> CInf:
        v = self.params.get("c_inf")
        if v is None or v == "mu":
            return CInf.upper_bound_mu()
        if v in ("-inf", "minus_infinity"):
            return CInf.minus_infinity()
        return CInf.explicit(int(v))

    def bound_inputs(self, computed: dict | None = None) -> BoundInputs:
        """Assemble BoundInputs from the params section, preferring
        explicitly supplied values over computed ones."""
        computed = computed or {}

        def pick(key: str, fallback=None):
            v = self.param_int(key)
            if v is not None:
                return v
            if key in computed:
                return computed[key]
            return fallback

        if self.phi is None or not self.gens:
            raise ParseError("bounds need generators: and target: sections")
        deg_phi = self.phi.degree()
        deg_phi = 0 if deg_phi == NEG_INF else int(deg_phi)
        d = max(int(g.degree()) for g in self.gens)
        # V = C^N: the closure is projective space itself
        trivial = self.variety.is_zero()
        dim = pick("dim", self.ring.nvars if trivial else None)
        deg_x = pick("deg_x", 1 if trivial else None)
        reg_x = pick("reg_x", 1 if trivial else None)
        missing = [
            k for k, v in (("dim", dim), ("deg_x", deg_x), ("reg_x", reg_x))
            if v is None
        ]
        if missing:
            raise ParseError(
                f"params needs {', '.join(missing)} for a nontrivial variety "
                "(or use --compute-invariants)"
            )
        return BoundInputs(
            ambient=self.ring.nvars,
            dim=dim,
            m=len(self.gens),
            d=d,
            deg_phi=deg_phi,
            deg_x=deg_x,
            reg_x=reg_x,
            ell=self.power,
            mu_zero=self.param_int("mu0"),
            mu_prime=self.param_int("mu_prime"),
            c_inf=self.c_inf(),
        )


def _strip_comment(line: str) -> str:
    return line.split("#", 1)[0].strip()


def _column(raw: str, text: str) -> int:
    """The 1-based column in the line ``raw`` of ``text``, which ends
    where the line ends once its comment and trailing blanks are cut."""
    return len(raw.split("#", 1)[0].rstrip()) - len(text) + 1


def _at(ex: ParseError, lineno: int, col: int) -> ParseError:
    """``ex``, raised on one line of text, placed in a file where that
    text starts at column ``col`` of line ``lineno``."""
    return ParseError(ex.message, lineno, col + (ex.col - 1 if ex.line else 0))


def _split_sections(text: str) -> dict[str, list[tuple[int, int, str]]]:
    """Each section's lines as (line number, column, text)."""
    sections: dict[str, list[tuple[int, int, str]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        head = line.split(":", 1)[0].strip()
        if ":" in line and head in _SECTIONS:
            if head in sections:
                raise ParseError(f"duplicate section {head!r}", lineno)
            current = head
            sections[current] = []
            rest = line.split(":", 1)[1].strip()
            if rest:
                sections[current].append((lineno, _column(raw, rest), rest))
        else:
            if current is None:
                raise ParseError(
                    f"content before any section header: {line!r}", lineno
                )
            sections[current].append((lineno, _column(raw, line), line))
    return sections


def _parse_polys(ring: PolyRing, items: list[tuple[int, int, str]]) -> list[MultiPoly]:
    out = []
    for lineno, col, line in items:
        try:
            out.append(ring.parse(line))
        except ParseError as ex:
            raise _at(ex, lineno, col) from ex
    return out


def parse_ring_header(item: tuple[int, int, str]) -> PolyRing:
    """The ring of a ``vars:`` item (line number, column, names)."""
    lineno, col, line = item
    names = tuple(n.strip() for n in line.split(",") if n.strip())
    if not names:
        raise ParseError("vars: header names no variables", lineno, col)
    try:
        return PolyRing(names)
    except ValueError as ex:
        raise ParseError(str(ex), lineno, col) from ex


def parse_instance(text: str) -> InstanceFile:
    sections = _split_sections(text)
    if "vars" not in sections:
        raise ParseError("instance file needs a vars: header")
    if not sections["vars"]:
        raise ParseError("empty vars: header")
    ring = parse_ring_header(sections["vars"][0])
    variety = Ideal(ring, _parse_polys(ring, sections.get("variety", [])))
    gens = _parse_polys(ring, sections.get("generators", []))
    phis = _parse_polys(ring, sections.get("target", []))
    if len(phis) > 1:
        raise ParseError("target: section must hold a single polynomial")
    power = 1
    if "power" in sections:
        lineno, col, line = sections["power"][0]
        try:
            power = int(line)
        except ValueError as ex:
            raise ParseError(f"bad power {line!r}", lineno, col) from ex
    branches = []
    for lineno, col, line in sections.get("branches", []):
        try:
            branches.append(BranchParam.parse(ring, line))
        except ParseError as ex:
            raise _at(ex, lineno, col) from ex
    params: dict[str, str] = {}
    for lineno, col, line in sections.get("params", []):
        if "=" not in line:
            raise ParseError(f"params line {line!r} lacks '='", lineno, col)
        key, val = line.split("=", 1)
        params[key.strip()] = val.strip()
    return InstanceFile(
        ring=ring,
        variety=variety,
        gens=gens,
        phi=phis[0] if phis else None,
        power=power,
        branches=branches,
        params=params,
    )


def parse_ideal_file(text: str) -> Ideal:
    """vars: header plus one polynomial per line."""
    lines = text.splitlines()
    ring = None
    polys: list[MultiPoly] = []
    for lineno, raw in enumerate(lines, start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        if ring is None:
            if not line.startswith("vars:"):
                raise ParseError("ideal file must start with a vars: header", lineno)
            rest = line[len("vars:") :].strip()
            ring = parse_ring_header((lineno, _column(raw, rest), rest))
            continue
        try:
            polys.append(ring.parse(line))
        except ParseError as ex:
            raise _at(ex, lineno, _column(raw, line)) from ex
    if ring is None:
        raise ParseError("ideal file is empty")
    return Ideal(ring, polys)


# --------------------------------------------------------- certificates


def format_certificate(inst: MembershipInstance, cert: Certificate) -> str:
    """Ideal-file style serialization: one cofactor line per multi-index
    in canonical order (zero cofactors printed as 0), then the trailer."""
    lines = ["vars: " + ", ".join(inst.ring.names)]
    for index in multi_indices(inst.m, inst.power):
        q = cert.cofactors.get(index)
        label = "Q" + "".join(str(i) for i in index) if inst.power > 1 else f"Q{index.index(1) + 1}"
        body = q.format() if q is not None else "0"
        lines.append(f"{body}  # {label} {index}")
    rho = cert.rho
    lines.append(f"rho: {int(rho) if rho != NEG_INF else -1}")
    lines.append(f"verified: {'true' if cert.verified else 'false'}")
    return "\n".join(lines)


def parse_certificate(text: str, inst: MembershipInstance) -> Certificate:
    lines = [
        (lineno, raw, line)
        for lineno, raw in enumerate(text.splitlines(), start=1)
        if (line := _strip_comment(raw))
    ]
    if not lines or not lines[0][2].startswith("vars:"):
        raise ParseError("certificate must start with a vars: header")
    lineno, raw, line = lines[0]
    rest = line[len("vars:") :].strip()
    ring = parse_ring_header((lineno, _column(raw, rest), rest))
    if ring != inst.ring:
        raise ParseError("certificate ring differs from the instance ring")
    trailer = {}
    body = []
    for lineno, raw, line in lines[1:]:
        if line.startswith("rho:") or line.startswith("verified:"):
            key, val = line.split(":", 1)
            trailer[key.strip()] = val.strip()
        else:
            body.append((lineno, _column(raw, line), line))
    indices = multi_indices(inst.m, inst.power)
    if len(body) != len(indices):
        raise ParseError(
            f"expected {len(indices)} cofactor lines, found {len(body)}"
        )
    cofactors = {index: q for index, q in zip(indices, _parse_polys(ring, body)) if q}
    rho = int(trailer.get("rho", "-1"))
    return Certificate(
        power=inst.power,
        cofactors=cofactors,
        rho=NEG_INF if rho < 0 else rho,
        verified=trailer.get("verified") == "true",
    )
