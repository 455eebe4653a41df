"""Span tracing of brisk's layers, installed from outside the program.

``Tracer.install`` wraps the public functions of each layer and the few
private helpers that carry a count (S-polynomial reductions, the
Schreyer frame).  It patches every name a caller actually looks up: a
function imported by name into another module is replaced there too,
and ``GroebnerBasis.normal_form`` is replaced on the class.  Each call
records a span (name, start, end, parent) in memory; ``metrics`` turns
the spans and counts into the per-layer metrics, with self time being a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

# (module, attribute, span name or None for count-only hooks)
HOOKS = (
    ("brisk.linalg", "solve_sparse", "linalg.solve"),
    ("brisk.certificate", "search_at_degree", "certificate.search"),
    ("brisk.certificate", "verify", "certificate.verify"),
    ("brisk.groebner", "buchberger", "groebner.buchberger"),
    ("brisk.groebner", "GroebnerBasis.normal_form", "groebner.nf"),
    ("brisk.groebner", "_nf_terms", None),
    ("brisk.groebner", "_reduce_basis", None),
    ("brisk.kernel", "normal_form", "kernel.normal_form"),
    ("brisk.modules", "syzygies_of_groebner", "modules.syzygy"),
    ("brisk.modules", "syzygies_of_columns", "modules.syzygy"),
    ("brisk.resolution", "minimal_resolution", "resolution.minimal_resolution"),
    ("brisk.resolution", "_minimalize", None),
    ("brisk.resolution", "bef_codims", "resolution.bef"),
    ("brisk.invariants", "hilbert_data", "invariants.hilbert"),
    ("brisk.invariants", "empty_at_infinity", "invariants.empty_at_infinity"),
    ("brisk.families", "kollar", "families.generate"),
    ("brisk.families", "macaulay_generic", "families.generate"),
    ("brisk.families", "cusp", "families.generate"),
    ("brisk.localorder", "max_bs_exponent", "localorder.bs_exponent"),
    ("brisk.localorder", "bs_exponent_check", "localorder.bs_exponent"),
)

# per-layer metric -> (kind, span name): "total" is the summed span
# duration, "self" the duration minus the child spans
TIMES = {
    "linalg.solve_s": ("total", "linalg.solve"),
    "certificate.search_s": ("self", "certificate.search"),
    "certificate.verify_s": ("total", "certificate.verify"),
    "groebner.buchberger_s": ("self", "groebner.buchberger"),
    "groebner.nf_s": ("total", "groebner.nf"),
    "kernel.normal_form_s": ("total", "kernel.normal_form"),
    "modules.syzygy_s": ("total", "modules.syzygy"),
    "resolution.minimalize_s": ("self", "resolution.minimal_resolution"),
    "resolution.bef_s": ("total", "resolution.bef"),
    "invariants.hilbert_s": ("total", "invariants.hilbert"),
    "invariants.empty_at_infinity_s": ("total", "invariants.empty_at_infinity"),
    "families.generate_s": ("total", "families.generate"),
    "localorder.bs_exponent_s": ("total", "localorder.bs_exponent"),
}

COUNTS = (
    "linalg.solves",
    "linalg.rows",
    "linalg.cols",
    "linalg.nnz",
    "linalg.infeasible",
    "certificate.searches",
    "certificate.columns",
    "groebner.bases",
    "groebner.basis_size",
    "groebner.reductions",
    "groebner.reductions_to_zero",
    "groebner.nf_calls",
    "kernel.normal_form_calls",
    "modules.frame_rank",
    "resolution.betti_total",
)

RATIOS = ("groebner.useful_ratio", "resolution.frame_ratio")

METRICS = tuple(TIMES) + COUNTS + RATIOS


def _lookup(modname: str, path: str):
    """(owner, attribute name) of a hook, or (None, None) when the module
    or class is gone."""
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return None, None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    return owner, parts[-1]


class Tracer:
    """Spans and counts for one worker process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.tail_depth = 0
        self.missing: list[str] = []

    # -------------------------------------------------------------- hooks

    def _top(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def _wrap(self, fn, span: str | None, path: str):
        hook = path.replace(".", "_")
        before = getattr(self, f"_before_{hook}", None)
        after = getattr(self, f"_after_{hook}", None)
        clock = time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            if span is None:
                result = fn(*args, **kwargs)
            else:
                idx = len(self.spans)
                self.spans.append([span, clock(), None, self.stack[-1] if self.stack else -1])
                self.stack.append(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.stack.pop()
                    self.spans[idx][2] = clock()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after_solve_sparse(self, args, result):
        rows, _, ncols = args[:3]
        c = self.counts
        c["linalg.solves"] += 1
        c["linalg.rows"] += len(rows)
        c["linalg.cols"] += ncols
        c["linalg.nnz"] += sum(len(r) for r in rows)
        c["linalg.infeasible"] += result is None

    def _before_search_at_degree(self, args):
        self.counts["certificate.searches"] += 1

    def _before_GroebnerBasis_normal_form(self, args):
        self.counts["groebner.nf_calls"] += 1
        if self._top() == "certificate.search":
            self.counts["certificate.columns"] += 1

    def _before_normal_form(self, args):
        self.counts["kernel.normal_form_calls"] += 1

    def _after_buchberger(self, args, result):
        self.counts["groebner.bases"] += 1
        self.counts["groebner.basis_size"] += len(result)

    # _reduce_basis tail-reduces the finished basis through _nf_terms;
    # only the S-polynomial reductions before it count
    def _before__reduce_basis(self, args):
        self.tail_depth += 1

    def _after__reduce_basis(self, args, result):
        self.tail_depth -= 1

    def _after__nf_terms(self, args, result):
        if self.tail_depth == 0 and self._top() == "groebner.buchberger":
            self.counts["groebner.reductions"] += 1
            self.counts["groebner.reductions_to_zero"] += not result

    def _after__minimalize(self, args, result):
        self.counts["modules.frame_rank"] += sum(s.source.rank for s in args[1])

    def _after_minimal_resolution(self, args, result):
        self.counts["resolution.betti_total"] += sum(s.source.rank for s in result.steps)

    def install(self, extra_modules=()) -> None:
        """Patch every hook, in each brisk module and in ``extra_modules``
        wherever the original function is bound."""
        modules = [m for n, m in sys.modules.items() if n.startswith("brisk")]
        modules += list(extra_modules)
        for modname, path, span in HOOKS:
            owner, name = _lookup(modname, path)
            orig = getattr(owner, name, None) if owner is not None else None
            if orig is None:
                self.missing.append(f"{modname}.{path}")
                continue
            wrapped = self._wrap(orig, span, path)
            setattr(owner, name, wrapped)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)

    # -------------------------------------------------------------- output

    def metrics(self) -> dict[str, float]:
        total: Counter = Counter()
        child: Counter = Counter()
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            own[name] += end - start - child[i]
        out: dict[str, float] = {}
        for metric, (kind, span) in TIMES.items():
            out[metric] = (own if kind == "self" else total)[span]
        for metric in COUNTS:
            out[metric] = self.counts[metric]
        red = self.counts["groebner.reductions"]
        useful = red - self.counts["groebner.reductions_to_zero"]
        out["groebner.useful_ratio"] = useful / red if red else 0.0
        frame = self.counts["modules.frame_rank"]
        out["resolution.frame_ratio"] = self.counts["resolution.betti_total"] / frame if frame else 0.0
        return out

    def write(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": names,
                    "fields": ["name", "start", "end", "parent"],
                    "spans": [[ids[n], round(s, 7), round(e, 7), p] for n, s, e, p in self.spans],
                    "missing_hooks": self.missing,
                },
                fh,
                separators=(",", ":"),
            )
