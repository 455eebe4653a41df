"""The span hooks of ``perfbench/spans.py`` resolve against the library.

The tracer wraps brisk functions by name, private ones among them
(``groebner._nf_terms``, ``groebner._reduce_basis``,
``resolution._minimalize``), also where another module imported them by
name (``linalg.solve_sparse`` in ``certificate``).  A hook whose name is
gone only lands in ``Tracer.missing``, and the counts it carries then
read 0 in a traced benchmark run with no error.  The tracer runs in a
subprocess, so the patched functions never reach this test process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json

import brisk.cli
from brisk import certificate, families, groebner, resolution
from brisk.polyring import PolyRing
from spans import Tracer

tracer = Tracer()
tracer.install()
# the hooked functions are looked up after the install
R = PolyRing(("x", "y", "z", "w"))
cubic = groebner.Ideal(R, [R.parse(g) for g in ("x*z - y^2", "y*w - z^2", "x*w - y*z")])
groebner.buchberger(cubic)
resolution.bef_codims(resolution.minimal_resolution(cubic))
# Found at rho_min = 4, where the scan's one search runs; the search at
# 3 finds nothing
kollar = families.kollar(2, 2, 2).instance
assert certificate.minimal_degree(kollar, 6)[0] == 4
assert certificate.search_at_degree(kollar, 3) is None
print(json.dumps({"missing": tracer.missing, "metrics": tracer.metrics()}))
"""


@pytest.fixture(scope="module")
def traced():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_hook_resolves(traced):
    assert traced["missing"] == []


def test_traced_counts_are_recorded(traced):
    metrics = traced["metrics"]
    assert metrics["groebner.reductions"] > 0
    assert metrics["groebner.bases"] > 0
    assert metrics["kernel.normal_form_calls"] > 0
    assert metrics["modules.frame_rank"] > 0
    assert metrics["resolution.betti_total"] > 0


def test_certificate_hooks_are_recorded(traced):
    # solve_sparse, search_at_degree and verify are patched where the
    # scan looks them up; a hook that misses reads 0.  The scan searches
    # once, at rho_min, and the search at 3 adds the infeasible solve
    metrics = traced["metrics"]
    assert metrics["linalg.solves"] == 2
    assert metrics["linalg.infeasible"] == 1
    assert metrics["certificate.searches"] == 2
    assert metrics["certificate.verify_s"] > 0
