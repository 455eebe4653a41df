"""Fast test of the benchmark: every workload's checks pass on reduced
inputs, and each kind of check fails on a corrupted answer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import workloads  # noqa: E402
from brisk import families  # noqa: E402
from brisk.polyring import MultiPoly  # noqa: E402


def _answers(name: str) -> dict:
    ops = workloads.build(name, seed=3, small=True)
    return {op.name: (op, op.call()) for op in ops}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_small_workload_passes_its_checks(name):
    for op, answer in _answers(name).values():
        op.check(answer)


def _fails(op, answer):
    with pytest.raises(checks.CheckFailed):
        op.check(answer)


def test_perturbed_cofactor_is_caught():
    op, cert = _answers("certify")["kollar233.rho8"]
    index, q = next(iter(cert.cofactors.items()))
    bumped = q + MultiPoly(q.ring, {(0,) * q.ring.nvars: Fraction(1, 7)})
    _fails(op, dataclasses.replace(cert, cofactors={**cert.cofactors, index: bumped}))


def test_wrong_not_found_is_caught():
    op, found = _answers("sweep")["kollar.0"]
    hickel, others, _, extra = found
    _fails(op, (hickel, others, None, extra))
    op, _ = _answers("certify")["kollar233.min6"]
    _fails(op, (8, None))
    op, found = _answers("sweep")["macaulay-generic.0"]
    _fails(op, found[:2] + (None,) + found[3:])


def test_macaulay_sample_with_an_affine_zero_is_not_found():
    # the fourth draw of this stream shares the affine zero (0, -1)
    rng = random.Random("sweep-102")
    for _ in range(3):
        families.macaulay_generic(2, 2, rng)
    op = workloads._sweep_row(families.macaulay_generic(3, 2, rng), "zero")
    answer = op.call()
    assert answer[2] is None
    op.check(answer)


def test_wrong_bs_exponent_is_caught():
    op, (hickel, others, found, extra) = _answers("sweep")["cusp.0"]
    _fails(op, (hickel, others, found, extra + 1))


def test_dropped_basis_element_is_caught():
    for label in ("katsura3.Q", "cyclic5.GF32003"):
        op, gb = _answers("groebner")[label]
        _fails(op, list(gb)[:-1])


def test_wrong_betti_number_is_caught():
    op, (res, reg, codims, hilb) = _answers("resolve")["twisted_cubic"]
    step = res.steps[0]
    source = dataclasses.replace(step.source, twists=step.source.twists + (2,))
    bad = dataclasses.replace(res, steps=(dataclasses.replace(step, source=source),) + res.steps[1:])
    _fails(op, (bad, reg, codims, hilb))
    _fails(op, (res, reg + 1, codims, hilb))


def test_independent_algebra():
    assert checks.eagon_northcott(5) == {(1, 2): 10, (2, 3): 20, (3, 4): 15, (4, 5): 4}
    x2 = {(2,): Fraction(1)}
    one = {(0,): Fraction(1)}
    # 1 = x^2 * Q has no solution; x^2 = x^2 * 1 has one
    assert checks.dense_infeasible([x2], one, 4, 1)
    assert not checks.dense_infeasible([x2], x2, 2, 1)
    assert checks.standard_monomials([(3, 0), (0, 2)], 2) == 6


def _runner(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_runner_prints_every_metric():
    root = os.path.dirname(HERE)
    for trace, keys in (("0", {"cpu_s", "setup_s", "peak_rss_mb"}), ("1", {"linalg.solve_s", "trace.cpu_s"})):
        proc = _runner(root, "--workload", "resolve", "--seed", "1", "--seconds", "1", "--trace", trace, "--small")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 2 and result["failed"] == 0
        assert keys <= set(result["metrics"])


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _runner(str(tmp_path), "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
