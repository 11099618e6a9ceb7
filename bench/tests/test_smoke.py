"""Tests of the benchmark itself: run with `python3 -m pytest bench/tests`."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import workloads  # noqa: E402


def test_smoke_mode_emits_every_metric_without_errors():
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                           "--smoke"], cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "smoke: ok"


def test_products_check_rejects_a_wrong_product():
    rng = random.Random(5)
    wl = workloads.Products()
    wl.build(wl.plan(rng))
    op = wl.next_op(rng)
    result = wl.run(op)
    assert wl.check(op, result)
    assert not wl.check(op, result + result)


def test_evaluate_text_reads_the_printed_form():
    at = (Fraction(2), Fraction(3), Fraction(5))
    assert workloads.evaluate_text("z*k - z^2/(z^2 - 1)*h", at) == \
        {0: Fraction(10) - Fraction(4, 3) * 3}
    assert workloads.evaluate_text("(-z + 1/2)*h*x^2 + y", at) == \
        {2: Fraction(-3, 2) * 3, -1: Fraction(1)}


def test_cli_cases_are_the_readme_examples():
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    for case in workloads.cli_cases():
        assert case["stdout"] in readme
        for arg in case["args"]:
            assert arg in readme, arg


def test_run_refuses_a_tree_without_the_library(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith((".py", ".json")):
            (bench / name).write_bytes(open(os.path.join(BENCH, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_bytes(
        open(os.path.join(ROOT, "BENCHMARK.json"), "rb").read())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "products", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
