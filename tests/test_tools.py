"""The pure parts of ``tools/bench_pairs.py``: its verdict and its seed ranges.

The tool is loaded from its file, as a module of its own; no test here runs
a benchmark or starts a process.
"""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

LOWER, HIGHER = 1, -1  # the verdict's sign when lower, or higher, reads better


@pytest.mark.parametrize("parent, change, iqr, wins, sign, want", [
    # the parent spreads by 60 % of its median, and the change does not
    # read better in every run than every parent run
    ([10, 20, 30, 40], [24, 25, 25, 26], 15, 0.5, LOWER, "unresolved"),
    # the same spread, but every change run is below every parent run
    ([10, 20, 30, 40], [5, 6, 7, 8], 15, 1.0, LOWER, "gain"),
    # 20 % worse at a bound of 10 %
    ([10, 10, 10, 10], [12, 12, 12, 12], 0.05, 0.0, LOWER, "regressed"),
    ([100, 100, 100, 100], [70, 70, 70, 70], 1, 0.0, HIGHER, "regressed"),
    # better in every pair by more than the parent's IQR
    ([10, 10, 10, 10], [9.5, 9.5, 9.5, 9.5], 0.05, 1.0, LOWER, "gain"),
    ([100, 100, 100, 100], [105, 105, 105, 105], 1, 1.0, HIGHER, "gain"),
    # better by less than the IQR, or in too few pairs
    ([10, 10, 10, 10], [9.99, 9.99, 9.99, 9.99], 0.05, 1.0, LOWER, "no regression"),
    ([10, 10, 10, 10], [9.5, 9.5, 9.5, 9.5], 0.05, 0.8, LOWER, "no regression"),
    ([10, 10, 10, 10], [10.5, 10.5, 10.5, 10.5], 0.05, 0.0, LOWER, "no regression"),
])
def test_verdict(parent, change, iqr, wins, sign, want):
    assert bench_pairs.verdict(parent, change, iqr, wins, sign, 0.1) == want


@pytest.mark.parametrize("parent, change, iqr, wins, sign, want", [
    # jobs_per_s reads 0 when every job fails
    ([0, 0, 0, 0], [0, 0, 0, 0], 0, 0.0, HIGHER, "no regression"),
    ([0, 0, 0, 0], [900, 950, 1000, 1000], 0, 1.0, HIGHER, "gain"),
    # any worsening of a zero median is a regression, any spread unresolved
    ([0, 0, 0, 0], [0.5, 0.5, 0.5, 0.5], 0, 0.0, LOWER, "regressed"),
    ([0, 0, 0, 3], [0, 0, 1, 1], 0.75, 0.0, LOWER, "unresolved"),
])
def test_verdict_on_a_zero_parent_median(parent, change, iqr, wins, sign, want):
    assert bench_pairs.verdict(parent, change, iqr, wins, sign, 0.25) == want


@pytest.mark.parametrize("text, want", [
    ("5", range(1, 6)),
    ("7-9", range(7, 10)),
    ("0", None),  # no seed
    ("1", None),  # one seed
    ("4-4", None),
    ("3-1", None),
    ("x", None),
    ("2-x", None),
    ("-3", None),
])
def test_seed_range(text, want):
    assert bench_pairs.seed_range(text) == want
