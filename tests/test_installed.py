"""Pinned results through the entry points a user calls.

Intervals and test counts at n = 100-300, full p-values at n = 100,
coverage sweeps up to the CLI's size cap and a batch that changes its level
or statistic on every row.

The CLI runs as `python -m exactci.cli` under the inherited environment,
each call a fresh process. Library pins call the library, and the cold
prefix-row build runs in a fresh interpreter, whose caches are empty.
"""

import json
import subprocess
import sys
from fractions import Fraction as F

import pytest

from exactci import ObservedTable, PotentialTable, frontier_scan, p_one_sided, p_two_sided

CLI = [sys.executable, "-m", "exactci.cli"]


def run(*args: str, stdin: str | None = None) -> subprocess.CompletedProcess:
    return subprocess.run([*CLI, *args], input=stdin, capture_output=True, text=True)


def compute(table: str, alpha: str, method: str):
    return json_out(run("compute", "--table", table, "--alpha", alpha, "--method", method, "--format", "json"))


def json_out(res: subprocess.CompletedProcess):
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


#: (table, method, pinned fields of compute's JSON at alpha = 0.05)
COMPUTE_PINS = [
    # tail sums beyond the n <= 60 of the seeded decision-path pairs
    pytest.param("25,25,25,25", "two-sided", {"ci_ntau": [-18, 18], "tests": 3876}, id="balanced-two-sided"),
    # one-sided tests decided by the integer threshold
    pytest.param("25,25,25,25", "one-sided-lower", {"ci_ntau": [-16, 50], "tests": 3876}, id="balanced-one-sided"),
    pytest.param("10,40,30,20", "one-sided-lower", {"ci_ntau": [-52, 30], "tests": 3321}, id="one-sided"),
    # m = 70 > n/2: the tail sums run on the transposed table
    pytest.param("30,40,10,20", "one-sided-lower", {"ci_ntau": [-8, 50], "tests": 3321}, id="transposed-one-sided"),
    # m = 70 > n/2: both frontier scans run on the treatment-label conjugate
    pytest.param("40,30,20,10", "two-sided", {"ci_ntau": [-27, 11], "tests": 7242}, id="conjugated-two-sided"),
    # m = 30 < n/2, scanned without conjugation: the previous N11 row settles
    # accepts only from frontiers accepted by their upper tail alone
    pytest.param("10,20,25,45", "two-sided", {"ci_ntau": [-21, 17], "tests": 7419}, id="unbalanced-two-sided"),
    # shrunk hypergeometric intervals beyond the exhaustive checks' totals <= 40;
    # the upper ends mirror the shrunk lower ends
    pytest.param("75,75,75,75", "bonferroni", {"ci_ntau": [-38, 38]}, id="bonferroni-n300"),
    pytest.param("75,75,75,75", "margin-inversion", {"ci_ntau": [-91, 91]}, id="margin-inversion-n300"),
    pytest.param("10,40,30,20", "bonferroni", {"ci_ntau": [-57, -18]}, id="bonferroni-n100"),
    pytest.param("10,40,30,20", "margin-inversion", {"ci_ntau": [-59, 10]}, id="margin-inversion-n100"),
    pytest.param("30,40,10,20", "bonferroni", {"ci_ntau": [-15, 31]}, id="bonferroni-n100-transposed"),
    pytest.param("30,40,10,20", "margin-inversion", {"ci_ntau": [-19, 40]}, id="margin-inversion-n100-transposed"),
]

#: (n, m, method, least coverage of a true table, mean coverage line) at alpha = 0.05
COVERAGE_PINS = [
    (10, 5, "two-sided", "20/21", "0.994256"),
    # m > n - m: every interval is scanned through its treatment-label conjugate
    (12, 7, "two-sided", "251/264", "0.992130"),
    # the largest balanced design under the size cap
    (14, 7, "bonferroni", "140/143", "0.998652"),
    (14, 7, "two-sided", "409/429", "0.995513"),
    (14, 7, "one-sided-lower", "823/858", "0.994348"),
    # margin-inversion intervals are mirror-equivariant, so one table of each
    # mirror pair is weighed; one-sided-lower intervals are not
    (13, 4, "margin-inversion", "140/143", "0.999481"),
    (13, 4, "one-sided-lower", "136/143", "0.993437"),
]

#: one design (24, 12), a new (level, statistic) pair at each row
SWITCH_ROWS = [
    ("8,4,5,7", "0.05", "two-sided"),
    ("7,5,4,8", "0.1", "two-sided"),
    ("6,6,6,6", "0.05", "two-sided"),
    ("8,4,5,7", "0.1", "one-sided-lower"),
    ("5,7,3,9", "0.05", "one-sided-lower"),
    ("7,5,4,8", "0.05", "two-sided"),
]


@pytest.mark.parametrize("table, method, pinned", COMPUTE_PINS)
def test_compute_interval_and_tests(table, method, pinned):
    got = compute(table, "0.05", method)
    assert {key: got[key] for key in pinned} == pinned


@pytest.mark.parametrize("n, m, method, least, mean", COVERAGE_PINS)
def test_coverage_sweep_least_and_mean(n, m, method, least, mean):
    res = run("coverage", "--n", str(n), "--m", str(m), "--alpha", "0.05", "--method", method)
    assert res.returncode == 0, res.stderr  # 5 would mean a table covered below 19/20
    lines = res.stdout.splitlines()
    assert lines[2].startswith(f"min coverage:  {least} ("), lines
    assert lines[3] == f"mean coverage: {mean}", lines


def test_batch_rows_switch_groups_and_equal_rows_alone():
    csv = "n11,n10,n01,n00,alpha,method\n" + "".join(",".join(row) + "\n" for row in SWITCH_ROWS)
    got = json_out(run("batch", "-", "--format", "json", stdin=csv))
    pins = [([-3, 13], 421), ([-2, 12], 409), ([-8, 8], 247), ([-1, 15], 259), ([-4, 14], 189), ([-3, 13], 409)]
    assert [(r["ci_ntau"], r["tests"]) for r in got] == pins
    for row, result in zip(SWITCH_ROWS, got, strict=True):
        assert compute(*row) == result, row


@pytest.mark.parametrize(
    "cells, statistic, ends, tests, settled, cells_scanned",
    [
        ((25, 25, 25, 25), "two_sided", (-18, 0), 3876, 1149, 3876),
        ((10, 40, 30, 20), "one_sided", (-52, 30), 3321, 2241, 3321),
        ((10, 20, 25, 45), "two_sided", (-21, -3), 2898, 713, 3006),
    ],
    ids=["balanced-two-sided", "one-sided", "unbalanced-two-sided"],
)
def test_frontier_scan_ends_tests_settled_and_cells(cells, statistic, ends, tests, settled, cells_scanned):
    scan = frontier_scan(ObservedTable(*cells), F(1, 20), statistic)
    got = (scan.ends, scan.tests, scan.settled, sum(map(len, scan.frontiers)))
    assert got == (ends, tests, settled, cells_scanned)


@pytest.mark.parametrize(
    "cells, observed, p2, p1",
    [
        # tail sums run to their end, with no stop: m = n/2, m < n/2, and
        # m > n/2 on the transposed table
        ((30, 20, 10, 40), (25, 25, 25, 25),
         F("11229047183725660666753/39966591775589604678993"),
         F("9879351984385109288906/10899979575160801276089")),
        ((20, 30, 25, 25), (10, 20, 25, 45),
         F("36014099861411206736941/94749483295519176851496"),
         F("696532343861818813513403/839209709188884137827536")),
        ((10, 40, 30, 20), (40, 30, 20, 10),
         F("144896934858109489585/31247170022990366834004"),
         F("11687536181015985093863/11711459259015528239220")),
    ],
    ids=["balanced", "unbalanced", "transposed"],
)
def test_full_p_values(cells, observed, p2, p1):
    N, nobs = PotentialTable(*cells), ObservedTable(*observed)
    assert (p_two_sided(N, nobs), p_one_sided(N, nobs)) == (p2, p1)


COLD_CI = """
import json
from fractions import Fraction
from exactci import ObservedTable, ci_two_sided_frontier, hypergeom
r = ci_two_sided_frontier(ObservedTable(10, 20, 25, 45), Fraction(1, 20))
info = hypergeom._at_most.cache_info()
print(json.dumps([r.ci_ntau, r.tests, info.misses, info.currsize, hypergeom._rows_built,
                  hypergeom._held_bytes <= hypergeom._ROW_BUDGET]))
"""


def test_cold_ci_builds_each_prefix_row_once():
    # the prefix-row cache is bounded by bytes: a cold CI at n = 100 keeps
    # every row it reads and builds each once, and the build count, which a
    # budget drop would not reset, agrees
    res = subprocess.run([sys.executable, "-c", COLD_CI], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == [[-21, 17], 7419, 26613, 26613, 26613, True]
