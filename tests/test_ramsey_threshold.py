"""scripts/ramsey_threshold.py: the backtracking verdict against the
exhaustive oracle, verified avoiding colorings, the node budget and the
command line."""

import json
import sys

import pytest

from intalg.search import ramsey_quad

from .conftest import load_script
from .ramsey_oracle import exhaustive_avoiding_coloring

SMALL_CASES = [(k, n) for k, top in ((1, 6), (2, 6), (3, 5)) for n in range(top + 1)]


@pytest.fixture
def script():
    return load_script("ramsey_threshold")


def run(script, monkeypatch, capsys, *argv):
    """Exit status and printed rows of the script's main on argv."""
    monkeypatch.setattr(sys, "argv", ["ramsey_threshold.py", *map(str, argv)])
    code = script.main()
    return code, [json.loads(line) for line in capsys.readouterr().out.splitlines()]


def assert_avoids(n, k, coloring):
    assert set(coloring) == {(i, j) for j in range(n) for i in range(j)}
    assert set(coloring.values()) <= set(range(k))
    assert ramsey_quad(n, lambda i, j: coloring[i, j]) is None


@pytest.mark.parametrize("k,n", SMALL_CASES)
def test_verdict_matches_exhaustive_oracle(script, k, n):
    verdict, coloring, _ = script.avoiding_coloring(n, k)
    expected = exhaustive_avoiding_coloring(n, k)
    assert verdict is (expected is None)
    if coloring is not None:
        assert_avoids(n, k, coloring)


@pytest.mark.parametrize("k,n,nodes", [(2, 9, 41_537), (3, 11, 81), (3, 12, 104_191)])
def test_verified_avoiding_colorings(script, k, n, nodes):
    # 2 * 10^4 random colorings here can all have a quadruple; these do not
    verdict, coloring, got = script.avoiding_coloring(n, k)
    assert (verdict, got) == (False, nodes)
    assert_avoids(n, k, coloring)


def test_two_colors_stop_at_ten(script, monkeypatch, capsys):
    argv = ("--colors", 2, "--min-n", 4, "--max-n", 12)
    code, rows = run(script, monkeypatch, capsys, *argv)
    assert code == 0
    assert [r["n"] for r in rows] == list(range(4, 11))
    assert [r["all_colorings_have_quadruple"] for r in rows] == [False] * 6 + [True]
    assert {r["method"] for r in rows} == {"backtracking"}
    assert rows[-1]["nodes"] == 318_541 and rows[-1]["coloring"] is None
    for r in rows[:-1]:
        columns = enumerate(r["coloring"], 1)
        coloring = {(i, j): c for j, col in columns for i, c in enumerate(col)}
        assert_avoids(r["n"], 2, coloring)


def test_budget_exhausted_prints_null_and_exits_1(script, monkeypatch, capsys):
    monkeypatch.setattr(script, "MAX_NODES", 1000)
    argv = ("--colors", 2, "--min-n", 7, "--max-n", 10)
    code, rows = run(script, monkeypatch, capsys, *argv)
    assert code == 1
    assert [(r["n"], r["all_colorings_have_quadruple"]) for r in rows] == [
        (7, False),
        (8, None),
    ]
    assert rows[-1]["nodes"] == 1000 and rows[-1]["coloring"] is None


def test_failed_reverification_exits_3(script, monkeypatch, capsys):
    # a coloring with a quadruple, as a faulty search might return it
    monochrome = {(i, j): 0 for j in range(4) for i in range(j)}
    monkeypatch.setattr(
        script, "avoiding_coloring", lambda n, k: (False, monochrome, 0)
    )
    code, rows = run(script, monkeypatch, capsys, "--min-n", 4, "--max-n", 4)
    assert (code, rows) == (3, [])


@pytest.mark.parametrize(
    "argv",
    [
        ("--samples", 200),
        ("--seed", 0),
        # nonsense, not a vacuous "true" or an empty coloring
        ("--colors", -1),
        ("--min-n", -1),
    ],
)
def test_rejected_arguments_exit_2(script, monkeypatch, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(script, monkeypatch, capsys, *argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
