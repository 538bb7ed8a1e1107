"""End-to-end CLI behavior: subcommands, exit codes, files, determinism."""

import argparse
import contextlib
import errno
import io
import itertools
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intalg import algebra, cli, homogeneity, product
from intalg.cli import (
    EXIT_INPUT_ERROR,
    EXIT_INTERNAL_ERROR,
    EXIT_NO_WITNESS,
    EXIT_OK,
    main,
)
from intalg.errors import CapacityError, InputError
from intalg.product import Family
from intalg.terms import MAX_TERM_DEPTH
from intalg.triples import MAX_SWEEP_ORDER

from .homogeneity_oracle import nesting_gap
from .triples_oracle import sweep_triples

# the src/ directory this intalg came from, for fresh interpreters
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_family(path, fam):
    path.write_text(json.dumps(fam.to_dict()))


def pool_random_family(seed, kappa, order_sizes, N, max_intervals):
    """Reference for cli.gen_random_family: sample from the endpoint pool
    itself, built in full for every member and coordinate."""
    rng = random.Random(seed)
    members = []
    for _ in range(N):
        member = []
        for p in order_sizes:
            pool = [algebra.NEG_INF, *range(1, p), algebra.POS_INF]
            count = rng.randint(0, max_intervals)
            eps = tuple(sorted(rng.sample(pool, 2 * count)))
            member.append(algebra.Element(p, eps))
        members.append(tuple(member))
    return Family(kappa, tuple(order_sizes), tuple(members))


def nested_family_file(tmp_path, seed=7, kappa=1, p=64, n=9, k=4):
    cols = [
        homogeneity.gen_homogeneous(seed + z, p, n, k, gap_choices=[1] * n)
        for z in range(kappa)
    ]
    fam = Family(
        kappa,
        (p,) * kappa,
        tuple(tuple(cols[z][i] for z in range(kappa)) for i in range(n)),
    )
    path = tmp_path / "family.json"
    write_family(path, fam)
    return path, fam


class TestCanon:
    def test_example(self, capsys):
        code, out, _ = run(capsys, "canon", "--order", "5", "--points", "0,1,4")
        assert code == EXIT_OK
        assert json.loads(out) == ["-inf", 2, 4, "+inf"]

    def test_empty_points(self, capsys):
        code, out, _ = run(capsys, "canon", "--order", "5")
        assert code == EXIT_OK and json.loads(out) == []

    def test_bad_point(self, capsys):
        code, _, err = run(capsys, "canon", "--order", "5", "--points", "9")
        assert code == EXIT_INPUT_ERROR
        assert json.loads(err)["error"] == "InputError"


class TestEval:
    def test_zero_term(self, capsys, tmp_path):
        path, _ = nested_family_file(tmp_path)
        code, out, _ = run(
            capsys,
            "eval",
            "--term",
            "x0^x0",
            "--family",
            str(path),
            "--assign",
            "0,0",
        )
        assert code == EXIT_OK
        assert json.loads(out)["zero"] is True

    def test_bad_term(self, capsys, tmp_path):
        path, _ = nested_family_file(tmp_path)
        code, _, err = run(
            capsys, "eval", "--term", "x0*", "--family", str(path), "--assign", "0"
        )
        assert code == EXIT_INPUT_ERROR and "position" in json.loads(err)["message"]

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "eval",
            "--term",
            "x0",
            "--family",
            str(tmp_path / "nope.json"),
            "--assign",
            "0",
        )
        assert code == EXIT_INPUT_ERROR


class TestIndependent:
    def test_independent_pair(self, capsys, tmp_path):
        fam = Family(
            1,
            (4,),
            (
                (algebra.from_point_set(4, {0, 1}),),
                (algebra.from_point_set(4, {0, 2}),),
            ),
        )
        path = tmp_path / "fam.json"
        write_family(path, fam)
        code, out, _ = run(
            capsys, "independent", "--family", str(path), "--indices", "0,1"
        )
        assert code == EXIT_OK
        assert json.loads(out) == {"independent": True}

    def test_dependent_with_witness(self, capsys, tmp_path):
        a = algebra.from_point_set(6, {1, 2})
        fam = Family(1, (6,), ((a,), (algebra.complement(a),)))
        path = tmp_path / "fam.json"
        write_family(path, fam)
        code, out, _ = run(
            capsys, "independent", "--family", str(path), "--indices", "0,1"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["independent"] is False
        assert sorted(report["witness"]["gamma"] + report["witness"]["nabla"]) == [
            0,
            1,
        ]


    def test_kappa_zero_bytes(self, capsys, tmp_path):
        path = tmp_path / "fam.json"
        write_family(path, Family(0, (), ((),) * 3))
        code, out, _ = run(
            capsys, "independent", "--family", str(path), "--indices", "0,1,2"
        )
        assert code == EXIT_OK
        assert out == (
            '{"independent":false,"witness":'
            '{"gamma":[],"nabla":[0,1,2],"pattern":[0,0,0]}}\n'
        )


class TestHomog:
    def test_check_ok(self, capsys, tmp_path):
        # free gap choices, so that the ells differ between pairs
        seq = homogeneity.gen_homogeneous(7, 64, 9, 5)
        fam = Family.from_columns((64,), [seq])
        path = tmp_path / "family.json"
        write_family(path, fam)
        code, out, _ = run(capsys, "homog", "check", "--family", str(path))
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["homogeneous"] is True
        # every pair once, in (alpha, beta) order, with its nesting gap
        finites = [algebra.sigma_of(a)[1] for a in seq]
        want = [
            [alpha, beta, nesting_gap(finites[alpha], finites[beta])]
            for alpha, beta in itertools.combinations(range(len(seq)), 2)
        ]
        assert report["coordinates"][0]["ell"] == want
        assert len({ell for _, _, ell in want}) > 1

    @pytest.mark.parametrize("kappa", [1, 2, 3])
    def test_check_bytes_match_the_sorted_witnesses(self, capsys, tmp_path, kappa):
        # the ell rows read alpha-major give the bytes of all [alpha, beta,
        # ell] entries sorted, on homogeneous and non-homogeneous coordinates
        rng = random.Random(kappa)
        for _ in range(4):
            n, k = rng.randint(0, 12), rng.randint(2, 6)
            columns = [
                homogeneity.gen_homogeneous(rng.randrange(1000), 80, n, k)
                if rng.random() < 0.8
                else pool_random_family(rng.random(), 1, (80,), n, 2).coordinate(0)
                for _ in range(kappa)
            ]
            path = tmp_path / "family.json"
            write_family(path, Family.from_columns((80,) * kappa, columns, n))
            code, out, _ = run(capsys, "homog", "check", "--family", str(path))
            coordinates = []
            for column in columns:
                report = homogeneity.check_homogeneous(column)
                entry = {"zeta": len(coordinates), "homogeneous": report.ok}
                if report.ok:
                    entry["ell"] = sorted(
                        [alpha, beta, ell]
                        for beta, row in enumerate(report.ell)
                        for alpha, ell in enumerate(row)
                    )
                else:
                    v = report.violation
                    entry["violation"] = {
                        "clause": v.clause, "pair": list(v.pair), "detail": v.detail
                    }
                coordinates.append(entry)
            want = {
                "homogeneous": all(c["homogeneous"] for c in coordinates),
                "coordinates": coordinates,
            }
            assert code == EXIT_OK and out == cli._dump(want)

    def test_check_violation(self, capsys, tmp_path):
        fam = Family(
            1,
            (9,),
            (
                (algebra.Element(9, (1, 3)),),
                (algebra.Element(9, (2, 5)),),
            ),
        )
        path = tmp_path / "fam.json"
        write_family(path, fam)
        code, out, _ = run(capsys, "homog", "check", "--family", str(path))
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["homogeneous"] is False
        assert report["coordinates"][0]["violation"] == {
            "clause": 3,
            "pair": [0, 1],
            "detail": "no single gap contains the later endpoints",
        }

    @pytest.mark.parametrize(
        "data",
        [
            {"kappa": 1, "order_sizes": [5], "elements": [[[1, 3], [2, 4]]]},
            {"kappa": 1, "order_sizes": [5], "elements": [[]]},
            {"kappa": 1, "order_sizes": ["5"], "elements": [[[1, 3]]]},
            {"kappa": 1, "order_sizes": [-5], "elements": []},
            {"kappa": 1, "order_sizes": [5], "elements": [5]},
            {"kappa": 1, "order_sizes": [5], "elements": [[5]]},
            {"kappa": 2, "order_sizes": [5], "elements": [[[1, 3], [2, 4]]]},
            {"kappa": "1", "order_sizes": [5], "elements": []},
            {"kappa": 1, "order_sizes": 5, "elements": []},
            {"kappa": 1, "order_sizes": [5], "elements": {"0": []}},
            [1, 2, 3],
        ],
    )
    def test_check_malformed_family(self, capsys, tmp_path, data):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "homog", "check", "--family", str(path))
        assert code == EXIT_INPUT_ERROR and out == ""
        assert json.loads(err)["error"] == "InputError"

    def test_extract_with_parts_file(self, capsys, tmp_path):
        path, _ = nested_family_file(tmp_path, n=5)
        parts_path = tmp_path / "parts.json"
        code, out, _ = run(
            capsys,
            "homog",
            "extract",
            "--family",
            str(path),
            "--parts-out",
            str(parts_path),
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["indices"] == [0, 1, 2, 3, 4]
        sibling = json.loads(parts_path.read_text())
        assert sibling == {"parts": report["parts"]}
        assert sibling["parts"][0][0] == "-inf"
        assert sibling["parts"][0][-1] == "+inf"


class TestLemma16:
    def test_verify(self, capsys):
        code, out, _ = run(
            capsys, "lemma16", "verify", "--max-order", "4", "--max-k", "3"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["counterexamples"] == []
        assert report["triples"] == report["case1"] + report["case2"]

    def test_capacity(self, capsys):
        code, _, err = run(
            capsys,
            "lemma16", "verify", "--max-order", str(MAX_SWEEP_ORDER + 1), "--max-k", "3",
        )
        assert code == EXIT_INPUT_ERROR
        assert json.loads(err)["error"] == "CapacityError"

    def test_past_the_exhaustive_orders(self, capsys):
        code, out, _ = run(
            capsys, "lemma16", "verify", "--max-order", "9", "--max-k", "4"
        )
        assert code == EXIT_OK
        assert json.loads(out) == sweep_triples(9, 4).to_dict()

    def test_order_cap(self, capsys):
        code, out, _ = run(
            capsys, "lemma16", "verify", "--max-order", "1000000", "--max-k", "6"
        )
        assert code == EXIT_OK
        assert '"counterexamples":[]' in out


class TestSearch:
    def test_sextuple_found(self, capsys, tmp_path):
        path, fam = nested_family_file(tmp_path, n=9)
        out_path = tmp_path / "cert.json"
        code, _, _ = run(
            capsys,
            "search",
            "sextuple",
            "--family",
            str(path),
            "--out",
            str(out_path),
        )
        assert code == EXIT_OK
        cert = json.loads(out_path.read_text())
        assert cert["mode"] == "short"
        assert cert["term"] == "x0*x1*-x2*-x3*x4*-x5"
        # certificate re-verifies from the file alone
        import intalg.terms as terms

        values = product.prod_eval(
            terms.parse(cert["term"]), fam, cert["indices"]
        )
        assert product.is_zero(values)

    def test_sextuple_sym_found(self, capsys, tmp_path):
        path, _ = nested_family_file(tmp_path, n=9)
        code, out, _ = run(capsys, "search", "sextuple-sym", "--family", str(path))
        assert code == EXIT_OK
        assert json.loads(out)["mode"] == "symmetric"

    def test_quadruple_found(self, capsys, tmp_path):
        path, _ = nested_family_file(tmp_path, n=5)
        code, out, _ = run(capsys, "search", "quadruple", "--family", str(path))
        assert code == EXIT_OK
        assert json.loads(out)["term"] == "(x0^x1)*(x2^x3)"

    def test_quadruple_provenance_is_empty(self, capsys, tmp_path):
        # the Ramsey hit is a certificate of the raw family: nothing to log
        path, _ = nested_family_file(tmp_path, n=5)
        out_path = tmp_path / "quad.json"
        argv = ["search", "quadruple", "--family", str(path), "--out", str(out_path)]
        assert run(capsys, *argv)[0] == EXIT_OK
        cert = json.loads(out_path.read_text())
        assert set(cert) == {"indices", "term", "mode", "coordinates", "provenance"}
        assert cert["provenance"] == {}

    @pytest.mark.parametrize(
        "argv",
        [
            ["homog", "check"],
            ["homog", "extract"],
            ["search", "sextuple"],
            ["search", "sextuple-sym"],
            ["search", "quadruple"],
        ],
    )
    def test_witness_cap_exits_2(self, capsys, tmp_path, monkeypatch, argv):
        # 9 members: C(9, 2) = 36 nesting witnesses
        path, _ = nested_family_file(tmp_path, n=9)
        monkeypatch.setattr(homogeneity, "MAX_WITNESSES", 36)
        code, _, err = run(capsys, *argv, "--family", str(path))
        assert (code, err) == (EXIT_OK, "")
        monkeypatch.setattr(homogeneity, "MAX_WITNESSES", 35)
        code, out, err = run(capsys, *argv, "--family", str(path))
        assert (code, out) == (EXIT_INPUT_ERROR, "")
        assert json.loads(err) == {
            "error": "CapacityError",
            "message": "36 nesting witnesses (9 members, kappa 1) exceed cap 35",
        }

    def test_quadruple_failed_hit_exits_3(self, capsys, tmp_path, monkeypatch):
        from intalg import search, terms

        path, _ = nested_family_file(tmp_path, n=5)
        monkeypatch.setattr(search, "TERM_QUAD", terms.parse("x0+-x0"))
        code, out, err = run(capsys, "search", "quadruple", "--family", str(path))
        assert code == EXIT_INTERNAL_ERROR and out == ""
        assert "Traceback" not in err
        record = json.loads(err)
        assert record["error"] == "AssertionError"
        assert record["message"].startswith("internal consistency failure")

    def test_sextuple_over_budget_exits_2(self, capsys, tmp_path, monkeypatch):
        from intalg import search

        path, _ = nested_family_file(tmp_path, n=9)
        monkeypatch.setattr(search, "MAX_SEXTUPLE_CANDIDATES", 0)
        code, out, err = run(capsys, "search", "sextuple-sym", "--family", str(path))
        assert code == EXIT_INPUT_ERROR and out == ""
        assert "Traceback" not in err
        assert json.loads(err) == {
            "error": "CapacityError",
            "message": "symmetric-mode sextuple search exceeds 0 candidates",
        }

    def test_quadruple_over_budget_exits_2(self, capsys, tmp_path, monkeypatch):
        from intalg import search

        # no quadruple of these 5 members vanishes: the Ramsey scan finds
        # no hit, and the fallback tests all C(5, 4) = 5 quadruples
        col = [algebra.Element(6, (e, algebra.POS_INF)) for e in (5, 2, 3, 1, 4)]
        path = tmp_path / "family.json"
        write_family(path, Family.from_columns((6,), [col]))
        monkeypatch.setattr(search, "MAX_QUADRUPLE_CANDIDATES", 5)
        code, out, _ = run(capsys, "search", "quadruple", "--family", str(path))
        assert code == EXIT_NO_WITNESS
        monkeypatch.setattr(search, "MAX_QUADRUPLE_CANDIDATES", 4)
        code, out, err = run(capsys, "search", "quadruple", "--family", str(path))
        assert code == EXIT_INPUT_ERROR and out == ""
        assert "Traceback" not in err
        assert json.loads(err) == {
            "error": "CapacityError",
            "message": "quadruple search exceeds 4 candidates",
        }

    def test_exhausted(self, capsys, tmp_path):
        path, _ = nested_family_file(tmp_path, n=4)
        code, out, _ = run(capsys, "search", "sextuple", "--family", str(path))
        assert code == EXIT_NO_WITNESS
        report = json.loads(out)
        assert report["found"] is False
        assert "insufficient" in report["provenance"]


class TestRamsey:
    def test_found(self, capsys):
        code, out, _ = run(
            capsys, "ramsey", "quad", "--colors", "2", "--n", "16", "--seed", "0"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["found"] is True and report["seed"] == 0
        assert len(report["quadruple"]) == 4

    def test_not_found_small(self, capsys):
        code, out, _ = run(
            capsys, "ramsey", "quad", "--colors", "5", "--n", "3", "--seed", "0"
        )
        assert code == EXIT_NO_WITNESS
        assert json.loads(out)["found"] is False

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_eagerly_drawn_table(self, capsys, seed):
        rng = random.Random(seed)
        table = {(i, j): rng.randrange(3) for i in range(30) for j in range(i + 1, 30)}
        want = next(
            [a0, a1, a2, a3]
            for a0, a1, a2, a3 in itertools.combinations(range(30), 4)
            if table[a0, a2] == table[a0, a3] == table[a1, a2] == table[a1, a3]
        )
        code, out, _ = run(
            capsys, "ramsey", "quad", "--colors", "3", "--n", "30", "--seed", str(seed)
        )
        assert code == EXIT_OK and json.loads(out)["quadruple"] == want

    @pytest.mark.parametrize(
        "colors, n, flag",
        [("0", "16", "--colors"), ("-2", "16", "--colors"), ("2", "-1", "--n")],
    )
    def test_bad_arguments(self, capsys, colors, n, flag):
        code, out, err = run(
            capsys, "ramsey", "quad", "--colors", colors, "--n", n, "--seed", "0"
        )
        assert code == EXIT_INPUT_ERROR and out == ""
        record = json.loads(err)
        assert record["error"] == "InputError" and flag in record["message"]


    def test_n_over_cap(self, capsys):
        n = str(cli.MAX_RAMSEY_N + 1)
        code, out, err = run(
            capsys, "ramsey", "quad", "--colors", "1000000", "--n", n, "--seed", "0"
        )
        assert code == EXIT_INPUT_ERROR and out == ""
        record = json.loads(err)
        assert record["error"] == "CapacityError" and n in record["message"]


class TestGen:
    def test_homog_validates(self, capsys, tmp_path):
        out_path = tmp_path / "fam.json"
        code, _, _ = run(
            capsys,
            "gen",
            "homog",
            "--seed",
            "5",
            "--kappa",
            "2",
            "--orders",
            "40",
            "--count",
            "5",
            "--sigma-size",
            "4",
            "--out",
            str(out_path),
        )
        assert code == EXIT_OK
        data = json.loads(out_path.read_text())
        assert data["seed"] == 5
        fam = Family.from_dict(data)
        for zeta in range(2):
            assert homogeneity.check_homogeneous(fam.coordinate(zeta)).ok

    def test_homog_capacity(self, capsys):
        code, _, err = run(
            capsys,
            "gen",
            "homog",
            "--seed",
            "0",
            "--orders",
            "8",
            "--count",
            "4",
            "--sigma-size",
            "4",
        )
        assert code == EXIT_INPUT_ERROR
        assert json.loads(err)["error"] == "CapacityError"

    def test_homog_order_size_cap(self, capsys):
        # about p draws per coordinate: 10^9 would run for minutes
        start = time.perf_counter()
        code, out, err = run(
            capsys, "gen", "homog", "--seed", "0", "--orders", "1000000000",
            "--count", "2", "--sigma-size", "3",
        )
        assert time.perf_counter() - start < 1
        assert (code, out) == (EXIT_INPUT_ERROR, "")
        assert json.loads(err) == {
            "error": "CapacityError",
            "message": "about 1000000000 random draws exceed cap 1000000",
        }

    def test_homog_draw_cap_sums_the_coordinates(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_GEN_DRAWS", 100)
        argv = ["gen", "homog", "--seed", "0", "--count", "2", "--sigma-size", "3"]
        code, _, err = run(capsys, *argv, "--kappa", "2", "--orders", "50,50")
        assert (code, err) == (EXIT_OK, "")
        code, out, err = run(capsys, *argv, "--kappa", "2", "--orders", "50,51")
        assert (code, out) == (EXIT_INPUT_ERROR, "")
        assert json.loads(err) == {
            "error": "CapacityError",
            "message": "about 101 random draws exceed cap 100",
        }
        # no draws without a member or a finite endpoint: no cap
        for more in (["--count", "0"], ["--sigma-size", "2"]):
            code, _, err = run(capsys, *argv, "--orders", "101", *more)
            assert (code, err) == (EXIT_OK, "")

    def test_draw_cap_at_the_default(self, capsys):
        # the bound is checked before any draw: past it nothing runs long
        cap = cli.MAX_GEN_DRAWS
        start = time.perf_counter()
        argv = ["gen", "homog", "--seed", "0", "--count", "2", "--sigma-size", "3"]
        code, _, err = run(capsys, *argv, "--kappa", "3", "--orders", str(cap // 3 + 1))
        assert code == EXIT_INPUT_ERROR
        assert json.loads(err)["error"] == "CapacityError"
        with pytest.raises(CapacityError, match=f"^about {cap + 5} random draws"):
            cli.gen_random_family(0, 1, (8,), cap // 5 + 1, 2)
        assert time.perf_counter() - start < 1

    def test_homog_gap_pool(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "gen", "homog", "--seed", "3", "--orders", "40",
            "--count", "5", "--sigma-size", "5", "--gap-pool", "0,2",
        )
        assert (code, err) == (EXIT_OK, "")
        assert out == (
            '{"elements":[[["-inf",22,25,31]],[["-inf",10,12,19]],'
            '[["-inf",1,2,9]],[["-inf",6,7,8]],[["-inf",3,4,5]]],'
            '"kappa":1,"order_sizes":[40],"seed":3}\n'
        )
        path = tmp_path / "fam.json"
        path.write_text(out)
        code, out, _ = run(capsys, "homog", "check", "--family", str(path))
        [coordinate] = json.loads(out)["coordinates"]
        assert code == EXIT_OK and coordinate["homogeneous"]
        assert {ell for _, _, ell in coordinate["ell"]} == {0, 2}

    @pytest.mark.parametrize("order", ["0", "5"])
    def test_homog_empty_family_at_any_order(self, capsys, order):
        # no member needs room: the capacity test does not apply at N = 0
        code, out, err = run(
            capsys, "gen", "homog", "--seed", "0", "--orders", order,
            "--count", "0", "--sigma-size", "4",
        )
        assert (code, err) == (EXIT_OK, "")
        expected = {"elements": [], "kappa": 1, "order_sizes": [int(order)], "seed": 0}
        assert json.loads(out) == expected

    def test_random_validates_and_round_trips(self, capsys, tmp_path):
        out_path = tmp_path / "fam.json"
        code, _, _ = run(
            capsys,
            "gen",
            "random",
            "--seed",
            "1",
            "--kappa",
            "2",
            "--orders",
            "8,8",
            "--count",
            "6",
            "--max-intervals",
            "2",
            "--out",
            str(out_path),
        )
        assert code == EXIT_OK
        data = json.loads(out_path.read_text())
        fam = Family.from_dict(data)
        assert len(fam) == 6
        assert Family.from_dict(fam.to_dict()) == fam

    def test_random_empty(self, capsys, tmp_path):
        out_path = tmp_path / "fam.json"
        code, _, _ = run(
            capsys,
            "gen",
            "random",
            "--seed",
            "1",
            "--orders",
            "8",
            "--count",
            "0",
            "--max-intervals",
            "2",
            "--out",
            str(out_path),
        )
        assert code == EXIT_OK
        assert json.loads(out_path.read_text())["elements"] == []

    def test_random_capacity(self):
        with pytest.raises(CapacityError):
            cli.gen_random_family(0, 1, (5,), 3, 4)
        # a member draws 2k distinct indices of the p + 1 in 0..p
        for k in (1, 2, 5):
            assert len(cli.gen_random_family(0, 2, (2 * k - 1, 40), 3, k)) == 3
            with pytest.raises(CapacityError, match=f"order size >= {2 * k - 1}$"):
                cli.gen_random_family(0, 2, (2 * k - 2, 40), 3, k)

    def test_random_at_order_zero(self, capsys):
        code, out, err = run(
            capsys, "gen", "random", "--seed", "0", "--orders", "0",
            "--count", "2", "--max-intervals", "0",
        )
        assert (code, err) == (EXIT_OK, "")
        assert out == '{"elements":[[[]],[[]]],"kappa":1,"order_sizes":[0],"seed":0}\n'

    def test_random_matches_pool_reference(self):
        # small pools take sample's list branch, large ones its set branch
        order_grid = [(2,), (5,), (8, 3), (20,), (40,), (1024, 64)]
        grid = itertools.product(range(8), order_grid, [0, 1, 7], [0, 1, 3])
        checked = 0
        for seed, orders, n, max_intervals in grid:
            if max_intervals * 2 > min(orders) + 1:
                continue
            args = (seed, len(orders), orders, n, max_intervals)
            assert cli.gen_random_family(*args) == pool_random_family(*args)
            checked += 1
        assert checked > 250

    def test_random_draw_cap(self, monkeypatch):
        # per member and coordinate, one count and at most 2 * 3 endpoints
        monkeypatch.setattr(cli, "MAX_GEN_DRAWS", 70)
        assert len(cli.gen_random_family(0, 2, (8, 8), 5, 3)) == 5
        with pytest.raises(CapacityError, match="^about 84 random draws exceed cap 70$"):
            cli.gen_random_family(0, 2, (8, 8), 6, 3)
        assert len(cli.gen_random_family(0, 2, (8, 8), 10, 1)) == 10

    def test_random_at_a_huge_order_size(self):
        # a pool of 10**9 + 1 endpoints would take gigabytes and seconds
        start = time.perf_counter()
        fam = cli.gen_random_family(3, 2, (10**9, 10**9), 4, 3)
        assert time.perf_counter() - start < 1
        assert len(fam) == 4 and fam.order_sizes == (10**9, 10**9)


class TestRobustness:
    @pytest.mark.parametrize(
        "argv, error",
        [
            (["eval", "--term", "(" * 300 + "x0" + ")" * 300], "ParseError"),
            (["eval", "--term=" + "-" * 1000 + "x0"], "ParseError"),
            (["gen", "homog", "--seed", "0", "--orders", "32", "--count", "4",
              "--sigma-size", "4", "--gap-pool", ""], "InputError"),
            (["gen", "random", "--seed", "0", "--orders", "8", "--count", "-2",
              "--max-intervals", "2"], "InputError"),
            (["gen", "homog", "--seed", "0", "--kappa", "0", "--orders", "",
              "--count", "-2", "--sigma-size", "4"], "InputError"),
            (["eval", "--term=" + "*".join(["x0"] * 1200)], "ParseError"),
            (["eval", "--term"], "InputError"),
            (["canon", "--order", "abc"], "InputError"),
            (["homog", "check"], "InputError"),
            (["search", "bogus", "--family", "family.json"], "InputError"),
            (["canon", "--order", "5", "--bogus"], "InputError"),
            ([], "InputError"),
            (["gen", "random", "--seed", "0", "--orders", "8", "--count", "3",
              "--max-intervals", "-1"], "InputError"),
            (["lemma16", "verify", "--max-order", "-1", "--max-k", "2"], "InputError"),
            (["lemma16", "verify", "--max-order", "3", "--max-k", "-2"], "InputError"),
            (["gen", "random", "--seed", "0", "--kappa", "2", "--orders=-5,3",
              "--count", "2", "--max-intervals", "1"], "InputError"),
            (["gen", "homog", "--seed", "0", "--kappa", "2", "--orders=-5,3",
              "--count", "2", "--sigma-size", "3"], "InputError"),
            # the gap pool is checked at |sigma| = 2 too, with no endpoint to nest
            (["gen", "homog", "--seed", "0", "--orders", "32", "--count", "4",
              "--sigma-size", "2", "--gap-pool", "5"], "InputError"),
            (["gen", "homog", "--seed", "0", "--orders", "32", "--count", "4",
              "--sigma-size", "2", "--gap-pool", ""], "InputError"),
            (["gen", "homog", "--seed", "0", "--orders", "32", "--count", "4",
              "--sigma-size", "3", "--gap-pool", "5"], "InputError"),
        ],
    )
    def test_bad_input_exits_2_with_record(self, capsys, tmp_path, argv, error):
        if argv[:1] == ["eval"]:
            path, _ = nested_family_file(tmp_path)
            argv = ["eval", "--family", str(path), "--assign", "0", *argv[1:]]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INPUT_ERROR and out == ""
        assert json.loads(err)["error"] == error
        if "--orders=-5,3" in argv:
            assert json.loads(err)["message"] == "negative order size -5"

    @pytest.mark.parametrize("term", ["-x0", "-(x0+x1)^x2"])
    def test_term_with_leading_minus(self, capsys, tmp_path, term):
        path, _ = nested_family_file(tmp_path)
        argv = ["--family", str(path), "--assign", "0,1,2"]
        spaced = run(capsys, "eval", "--term", term, *argv)
        joined = run(capsys, "eval", "--term=" + term, *argv)
        assert spaced == joined and spaced[0] == EXIT_OK

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["independent", "--indices", "-1,0"], "member index -1 out of range"),
            (["canon", "--order", "5", "--points", "-1,2"], "[-1, 2]"),
            (["gen", "homog", "--seed", "0", "--kappa", "2", "--orders", "-5,3",
              "--count", "2", "--sigma-size", "2"], "negative order size -5"),
        ],
    )
    def test_value_with_leading_minus_reaches_command(
        self, capsys, tmp_path, argv, message
    ):
        if argv[0] == "independent":
            path, _ = nested_family_file(tmp_path)
            argv = [*argv, "--family", str(path)]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INPUT_ERROR and out == ""
        assert message in json.loads(err)["message"]

    @pytest.mark.parametrize("flag", ["--out", "--parts-out"])
    @pytest.mark.parametrize("target", ["nodir/x.json", "adir"])
    def test_unwritable_path_is_named_and_leaves_no_temp(
        self, capsys, tmp_path, monkeypatch, flag, target
    ):
        path, _ = nested_family_file(tmp_path)
        (tmp_path / "adir").mkdir()
        monkeypatch.chdir(tmp_path)
        argv = ["homog", "extract", "--family", str(path), flag, target]
        first, second = run(capsys, *argv), run(capsys, *argv)
        assert first == second and first[0] == EXIT_INPUT_ERROR
        assert json.loads(first[2])["message"].startswith(f"cannot write {target}:")
        leftovers = [p.name for p in tmp_path.rglob(".intalg-*")]
        assert leftovers == []

    @pytest.mark.parametrize(
        "content",
        [b"[" * 100_000 + b"]" * 100_000, b"\xff\xfe"],
        ids=["deeply-nested", "not-utf8"],
    )
    def test_unreadable_family_file_exits_2(self, tmp_path, content):
        path = tmp_path / "fam.json"
        path.write_bytes(content)
        argv = ["homog", "check", "--family", str(path)]
        proc = subprocess.run(
            [sys.executable, "-m", "intalg.cli", *argv],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_INPUT_ERROR and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        record = json.loads(proc.stderr)
        assert record["error"] == "InputError"
        assert record["message"].startswith(f"cannot read family file {path}: ")

    def test_crash_exits_3_with_record(self, capsys, monkeypatch):
        def crash(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli.algebra, "from_point_set", crash)
        code, out, err = run(capsys, "canon", "--order", "5")
        assert code == EXIT_INTERNAL_ERROR and out == ""
        assert json.loads(err) == {"error": "RuntimeError", "message": "boom"}

    def test_every_long_option_but_help_takes_one_value(self):
        # main joins a value that starts with '-' to the option before it,
        # which is only right while no option is a flag
        parsers, options = [cli.build_parser()], []
        while parsers:
            for action in parsers.pop()._actions:
                if isinstance(action, argparse._SubParsersAction):
                    parsers.extend(action.choices.values())
                elif action.option_strings != ["-h", "--help"]:
                    options.append(action)
        assert options
        for action in options:
            assert action.nargs is None, action.option_strings
            assert all(o.startswith("--") for o in action.option_strings)

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--help"])
        assert exc.value.code == 0 and "--family" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["search", "bogus", "--family", "family.json"], EXIT_INPUT_ERROR),
            (["canon", "--order", "5", "--out", "missing/c.json"], EXIT_INPUT_ERROR),
        ],
    )
    def test_process_prints_record_not_traceback(self, tmp_path, argv, code):
        proc = subprocess.run(
            [sys.executable, "-m", "intalg.cli", *argv],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == code and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert set(json.loads(proc.stderr)) == {"error", "message"}

    @pytest.mark.parametrize(
        "term",
        ["(" * MAX_TERM_DEPTH + "x0" + ")" * MAX_TERM_DEPTH, "-" * MAX_TERM_DEPTH + "x0"],
    )
    def test_term_at_depth_bound_evaluates(self, capsys, tmp_path, term):
        path, fam = nested_family_file(tmp_path)
        code, out, _ = run(
            capsys, "eval", "--term=" + term, "--family", str(path), "--assign", "0"
        )
        assert code == EXIT_OK
        value = fam.members[0][0]
        if term.count("-") % 2:
            value = ~value
        assert json.loads(out)["coordinates"] == [value.to_json()]


# small valid values; with them the odd ones: -1, '-'-prefixed values,
# empty lists and non-numbers
_SMALL = st.sampled_from(["0", "1", "2", "3", "5"])
_ODD = st.sampled_from(["-1", "-2", "-", "", "x", "1.5"])
_SMALL_LISTS = st.lists(st.integers(0, 5), max_size=4).map(
    lambda xs: ",".join(map(str, xs))
)
_ODD_LISTS = st.sampled_from(["", " ", ",", "-1", "-", "-1,2", "a,b"])
_TERMS = st.sampled_from(
    ["x0", "x0*x1", "-x0", "(x0+x1)^x2", "x0*-x1", "x3", "0", "1", "", "-", "(", "x0**"]
)


def _family_documents():
    """name -> file content: valid families and the malformed kinds."""
    seq = homogeneity.gen_homogeneous(7, 64, 9, 4, gap_choices=[1] * 9)
    valid = [
        Family.from_columns((64,), [seq]),
        cli.gen_random_family(3, 2, (8, 8), 5, 2),
        Family(0, (), ((),) * 3),  # kappa 0
        Family(1, (5,), ()),  # no members
        Family(2, (0, 0), ((algebra.empty(0),) * 2,) * 3),  # order size 0
    ]
    docs = {f"valid-{i}": json.dumps(fam.to_dict()) for i, fam in enumerate(valid)}
    docs.update(
        {
            "extra-keys": json.dumps({**valid[1].to_dict(), "extra": [1]}),
            "kappa-string": '{"kappa": "1", "order_sizes": [4], "elements": []}',
            "endpoint-string": '{"kappa": 1, "order_sizes": [4], "elements": [[["x"]]]}',
            "member-not-list": '{"kappa": 1, "order_sizes": [4], "elements": [3]}',
            "order-float": '{"kappa": 1, "order_sizes": [4.0], "elements": []}',
            "not-object": "[1, 2]",
            "null": "null",
            "deep-nesting": "[" * 100_000 + "]" * 100_000,
            "empty-file": "",
        }
    )
    return docs


class TestContract:
    """Every leaf of the CLI, driven in-process on small and malformed
    arguments: exit 0, 1 or 2 and never 3; exit 2 writes one JSON error
    record and no traceback; exits 0 and 1 write JSON; the same argv gives
    the same bytes twice."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("contract")
        paths = {}
        for name, text in _family_documents().items():
            paths[name] = root / f"{name}.json"
            paths[name].write_text(text)
        paths["bad-utf8"] = root / "bad-utf8.json"
        paths["bad-utf8"].write_bytes(b"\xff\xfe")
        paths["missing"] = root / "missing.json"
        paths["directory"] = root
        return {name: str(path) for name, path in paths.items()}, root

    @staticmethod
    def argv_strategy(families, odd):
        """argv for one leaf; its values are small and valid, or with odd
        true may be odd ones too."""
        fam = st.sampled_from(sorted(families.values()))
        ints = _SMALL | _ODD if odd else _SMALL
        lists = _SMALL_LISTS | _ODD_LISTS if odd else _SMALL_LISTS

        def leaf(*parts):
            return st.tuples(*(st.just(p) if isinstance(p, str) else p for p in parts))

        return st.one_of(
            leaf("canon", "--order", ints, "--points", lists),
            leaf("eval", "--family", fam, "--term", _TERMS, "--assign", lists),
            leaf("independent", "--family", fam, "--indices", lists),
            leaf("homog", "check", "--family", fam),
            leaf("homog", "extract", "--family", fam),
            # at the caps and past them, where the check comes before the work
            leaf("lemma16", "verify", "--max-order",
                 st.sampled_from(["7", str(MAX_SWEEP_ORDER), str(MAX_SWEEP_ORDER + 1)])
                 | ints,
                 "--max-k", st.sampled_from(["4", "6", "7"]) | ints),
            leaf("search", st.sampled_from(["sextuple", "sextuple-sym", "quadruple"]),
                 "--family", fam),
            leaf("ramsey", "quad", "--colors", ints,
                 "--n", st.sampled_from(["12", str(cli.MAX_RAMSEY_N + 1)]) | ints,
                 "--seed", ints),
            leaf("gen", "homog", "--seed", ints, "--kappa", ints, "--orders",
                 st.sampled_from(["40", "8,40"]) | lists, "--count", ints,
                 "--sigma-size", ints),
            leaf("gen", "homog", "--seed", ints, "--orders", "40", "--count", ints,
                 "--sigma-size", ints, "--gap-pool", lists),
            leaf("gen", "random", "--seed", ints, "--kappa", ints, "--orders",
                 st.sampled_from(["8", "8,9"]) | lists, "--count", ints,
                 "--max-intervals", ints),
        )

    @staticmethod
    def call(argv, written):
        if os.path.exists(written):
            os.unlink(written)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        text = open(written).read() if os.path.exists(written) else None
        return code, out.getvalue(), err.getvalue(), text

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_leaf_keeps_the_contract(self, files, data):
        families, root = files
        odd = data.draw(st.booleans(), label="odd values")
        argv = list(data.draw(self.argv_strategy(families, odd), label="argv"))
        written = str(root / "out.json")
        if data.draw(st.booleans(), label="--out"):
            argv += ["--out", written]
        if odd and data.draw(st.booleans(), label="drop the last token"):
            argv.pop()
        first, second = self.call(argv, written), self.call(argv, written)
        assert first == second, argv
        code, out, err, text = first
        assert code in (EXIT_OK, EXIT_NO_WITNESS, EXIT_INPUT_ERROR), (argv, err)
        if code == EXIT_INPUT_ERROR:
            assert out == "" and "Traceback" not in err, argv
            assert err.endswith("\n") and err.count("\n") == 1, argv
            assert set(json.loads(err)) == {"error", "message"}
        else:
            assert err == "", argv
            json.loads(out if text is None else text)


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "random", "--seed", "9", "--kappa", "2", "--orders", "12",
             "--count", "8", "--max-intervals", "3"],
            ["gen", "homog", "--seed", "9", "--kappa", "3", "--orders", "48",
             "--count", "6", "--sigma-size", "4"],
            ["ramsey", "quad", "--colors", "3", "--n", "20", "--seed", "123"],
        ],
    )
    def test_byte_identical_outputs(self, argv, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            assert main(argv + ["--out", str(p)]) in (EXIT_OK, EXIT_NO_WITNESS)
        assert paths[0].read_bytes() == paths[1].read_bytes()


def readme_cli_commands():
    """The commands of the README's CLI block, as argv lists without `intalg`."""
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme) as handle:
        text = handle.read()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", text, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("intalg ")]


def test_readme_cli_commands_run(capsys, tmp_path, monkeypatch):
    # each command also runs in a fresh interpreter, which imports only what
    # its handler imports: a missing import or an import cycle shows there
    commands = readme_cli_commands()
    assert len(commands) == 9
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert code in (EXIT_OK, EXIT_NO_WITNESS), (argv, err)
        assert "Traceback" not in err
        proc = subprocess.run(
            [sys.executable, "-m", "intalg.cli", *argv],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout) == (code, out), (argv, proc.stderr)


def fresh_modules(module):
    """The names in sys.modules after a fresh interpreter imports `module`."""
    probe = f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    )
    return set(json.loads(proc.stdout))


def test_import_does_not_load_numpy():
    # each subcommand imports what only it runs; the package imports nothing
    loaded = fresh_modules("intalg.cli")
    unused = {
        "numpy",
        "logging",
        "dataclasses",
        "inspect",
        "intalg.search",
        "intalg.homogeneity",
        "intalg.triples",
    }
    assert not loaded & unused
    loaded = fresh_modules("intalg")
    assert {m for m in loaded if m.startswith("intalg.")} == {"intalg.errors"}


def test_no_module_loads_dataclasses():
    # the value classes are plain __slots__ classes (errors.Value), and no
    # module logs; these imports load every intalg module
    loaded = fresh_modules(
        "intalg.cli, intalg.search, intalg.homogeneity, intalg.triples"
    )
    assert {m for m in loaded if m.startswith("intalg.")} >= {
        "intalg.algebra", "intalg.cli", "intalg.errors", "intalg.homogeneity",
        "intalg.product", "intalg.search", "intalg.terms", "intalg.triples",
    }
    assert not loaded & {"dataclasses", "inspect", "logging"}


class TestAtomicWrite:
    def test_no_temp_residue(self, tmp_path):
        target = tmp_path / "out.json"
        cli.write_atomic(str(target), '{"x":1}\n')
        assert target.read_text() == '{"x":1}\n'
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".intalg-")]
        assert leftovers == []

    def test_overwrite(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old")
        cli.write_atomic(str(target), "new\n")
        assert target.read_text() == "new\n"

    def test_other_os_errors_pass_on(self, tmp_path, monkeypatch):
        # a full disk is no fault of the path: it stays an OSError (exit 3)
        def full(*args):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli.os, "replace", full)
        with pytest.raises(OSError) as exc:
            cli.write_atomic(str(tmp_path / "out.json"), "x\n")
        assert not isinstance(exc.value, InputError)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_mode_follows_umask(self, tmp_path, umask):
        target = tmp_path / "out.json"
        old = os.umask(umask)
        try:
            cli.write_atomic(str(target), "x\n")
        finally:
            os.umask(old)
        assert target.stat().st_mode & 0o777 == 0o666 & ~umask
