"""Seeded inputs and tasks for the four benchmark workloads.

A task is one search, one query or one CLI call.  Each workload builds
its task list from the seed alone; the program under test only ever sees
the generated inputs.  Every task carries a check that re-verifies its
answer independently of the code path that produced it (see checks.py).
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

from intalg import algebra, cli, homogeneity, product, search, terms, triples
from intalg.algebra import NEG_INF, POS_INF, Element

import checks

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

TERM_TEXT = {
    "short": "x0*x1*-x2*-x3*x4*-x5",
    "symmetric": "(x0^x1)*x2*(x3^x4)*-x5",
    "quadruple": "(x0^x1)*(x2^x3)",
}


def search_terms():
    """Freshly parsed terms: every build gets its own objects, so nothing
    the program caches on them carries over from one pass to the next."""
    return {mode: terms.parse(text) for mode, text in TERM_TEXT.items()}


def _whole(answer):
    return answer


def _keys(*names):
    return lambda answer: {k: answer[k] for k in names}


@dataclass
class Task:
    id: str
    run: Callable  # () -> raw result
    check: Callable  # raw -> (answer, error or None)
    # answer -> the part of it that every seed must reproduce; it is
    # compared with the answer recorded for this task id in expected.json
    invariant: Callable = _whole


def _columns_to_family(columns, order_sizes) -> product.Family:
    members = tuple(zip(*columns)) if columns else ()
    return product.Family(len(columns), tuple(order_sizes), members)


# --------------------------------------------------------------------------
# search-homog

# (kappa, members, |sigma|, catalogue seed).  The shapes span the ranges
# kappa 2-3, 40-70 members and |sigma| 4-6 at p = 10 * members; (3, 40, 6, 6)
# is a family on which the symmetric search exhausts without a witness.
# Every seed runs an order-preserving relabelling of each catalogue family,
# so seeds get distinct inputs of one fixed difficulty and runs with
# different seeds stay comparable.  partition-extract's block families and
# kernel-queries' random families are relabelled catalogues too.
SEARCH_CATALOGUE = (
    (2, 40, 4, 0),
    (2, 50, 5, 1),
    (2, 70, 4, 3),
    (2, 55, 6, 4),
    (2, 65, 5, 5),
    (2, 45, 5, 10),
    (2, 68, 6, 11),
    (2, 52, 4, 12),
    (2, 62, 5, 13),
    (3, 40, 4, 6),
    (3, 60, 4, 8),
    (3, 40, 6, 6),
)


def relabel(fam: product.Family, rng: random.Random, order_size=None) -> product.Family:
    """Move every coordinate's finite endpoints to fresh positions in the
    same order, within the family's order size or a larger one.  The order
    type, hence every homogeneity, nesting-gap, independence and vanishing
    fact and the cost of deciding it, is unchanged."""
    sizes = fam.order_sizes if order_size is None else (order_size,) * fam.kappa
    columns = []
    for zeta, p in enumerate(sizes):
        col = fam.coordinate(zeta)
        used = sorted({e for a in col for e in a.endpoints} - {NEG_INF, POS_INF})
        moved = dict(zip(used, sorted(rng.sample(range(1, p), len(used)))))
        columns.append(
            [Element(p, tuple(moved.get(e, e) for e in a.endpoints)) for a in col]
        )
    return _columns_to_family(columns, sizes)


def homogeneous_family(gen_seed: int, kappa: int, n: int, k: int, p: int):
    columns = [
        homogeneity.gen_homogeneous(gen_seed * 1000003 + zeta, p, n, k)
        for zeta in range(kappa)
    ]
    return _columns_to_family(columns, (p,) * kappa)


def _pipeline_task(task_id, fam, mode, term, max_cuts=None):
    return Task(
        task_id,
        lambda: search.pipeline(fam, mode),
        lambda raw: checks.pipeline_answer(fam, raw, term, mode, max_cuts),
        _keys("certificate", "selected", "strategy", "cuts"),
    )


def _quadruple_task(task_id, fam, term):
    return Task(
        task_id,
        lambda: search.find_quadruple(fam),
        lambda raw: checks.quadruple_answer(fam, raw, term),
    )


def search_homog(seed, workdir, inproc):
    rng = random.Random(f"search-homog:{seed}")
    T = search_terms()
    tasks, sizes = [], []
    for kappa, n, k, cat_seed in SEARCH_CATALOGUE:
        fam = relabel(homogeneous_family(cat_seed, kappa, n, k, 10 * n), rng)
        name = f"k{kappa}-n{n}-s{k}-c{cat_seed}"
        tasks.append(_pipeline_task(f"{name}/short", fam, "short", T["short"]))
        tasks.append(_pipeline_task(f"{name}/symmetric", fam, "symmetric", T["symmetric"]))
        tasks.append(_quadruple_task(f"{name}/quadruple", fam, T["quadruple"]))
        sizes.append({"members": n, "kappa": kappa, "p": 10 * n, "sigma": k})
    return tasks, {"families": sizes, "tasks": len(tasks)}


# --------------------------------------------------------------------------
# partition-extract

# Staircase families s_1 < ... < s_N < t_1 < ... < t_N of single intervals
# [s_i, t_i): every pair crosses, so no cut set makes them semi-homogeneous
# and find_partitioning_set walks all 2^(2N) subsets of its candidates.
STAIRCASE_SIZES = (4, 4, 4, 4, 5, 5, 5)
STAIRCASE_ORDER = 40
# (members, blocks): concatenations of `blocks` homogeneous blocks, which a
# cut at each block boundary makes semi-homogeneous (blocks - 1 cuts).  All
# shapes keep the cut candidates at or below MAX_CUT_CANDIDATES.
BLOCK_SHAPES = ((6, 2), (7, 2), (8, 2), (6, 3), (5, 3), (4, 4)) * 5
BLOCK_MAX_ORDER = 40


def staircase_family(rng, n, p):
    pts = sorted(rng.sample(range(1, p), 2 * n))
    members = tuple((Element(p, (pts[i], pts[n + i])),) for i in range(n))
    return product.Family(1, (p,), members)


def block_family(rng, n, blocks, max_order):
    """Members are the unions of `blocks` homogeneous pieces laid side by
    side; each piece contains its block's first point and not its last,
    so every block boundary is an endpoint of every member."""
    share = max_order // blocks
    sizes = [rng.randint(n + 2, share) for _ in range(blocks)]
    p = sum(sizes)
    points = [set() for _ in range(n)]
    offset = 0
    for q in sizes:
        piece = homogeneity.gen_homogeneous(rng.randrange(2**32), q, n, 3)
        for i, a in enumerate(piece):
            points[i].update(offset + x for x in algebra.to_point_set(a))
        offset += q
    members = tuple((algebra.from_point_set(p, pts),) for pts in points)
    return product.Family(1, (p,), members)


def partition_extract(seed, workdir, inproc):
    rng = random.Random(f"partition-extract:{seed}")
    T = search_terms()
    tasks, sizes = [], []
    for j, n in enumerate(STAIRCASE_SIZES):
        fam = staircase_family(rng, n, STAIRCASE_ORDER)
        tasks.append(_pipeline_task(f"staircase-{j}-n{n}", fam, "short", T["short"]))
        sizes.append({"members": n, "kappa": 1, "p": STAIRCASE_ORDER})
    for j, (n, blocks) in enumerate(BLOCK_SHAPES):
        base = block_family(random.Random(f"blocks:{j}"), n, blocks, BLOCK_MAX_ORDER)
        fam = relabel(base, rng)
        mode = "short" if j % 2 == 0 else "symmetric"
        tasks.append(
            _pipeline_task(f"blocks-{j}-n{n}-b{blocks}/{mode}", fam, mode, T[mode], blocks - 1)
        )
        sizes.append({"members": n, "kappa": 1, "p": fam.order_sizes[0]})
    return tasks, {"families": sizes, "tasks": len(tasks)}


# --------------------------------------------------------------------------
# kernel-queries

BIT_FAMILY_SIZES = (7, 7, 8, 8, 9)
# (order size, catalogue order size, max intervals per element): two
# gen_random_family families of each, drawn at the catalogue order size and
# spread over the full order size per seed.
RANDOM_SHAPES = ((64, 40, 4), (64, 40, 8), (64, 40, 12), (64, 40, 19),
                 (1024, 700, 40), (1024, 700, 120), (1024, 700, 200),
                 (1024, 700, 320)) * 2
RANDOM_MEMBERS = 10


def bit_family(rng, n):
    """x_i = the points whose bit i is set, complemented where the seed
    flips it: independent for every flip, and every flip costs the same
    2^n patterns of n meets."""
    p = 1 << n
    flips = [rng.randrange(2) for _ in range(n)]
    members = tuple(
        (algebra.from_point_set(p, [x for x in range(p) if (x >> i & 1) != flips[i]]),)
        for i in range(n)
    )
    return product.Family(1, (p,), members)


def _independence_task(task_id, fam, idx):
    return Task(
        task_id,
        lambda: product.is_independent(fam, idx),
        lambda raw: checks.independence_answer(fam, idx, raw),
    )


def _prod_eval_task(task_id, fam, term, idx):
    return Task(
        task_id,
        lambda: product.prod_eval(term, fam, idx),
        lambda raw: checks.prod_eval_answer(fam, term, idx, raw),
        _keys("zero"),
    )


def kernel_queries(seed, workdir, inproc):
    rng = random.Random(f"kernel-queries:{seed}")
    T = search_terms()
    tasks, sizes = [], []
    for j, n in enumerate(BIT_FAMILY_SIZES):
        fam = bit_family(rng, n)
        tasks.append(_independence_task(f"bits-{j}-n{n}", fam, tuple(range(n))))
        sizes.append({"members": n, "kappa": 1, "p": 1 << n})
    for j, (p, base_p, max_intervals) in enumerate(RANDOM_SHAPES):
        catalogue = random.Random(f"random:{j}")
        base = cli.gen_random_family(
            catalogue.randrange(2**32), 2, (base_p, base_p), RANDOM_MEMBERS, max_intervals
        )
        fam = relabel(base, rng, p)
        sizes.append({"members": RANDOM_MEMBERS, "kappa": 2, "p": p})
        for mode, term in T.items():
            idx = tuple(catalogue.sample(range(RANDOM_MEMBERS), terms.num_vars(term)))
            name = f"random-{j}-p{p}-{mode}"
            tasks.append(_independence_task(f"{name}/independent", fam, idx))
            tasks.append(_prod_eval_task(f"{name}/prod_eval", fam, term, idx))
    tasks.append(
        Task("verify_triples-7-5", lambda: triples.verify_triples(7, 5), checks.triples_answer)
    )
    sizes.append({"max_order": 7, "max_k": 5})
    return tasks, {"families": sizes, "tasks": len(tasks)}


# --------------------------------------------------------------------------
# cli-calls

CLI_VARIANTS = 2
CLI_TIMEOUT_S = 60


@dataclass
class CliResult:
    code: int
    out: bytes  # stdout, or the --out file when the call writes one
    err: str


def run_child(argv, timeout, **popen_args):
    """(exit code, stdout, stderr) of a child process, killed after
    `timeout` seconds.  subprocess.run(timeout=...) waits for the exit in
    sleeps of up to 50 ms, which would round every measured call up to
    that step; here a timer kills the child and the wait blocks."""
    with subprocess.Popen(argv, **popen_args) as proc:
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            out, err = proc.communicate()
        finally:
            timer.cancel()
    return proc.returncode, out, err


def _call_subprocess(argv, workdir, out_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    code, out, err = run_child(
        [sys.executable, "-m", "intalg.cli", *argv], CLI_TIMEOUT_S,
        cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    if out_path is not None and code == 0:
        with open(out_path, "rb") as handle:
            out = handle.read()
    return CliResult(code, out, err.decode(errors="replace"))


def _call_inproc(argv, workdir, out_path):
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    out = stdout.getvalue().encode()
    if out_path is not None and code == 0:
        with open(out_path, "rb") as handle:
            out = handle.read()
    return CliResult(code, out, stderr.getvalue())


def _write_json(path, obj):
    with open(path, "w") as handle:
        handle.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _without_hash(answer):
    return {k: v for k, v in answer.items() if k != "sha256"}


def cli_calls(seed, workdir, inproc):
    """The README's commands on seeded inputs, each as its own process
    (in-process through cli.main when traced).  The searched family of
    variant v is catalogue family v, relabelled per seed, so its search
    answers are the same for every seed."""
    rng = random.Random(f"cli-calls:{seed}")
    T = search_terms()
    os.makedirs(workdir, exist_ok=True)
    call = _call_inproc if inproc else _call_subprocess
    tasks, sizes = [], []

    def add(task_id, argv, check, out_name=None):
        argv = [str(a) for a in argv]
        out_path = os.path.join(workdir, out_name) if out_name else None
        if out_path:
            argv += ["--out", out_path]
        tasks.append(
            Task(task_id, lambda: call(argv, workdir, out_path), check, _without_hash)
        )

    for v in range(CLI_VARIANTS):
        n, p, k = 30, 120, 5
        homog = relabel(homogeneous_family(v, 2, n, k, p), rng)
        homog_path = os.path.join(workdir, f"homog-{v}.json")
        _write_json(homog_path, homog.to_dict())
        rand = cli.gen_random_family(rng.randrange(10**6), 2, (32, 32), 10, 3)
        rand_path = os.path.join(workdir, f"random-{v}.json")
        _write_json(rand_path, rand.to_dict())
        sizes.append({"members": n, "kappa": 2, "p": p, "sigma": k})
        sizes.append({"members": 10, "kappa": 2, "p": 32})

        gs = rng.randrange(10**6)
        add(f"v{v}/gen-homog",
            ["gen", "homog", "--seed", gs, "--kappa", 2, "--orders", 80,
             "--count", 12, "--sigma-size", 4],
            checks.cli_gen_homog(12, 2), out_name=f"gen-homog-{v}.json")
        add(f"v{v}/homog-check", ["homog", "check", "--family", homog_path],
            checks.cli_homog_check)
        add(f"v{v}/homog-extract", ["homog", "extract", "--family", homog_path],
            checks.cli_homog_extract(homog))
        add(f"v{v}/search-sextuple", ["search", "sextuple", "--family", homog_path],
            checks.cli_search(homog, T["short"]))
        add(f"v{v}/search-sextuple-sym",
            ["search", "sextuple-sym", "--family", homog_path],
            checks.cli_search(homog, T["symmetric"]))
        add(f"v{v}/search-quadruple", ["search", "quadruple", "--family", homog_path],
            checks.cli_search(homog, T["quadruple"]))
        assign = rng.sample(range(10), 6)
        add(f"v{v}/eval",
            ["eval", "--term", terms.render(T["short"]), "--family", rand_path,
             "--assign", ",".join(map(str, assign))],
            checks.cli_eval(rand, T["short"], assign))
        indices = rng.sample(range(10), 4)
        add(f"v{v}/independent",
            ["independent", "--family", rand_path,
             "--indices", ",".join(map(str, indices))],
            checks.cli_independent(rand, indices))
        add(f"v{v}/lemma16-verify",
            ["lemma16", "verify", "--max-order", 5 + v, "--max-k", 4],
            checks.cli_lemma16)
        colors, ramsey_n, ramsey_seed = 3, 40, rng.randrange(10**6)
        add(f"v{v}/ramsey-quad",
            ["ramsey", "quad", "--colors", colors, "--n", ramsey_n, "--seed", ramsey_seed],
            checks.cli_ramsey(ramsey_n, colors, ramsey_seed))
        order = 16
        points = sorted(rng.sample(range(order), rng.randint(1, order - 1)))
        add(f"v{v}/canon",
            ["canon", "--order", order, "--points", ",".join(map(str, points))],
            checks.cli_canon(order, points))
        add(f"v{v}/gen-random",
            ["gen", "random", "--seed", rng.randrange(10**6), "--kappa", 2,
             "--orders", 24, "--count", 8, "--max-intervals", 3],
            checks.cli_gen_random(2, 8))
        add(f"v{v}/malformed-term",
            ["eval", "--term", "x0*(x1^", "--family", rand_path, "--assign", "0,1"],
            checks.cli_malformed)
    return tasks, {"families": sizes, "tasks": len(tasks)}


WORKLOADS = {
    "search-homog": search_homog,
    "partition-extract": partition_extract,
    "kernel-queries": kernel_queries,
    "cli-calls": cli_calls,
}
