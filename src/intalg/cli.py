"""Command-line surface: canonicalization, evaluation, checks, searches
and seeded generators, all emitting reproducible JSON artifacts.

Exit codes: 0 success or witness found, 1 search exhausted without a
witness, 2 malformed input or capacity overflow.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile

from . import algebra, homogeneity, product, search, terms, triples
from .errors import CapacityError, InputError

EXIT_OK = 0
EXIT_NO_WITNESS = 1
EXIT_INPUT_ERROR = 2


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".intalg-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args, obj) -> None:
    text = _dump(obj)
    out = getattr(args, "out", None)
    if out:
        write_atomic(out, text)
    else:
        sys.stdout.write(text)


def _parse_int_list(text: str) -> list:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise InputError(f"bad integer list {text!r}") from exc


def _load_family(path: str) -> product.Family:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read family file {path}: {exc}") from exc
    return product.Family.from_dict(data)


def gen_random_family(
    seed: int, kappa: int, order_sizes, N: int, max_intervals: int
) -> product.Family:
    """Seeded random family of canonical elements; deterministic per seed."""
    order_sizes = tuple(order_sizes)
    if len(order_sizes) != kappa:
        raise InputError("order_sizes length must equal kappa")
    if N < 0:
        raise InputError(f"negative member count {N}")
    if order_sizes and max_intervals * 2 + 2 > min(order_sizes):
        raise CapacityError(
            f"{max_intervals} intervals need order size >= {max_intervals * 2 + 2}"
        )
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
    return product.Family(kappa, order_sizes, tuple(members))


def _cmd_canon(args) -> int:
    element = algebra.from_point_set(args.order, _parse_int_list(args.points))
    _emit(args, element.to_json())
    return EXIT_OK


def _cmd_eval(args) -> int:
    fam = _load_family(args.family)
    term = terms.parse(args.term)
    values = product.prod_eval(term, fam, _parse_int_list(args.assign))
    _emit(
        args,
        {
            "coordinates": [v.to_json() for v in values],
            "zero": product.is_zero(values),
        },
    )
    return EXIT_OK


def _cmd_independent(args) -> int:
    fam = _load_family(args.family)
    ok, witness = product.is_independent(fam, _parse_int_list(args.indices))
    report = {"independent": ok}
    if witness is not None:
        report["witness"] = {
            "pattern": list(witness.pattern),
            "gamma": list(witness.gamma),
            "nabla": list(witness.nabla),
        }
    _emit(args, report)
    return EXIT_OK


def _cmd_homog_check(args) -> int:
    fam = _load_family(args.family)
    coordinates = []
    for zeta in range(fam.kappa):
        report = homogeneity.check_homogeneous(fam.coordinate(zeta))
        entry = {"zeta": zeta, "homogeneous": report.ok}
        if report.ok:
            entry["ell"] = [
                [alpha, beta, ell] for (alpha, beta), ell in sorted(report.ell.items())
            ]
        else:
            entry["violation"] = {
                "clause": report.violation.clause,
                "pair": list(report.violation.pair),
                "detail": report.violation.detail,
            }
        coordinates.append(entry)
    _emit(
        args,
        {
            "homogeneous": all(c["homogeneous"] for c in coordinates),
            "coordinates": coordinates,
        },
    )
    return EXIT_OK


def _cmd_homog_extract(args) -> int:
    fam = _load_family(args.family)
    result = homogeneity.extract_semi_homogeneous(fam)
    parts = [
        [algebra.encode_endpoint(e) for e in cuts] for cuts in result.parts
    ]
    if args.parts_out:
        write_atomic(args.parts_out, _dump({"parts": parts}))
    _emit(
        args,
        {
            "indices": list(result.indices),
            "parts": parts,
            "strategy": result.log.get("strategy"),
        },
    )
    return EXIT_OK


def _cmd_lemma16_verify(args) -> int:
    report = triples.verify_triples(args.max_order, args.max_k)
    _emit(args, report.to_dict())
    return EXIT_OK if not report.counterexamples else EXIT_NO_WITNESS


def _cmd_search(args) -> int:
    fam = _load_family(args.family)
    if args.pattern == "quadruple":
        cert = search.find_quadruple(fam)
    else:
        mode = "short" if args.pattern == "sextuple" else "symmetric"
        result = search.pipeline(fam, mode)
        cert = result.certificate
        if cert is None:
            _emit(args, {"found": False, "provenance": result.log})
            return EXIT_NO_WITNESS
    if cert is None:
        _emit(args, {"found": False})
        return EXIT_NO_WITNESS
    _emit(args, cert.to_dict())
    return EXIT_OK


def _cmd_ramsey_quad(args) -> int:
    if args.colors < 1:
        raise InputError(f"--colors must be at least 1, got {args.colors}")
    if args.n < 0:
        raise InputError(f"--n must be non-negative, got {args.n}")
    rng = random.Random(args.seed)
    pair_colors = {}

    def colors(i, j):
        if (i, j) not in pair_colors:
            pair_colors[(i, j)] = rng.randrange(args.colors)
        return pair_colors[(i, j)]

    quad = search.ramsey_quad(args.n, colors)
    report = {
        "seed": args.seed,
        "colors": args.colors,
        "n": args.n,
        "found": quad is not None,
    }
    if quad is not None:
        report["quadruple"] = list(quad)
    _emit(args, report)
    return EXIT_OK if quad is not None else EXIT_NO_WITNESS


def _cmd_gen_homog(args) -> int:
    order_sizes = _parse_int_list(args.orders)
    if len(order_sizes) == 1 and args.kappa > 1:
        order_sizes = order_sizes * args.kappa
    if len(order_sizes) != args.kappa:
        raise InputError("--orders must list one size, or one per coordinate")
    gap_pool = None if args.gap_pool is None else _parse_int_list(args.gap_pool)
    columns = [
        homogeneity.gen_homogeneous(
            args.seed * 1000003 + zeta,
            order_sizes[zeta],
            args.count,
            args.sigma_size,
            gap_pool=gap_pool,
        )
        for zeta in range(args.kappa)
    ]
    fam = product.Family.from_columns(order_sizes, columns, args.count)
    payload = fam.to_dict()
    payload["seed"] = args.seed
    _emit(args, payload)
    return EXIT_OK


def _cmd_gen_random(args) -> int:
    order_sizes = _parse_int_list(args.orders)
    if len(order_sizes) == 1 and args.kappa > 1:
        order_sizes = order_sizes * args.kappa
    fam = gen_random_family(
        args.seed, args.kappa, order_sizes, args.count, args.max_intervals
    )
    payload = fam.to_dict()
    payload["seed"] = args.seed
    _emit(args, payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intalg",
        description="Interval Boolean algebra arithmetic, homogeneity "
        "analysis and certificate searches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("canon", help="canonicalize a point set")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--points", default="")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("eval", help="evaluate a term on family members")
    p.add_argument("--term", required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--assign", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("independent", help="test member independence")
    p.add_argument("--family", required=True)
    p.add_argument("--indices", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_independent)

    p = sub.add_parser("homog", help="homogeneity analysis")
    hsub = p.add_subparsers(dest="homog_command", required=True)
    hp = hsub.add_parser("check")
    hp.add_argument("--family", required=True)
    hp.add_argument("--out")
    hp.set_defaults(func=_cmd_homog_check)
    hp = hsub.add_parser("extract")
    hp.add_argument("--family", required=True)
    hp.add_argument("--parts-out")
    hp.add_argument("--out")
    hp.set_defaults(func=_cmd_homog_extract)

    p = sub.add_parser("lemma16", help="exhaustive triple verification")
    lsub = p.add_subparsers(dest="lemma16_command", required=True)
    lp = lsub.add_parser("verify")
    lp.add_argument("--max-order", type=int, required=True)
    lp.add_argument("--max-k", type=int, required=True)
    lp.add_argument("--out")
    lp.set_defaults(func=_cmd_lemma16_verify)

    p = sub.add_parser("search", help="certificate searches")
    p.add_argument(
        "pattern", choices=["sextuple", "sextuple-sym", "quadruple"]
    )
    p.add_argument("--family", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("ramsey", help="cross-equal quadruple search")
    rsub = p.add_subparsers(dest="ramsey_command", required=True)
    rp = rsub.add_parser("quad")
    rp.add_argument("--colors", type=int, required=True)
    rp.add_argument("--n", type=int, required=True)
    rp.add_argument("--seed", type=int, required=True)
    rp.add_argument("--out")
    rp.set_defaults(func=_cmd_ramsey_quad)

    p = sub.add_parser("gen", help="seeded generators")
    gsub = p.add_subparsers(dest="gen_command", required=True)
    gp = gsub.add_parser("homog")
    gp.add_argument("--seed", type=int, required=True)
    gp.add_argument("--kappa", type=int, default=1)
    gp.add_argument("--orders", required=True)
    gp.add_argument("--count", type=int, required=True)
    gp.add_argument("--sigma-size", type=int, required=True)
    gp.add_argument("--gap-pool")
    gp.add_argument("--out")
    gp.set_defaults(func=_cmd_gen_homog)
    gp = gsub.add_parser("random")
    gp.add_argument("--seed", type=int, required=True)
    gp.add_argument("--kappa", type=int, default=1)
    gp.add_argument("--orders", required=True)
    gp.add_argument("--count", type=int, required=True)
    gp.add_argument("--max-intervals", type=int, required=True)
    gp.add_argument("--out")
    gp.set_defaults(func=_cmd_gen_random)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (InputError, CapacityError) as exc:
        sys.stderr.write(
            _dump({"error": type(exc).__name__, "message": str(exc)})
        )
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
