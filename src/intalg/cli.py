"""Command-line surface: canonicalization, evaluation, checks, searches
and seeded generators, all emitting reproducible JSON artifacts.

Exit codes: 0 success or witness found, 1 search exhausted without a
witness, 2 malformed input (a command line argparse rejects included) or
capacity overflow, 3 any other failure; 2 and 3 print a JSON error record
on stderr and no traceback.  A value that starts with a single '-' is read
as the value of the option before it: `--term -x0` is `--term=-x0`.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

# a _cmd_* imports at its top the intalg modules that only it runs, so that a
# call loads no module it does not use
from . import algebra, product
from .errors import CapacityError, InputError

EXIT_OK = 0
EXIT_NO_WITNESS = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3

# `ramsey quad` scans O(n^3) pair rows and stores n^2/2 colours: an
# exhausting scan at the cap took 8.2 s and 40 MB (Python 3.11, 2 shared cores)
MAX_RAMSEY_N = 1000
# random draws a `gen` call may make, counted before it draws any: about
# sum(p) for `gen homog`, count * kappa * (2 * max_intervals + 1) for `gen
# random`.  At the cap `gen homog` took 1.3 s (2 members) to 5.4 s and 371 MB
# (499,999 members, kappa 2), `gen random` 1.7 s and 73 MB (Python 3.11, 2
# shared cores)
MAX_GEN_DRAWS = 1_000_000


class _Parser(argparse.ArgumentParser):
    """Raises InputError where argparse would print usage and exit 2, so a
    rejected command line gets the JSON error record too."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write_atomic(path: str, text: str) -> None:
    """Replace `path` via a temporary file in its directory, so it holds the
    old text or the new, never a part; mode 0o666 less the umask, as open().
    A bad path is an InputError that names it; a full disk stays an OSError."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".intalg-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError) as exc:  # strerror: the message must not name tmp
        raise InputError(f"cannot write {path}: {exc.strerror}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _emit(args, obj) -> None:
    text = _dump(obj)
    if args.out:
        write_atomic(args.out, text)
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
    # ValueError covers bad JSON and bad UTF-8; RecursionError, deep nesting
    except (OSError, ValueError, RecursionError) as exc:
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
    if max_intervals < 0:
        raise InputError(f"negative interval count {max_intervals}")
    for p in order_sizes:
        if p < 0:
            raise InputError(f"negative order size {p}")
    # a member draws 2 * count distinct endpoints from the p + 1 indices
    if order_sizes and max_intervals * 2 > min(order_sizes) + 1:
        raise CapacityError(
            f"{max_intervals} intervals need order size >= {max_intervals * 2 - 1}"
        )
    _check_draws(N * kappa * (2 * max_intervals + 1))
    rng = random.Random(seed)
    members = []
    for _ in range(N):
        member = []
        for p in order_sizes:
            # sample draws indices from the pool's length alone, so the pool
            # -inf, 1, ..., p - 1, +inf is never built: index i stands for
            # i, except 0 for -inf and p for +inf
            count = rng.randint(0, max_intervals)
            picks = sorted(rng.sample(range(p + 1), 2 * count))
            ends = {0: algebra.NEG_INF, p: algebra.POS_INF}
            member.append(algebra.Element(p, tuple(ends.get(i, i) for i in picks)))
        members.append(tuple(member))
    return product.Family(kappa, order_sizes, tuple(members))


def _check_draws(draws: int) -> None:
    if draws > MAX_GEN_DRAWS:
        raise CapacityError(f"about {draws} random draws exceed cap {MAX_GEN_DRAWS}")


def _cmd_canon(args) -> int:
    element = algebra.from_point_set(args.order, _parse_int_list(args.points))
    _emit(args, element.to_json())
    return EXIT_OK


def _cmd_eval(args) -> int:
    from . import terms

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
    from . import homogeneity

    fam = _load_family(args.family)
    homogeneity.check_witness_cap(fam)
    coordinates = []
    for zeta in range(fam.kappa):
        report = homogeneity.check_homogeneous(fam.coordinate(zeta))
        entry = {"zeta": zeta, "homogeneous": report.ok}
        if report.ok:
            # row beta holds ell for each alpha < beta: read alpha-major,
            # with one int object per index (slices share them)
            rows, members = report.ell, list(range(len(report.ell)))
            entry["ell"] = [
                [alpha, beta, rows[beta][alpha]]
                for alpha in members
                for beta in members[alpha + 1 :]
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
    from . import homogeneity

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
            "strategy": result.strategy,
        },
    )
    return EXIT_OK


def _cmd_lemma16_verify(args) -> int:
    from . import triples

    report = triples.verify_triples(args.max_order, args.max_k)
    _emit(args, report.to_dict())
    return EXIT_OK if not report.counterexamples else EXIT_NO_WITNESS


def _cmd_search(args) -> int:
    from . import search

    fam = _load_family(args.family)
    report = {"found": False}
    if args.pattern == "quadruple":
        cert = search.find_quadruple(fam)
    else:
        mode = "short" if args.pattern == "sextuple" else "symmetric"
        result = search.pipeline(fam, mode)
        cert = result.certificate
        report["provenance"] = result.log
    if cert is None:
        _emit(args, report)
        return EXIT_NO_WITNESS
    _emit(args, {**cert.to_dict(), "provenance": report.get("provenance", {})})
    return EXIT_OK


def _cmd_ramsey_quad(args) -> int:
    from . import search

    if args.colors < 1:
        raise InputError(f"--colors must be at least 1, got {args.colors}")
    if args.n < 0:
        raise InputError(f"--n must be non-negative, got {args.n}")
    if args.n > MAX_RAMSEY_N:
        raise CapacityError(f"--n {args.n} exceeds cap {MAX_RAMSEY_N}")
    rng = random.Random(args.seed)
    # ramsey_quad asks for each pair once, in lexicographic order: no memo
    quad = search.ramsey_quad(args.n, lambda i, j: rng.randrange(args.colors))
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


def _orders(args) -> list:
    """--orders as a list; one size stands for every coordinate."""
    order_sizes = _parse_int_list(args.orders)
    if len(order_sizes) == 1 and args.kappa > 1:
        order_sizes = order_sizes * args.kappa
    return order_sizes


def _emit_family(args, fam: product.Family) -> int:
    payload = fam.to_dict()
    payload["seed"] = args.seed
    _emit(args, payload)
    return EXIT_OK


def _cmd_gen_homog(args) -> int:
    from . import homogeneity

    order_sizes = _orders(args)
    if len(order_sizes) != args.kappa:
        raise InputError("--orders must list one size, or one per coordinate")
    gap_pool = None if args.gap_pool is None else _parse_int_list(args.gap_pool)
    # each member draws its endpoints' offsets, about p in all per coordinate
    _check_draws(sum(order_sizes) if args.count > 0 and args.sigma_size > 2 else 0)
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
    return _emit_family(args, fam)


def _cmd_gen_random(args) -> int:
    fam = gen_random_family(
        args.seed, args.kappa, _orders(args), args.count, args.max_intervals
    )
    return _emit_family(args, fam)


def build_parser() -> argparse.ArgumentParser:
    out = _Parser(add_help=False)
    out.add_argument("--out")
    family = _Parser(add_help=False)
    family.add_argument("--family", required=True)
    gen = _Parser(add_help=False)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--kappa", type=int, default=1)
    gen.add_argument("--orders", required=True)
    gen.add_argument("--count", type=int, required=True)

    def leaf(group, name, func, *parents, **kwargs):
        p = group.add_parser(name, parents=[*parents, out], **kwargs)
        p.set_defaults(func=func)
        return p

    parser = _Parser(
        prog="intalg",
        description="Interval Boolean algebra arithmetic, homogeneity "
        "analysis and certificate searches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = leaf(sub, "canon", _cmd_canon, help="canonicalize a point set")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--points", default="")

    p = leaf(sub, "eval", _cmd_eval, family, help="evaluate a term on family members")
    p.add_argument("--term", required=True)
    p.add_argument("--assign", required=True)

    p = leaf(
        sub, "independent", _cmd_independent, family, help="test member independence"
    )
    p.add_argument("--indices", required=True)

    p = sub.add_parser("homog", help="homogeneity analysis")
    hsub = p.add_subparsers(dest="homog_command", required=True)
    leaf(hsub, "check", _cmd_homog_check, family)
    p = leaf(hsub, "extract", _cmd_homog_extract, family)
    p.add_argument("--parts-out")

    p = sub.add_parser("lemma16", help="triple verification by order type")
    lsub = p.add_subparsers(dest="lemma16_command", required=True)
    p = leaf(lsub, "verify", _cmd_lemma16_verify)
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--max-k", type=int, required=True)

    p = leaf(sub, "search", _cmd_search, family, help="certificate searches")
    p.add_argument("pattern", choices=["sextuple", "sextuple-sym", "quadruple"])

    p = sub.add_parser("ramsey", help="cross-equal quadruple search")
    rsub = p.add_subparsers(dest="ramsey_command", required=True)
    p = leaf(rsub, "quad", _cmd_ramsey_quad)
    p.add_argument("--colors", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("gen", help="seeded generators")
    gsub = p.add_subparsers(dest="gen_command", required=True)
    p = leaf(gsub, "homog", _cmd_gen_homog, gen)
    p.add_argument("--sigma-size", type=int, required=True)
    p.add_argument("--gap-pool")
    p = leaf(gsub, "random", _cmd_gen_random, gen)
    p.add_argument("--max-intervals", type=int, required=True)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes a value that starts with one '-' ("-x0") for an option:
    # join it to a long option before it, except --help, its prefixes and "--"
    for i in range(len(argv) - 2, -1, -1):
        option, value = argv[i : i + 2]
        takes_value = option[:2] == "--" and "=" not in option
        if takes_value and not "--help".startswith(option):
            if value[:1] == "-" and value[:2] != "--" and value != "-h":
                argv[i : i + 2] = [f"{option}={value}"]
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except Exception as exc:  # a crash must never read as exit 1, "exhausted"
        sys.stderr.write(_dump({"error": type(exc).__name__, "message": str(exc)}))
        if isinstance(exc, (InputError, CapacityError)):
            return EXIT_INPUT_ERROR
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
