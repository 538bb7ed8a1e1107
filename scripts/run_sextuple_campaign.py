#!/usr/bin/env python3
"""Seeded campaign over homogeneous product families: for each seed,
generate a family, measure the number of distinct gap vectors V, check the
pigeonhole bound, and search for a verified sextuple certificate.

Example:
    python3 scripts/run_sextuple_campaign.py --runs 100 --mode short
    python3 scripts/run_sextuple_campaign.py --runs 100 --mode symmetric \
        --members 22 --out campaign.json
"""

import argparse
import json
import random
import sys
import time

from intalg import homogeneity, product
from intalg.search import (
    ell_matrix,
    find_sextuple,
    pigeonhole_state,
    required_members,
)


def make_family(seed, n_members):
    """Family with one shared nesting-gap label per level, keeping the
    count of distinct gap vectors small regardless of kappa."""
    rng = random.Random(seed)
    kappa = rng.randint(1, 3)
    p = rng.choice([24, 28, 32])
    choices = [rng.randrange(2) for _ in range(n_members)]
    cols = [
        homogeneity.gen_homogeneous(
            rng.randrange(2**32), p, n_members, 3, gap_choices=choices
        )
        for _ in range(kappa)
    ]
    return product.Family.from_columns((p,) * kappa, cols)


def run_one(seed, mode, n_members):
    fam = make_family(seed, n_members)
    matrix = ell_matrix(fam)
    v_count = pigeonhole_state(matrix)
    need = required_members(v_count, mode)
    start = time.perf_counter()
    cert = find_sextuple(fam, mode, matrix)
    elapsed = time.perf_counter() - start
    verified = cert is not None and product.is_zero(
        product.prod_eval(cert.term, fam, cert.indices)
    )
    return {
        "seed": seed,
        "kappa": fam.kappa,
        "members": len(fam),
        "v_count": v_count,
        "required_members": need,
        "bound_met": len(fam) >= need,
        "found": cert is not None,
        "verified": verified,
        "indices": list(cert.indices) if cert else None,
        "seconds": round(elapsed, 4),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=100)
    parser.add_argument("--mode", choices=["short", "symmetric"], default="short")
    parser.add_argument("--members", type=int, default=22)
    parser.add_argument("--start-seed", type=int, default=0)
    parser.add_argument("--out", help="write the full JSON report here")
    args = parser.parse_args()

    results = [
        run_one(seed, args.mode, args.members)
        for seed in range(args.start_seed, args.start_seed + args.runs)
    ]
    found = sum(r["found"] for r in results)
    verified = sum(r["verified"] for r in results)
    worst = max((r["seconds"] for r in results), default=0.0)
    summary = {
        "mode": args.mode,
        "runs": args.runs,
        "found": found,
        "verified": verified,
        "worst_seconds": worst,
        "max_v": max((r["v_count"] for r in results), default=0),
    }
    print(json.dumps(summary, indent=2))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"summary": summary, "runs": results}, handle, indent=2)
    return 0 if verified == args.runs else 1


if __name__ == "__main__":
    sys.exit(main())
