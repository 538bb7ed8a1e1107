"""Independent re-verification of every task answer.

Each check returns (answer, error): `answer` is the JSON-able form that is
recorded per task and digested, `error` is None when the answer holds.
Certificates are re-evaluated with product.prod_eval + product.is_zero,
cut sets are re-checked with homogeneity.check_semi_homogeneous, and
dependence witnesses and term values are recomputed on point sets
(algebra.to_point_set, held as int bitmasks).  A search that answers "no
witness" cannot be re-verified here; run.py compares every answer with the
one recorded for its task in expected.json, which also pins down which
searches may exhaust.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

from intalg import algebra, homogeneity, product, terms
from intalg.algebra import Element

def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _mask(a: Element) -> int:
    return sum(1 << x for x in algebra.to_point_set(a))


def _mask_eval(t, masks, full):
    if isinstance(t, terms.Var):
        return masks[t.index]
    if isinstance(t, terms.Zero):
        return 0
    if isinstance(t, terms.One):
        return full
    if isinstance(t, terms.Compl):
        return full ^ _mask_eval(t.arg, masks, full)
    left, right = _mask_eval(t.left, masks, full), _mask_eval(t.right, masks, full)
    if isinstance(t, terms.Meet):
        return left & right
    if isinstance(t, terms.Join):
        return left | right
    return left ^ right


def _least_failing_pattern(fam, idx):
    """The lexicographically least sign pattern whose meet is empty in
    every coordinate, computed on point sets, or None."""
    columns = [
        ([_mask(fam.members[i][zeta]) for i in idx], (1 << p) - 1)
        for zeta, p in enumerate(fam.order_sizes)
    ]
    for pattern in itertools.product((0, 1), repeat=len(idx)):
        if not any(
            _pattern_nonempty(masks, full, pattern) for masks, full in columns
        ):
            return pattern
    return None


def _pattern_nonempty(masks, full, pattern):
    acc = full
    for m, sign in zip(masks, pattern):
        acc &= m if sign else full ^ m
    return acc != 0


def _flat_family(fam, selected, parts):
    """Every (coordinate, segment) of the cut sets as its own coordinate,
    built from algebra.restrict directly."""
    columns = []
    for zeta, cuts in enumerate(parts):
        for lo, hi in zip(cuts, cuts[1:]):
            columns.append(
                [algebra.restrict(fam.members[a][zeta], lo, hi) for a in selected]
            )
    sizes = tuple(col[0].order_size if col else 0 for col in columns)
    members = tuple(zip(*columns)) if selected else ()
    return product.Family(len(columns), sizes, members)


def _check_indices(indices, count, n):
    if len(indices) != count or list(indices) != sorted(set(indices)):
        return f"indices {indices} are not {count} increasing positions"
    if indices and not 0 <= indices[0] <= indices[-1] < n:
        return f"indices {indices} out of range 0..{n - 1}"
    return None


def _certificate_error(fam, indices, cert_term, term):
    """Re-evaluate a certificate directly; None when it vanishes."""
    if cert_term != term:
        return f"certificate term {terms.render(cert_term)} is not {terms.render(term)}"
    error = _check_indices(list(indices), terms.num_vars(term), len(fam))
    if error:
        return error
    if not product.is_zero(product.prod_eval(term, fam, indices)):
        return f"certificate {list(indices)} does not vanish on re-evaluation"
    return None


def _cut_set_error(fam, selected, parts, max_cuts=None):
    if list(selected) != sorted(set(selected)) or (
        selected and not 0 <= selected[0] <= selected[-1] < len(fam)
    ):
        return f"selected indices {selected} malformed"
    if len(parts) != fam.kappa:
        return f"{len(parts)} cut sets for kappa {fam.kappa}"
    for zeta, cuts in enumerate(parts):
        seq = [fam.members[a][zeta] for a in selected]
        if seq and not homogeneity.check_semi_homogeneous(seq, cuts).ok:
            return f"cut set {cuts} fails the semi-homogeneity re-check"
        if max_cuts is not None and len(cuts) - 2 > max_cuts:
            return f"{len(cuts) - 2} cuts where {max_cuts} suffice"
    return None


def _certificate_answer(cert):
    return None if cert is None else list(cert.indices)


def pipeline_answer(fam, result, term, mode, max_cuts=None):
    log = result.log
    selected = log["selected_indices"]
    parts = [tuple(algebra.decode_endpoint(e) for e in cuts) for cuts in log["parts"]]
    answer = {
        "certificate": _certificate_answer(result.certificate),
        "selected": selected,
        "parts": log["parts"],
        "strategy": log["extraction"]["strategy"],
        "cuts": [len(cuts) - 2 for cuts in log["parts"]],
    }
    error = _cut_set_error(fam, selected, parts, max_cuts)
    if error is None and result.certificate is not None:
        cert = result.certificate
        if cert.mode != mode:
            error = f"certificate mode {cert.mode} is not {mode}"
        else:
            flat = _flat_family(fam, selected, parts)
            error = _certificate_error(flat, cert.indices, cert.term, term)
    return answer, error


def quadruple_answer(fam, cert, term):
    answer = {"certificate": _certificate_answer(cert)}
    if cert is None:
        return answer, None
    return answer, _certificate_error(fam, cert.indices, cert.term, term)


def independence_answer(fam, idx, raw):
    independent, witness = raw
    pattern = None if witness is None else tuple(witness.pattern)
    answer = {"independent": independent, "pattern": pattern and list(pattern)}
    expected = _least_failing_pattern(fam, idx)
    if independent != (expected is None) or pattern != expected:
        return answer, f"point sets give least failing pattern {expected}"
    if witness is not None and (
        witness.gamma != tuple(j for j, s in enumerate(pattern) if s)
        or witness.nabla != tuple(j for j, s in enumerate(pattern) if not s)
    ):
        return answer, "witness gamma/nabla disagree with its pattern"
    return answer, None


def prod_eval_answer(fam, term, idx, values):
    answer = {
        "zero": product.is_zero(values),
        "value": digest([v.to_json() for v in values]),
    }
    for zeta, (p, value) in enumerate(zip(fam.order_sizes, values)):
        masks = [_mask(fam.members[i][zeta]) for i in idx]
        if _mask(value) != _mask_eval(term, masks, (1 << p) - 1):
            return answer, f"coordinate {zeta} differs from point-set evaluation"
    return answer, None


def triples_answer(report):
    answer = report.to_dict()
    if report.counterexamples:
        return answer, f"{len(report.counterexamples)} triples with no vanishing term"
    if report.interior + report.boundary != report.triples:
        return answer, "case counts do not add up to the triple count"
    return answer, None


# --------------------------------------------------------------------------
# CLI calls: exit code, no traceback, parseable JSON, then the same
# re-verification as the library tasks.  inspect(code, doc) returns
# (fields added to the answer, error or None).


def _cli(expected_codes, inspect):
    def check(raw):
        answer = {"exit": raw.code, "sha256": hashlib.sha256(raw.out).hexdigest()[:16]}
        if raw.code not in expected_codes:
            return answer, f"exit code {raw.code}, stderr {raw.err[-300:]!r}"
        if "Traceback" in raw.err:
            return answer, "traceback on stderr"
        try:
            doc = json.loads(raw.out)
        except ValueError:
            return answer, "output is not JSON"
        fields, error = inspect(raw.code, doc)
        answer.update(fields)
        return answer, error

    return check


def cli_gen_homog(count, kappa):
    def inspect(code, doc):
        fam = product.Family.from_dict(doc)
        if len(fam) != count or fam.kappa != kappa:
            return {}, f"generated {len(fam)} members over kappa {fam.kappa}"
        for zeta in range(kappa):
            if not homogeneity.check_homogeneous(fam.coordinate(zeta)).ok:
                return {}, f"generated coordinate {zeta} is not homogeneous"
        return {}, None

    return _cli({0}, inspect)


cli_homog_check = _cli(
    {0},
    lambda code, doc: (
        {"homogeneous": doc["homogeneous"]},
        None if doc["homogeneous"] else "homogeneous input reported inhomogeneous",
    ),
)


def cli_homog_extract(fam):
    def inspect(code, doc):
        parts = [tuple(algebra.decode_endpoint(e) for e in cuts) for cuts in doc["parts"]]
        return {"indices": doc["indices"]}, _cut_set_error(fam, doc["indices"], parts)

    return _cli({0}, inspect)


def cli_search(fam, term):
    def inspect(code, doc):
        if code == 1:
            found = {"found": False, "indices": None}
            return found, None if doc.get("found") is False else "exit 1 without found=false"
        found = {"found": True, "indices": doc["indices"]}
        cert_term = terms.parse(doc["term"])
        prov = doc["provenance"]
        if not prov:  # quadruple certificates index the raw family
            return found, _certificate_error(fam, tuple(doc["indices"]), cert_term, term)
        selected = prov["selected_indices"]
        parts = [tuple(algebra.decode_endpoint(e) for e in c) for c in prov["parts"]]
        error = _cut_set_error(fam, selected, parts)
        if error:
            return found, error
        flat = _flat_family(fam, selected, parts)
        return found, _certificate_error(flat, tuple(doc["indices"]), cert_term, term)

    return _cli({0, 1}, inspect)


def cli_eval(fam, term, assign):
    def inspect(code, doc):
        for zeta, (p, eps) in enumerate(zip(fam.order_sizes, doc["coordinates"])):
            masks = [_mask(fam.members[i][zeta]) for i in assign]
            if _mask(Element.from_json(p, eps)) != _mask_eval(term, masks, (1 << p) - 1):
                return {}, f"coordinate {zeta} differs from point-set evaluation"
        if doc["zero"] != all(not eps for eps in doc["coordinates"]):
            return {}, "zero flag disagrees with the coordinates"
        return {}, None

    return _cli({0}, inspect)


def cli_independent(fam, indices):
    def inspect(code, doc):
        expected = _least_failing_pattern(fam, indices)
        got = doc.get("witness", {}).get("pattern")
        if doc["independent"] != (expected is None) or (got and tuple(got)) != expected:
            return {}, f"point sets give least failing pattern {expected}"
        return {}, None

    return _cli({0}, inspect)


cli_lemma16 = _cli(
    {0},
    lambda code, doc: (
        {"report": doc}, "counterexamples reported" if doc["counterexamples"] else None
    ),
)


def _least_cross_equal(n, colors, seed):
    """The lexicographically least a0<a1<a2<a3 whose four cross pairs
    (a0|a1, a2|a3) share one colour, or None.  `ramsey quad` colours the
    pairs i<j row by row from random.Random(seed); so does this."""
    rng = random.Random(seed)
    c = {(i, j): rng.randrange(colors) for i in range(n) for j in range(i + 1, n)}
    for quad in itertools.combinations(range(n), 4):
        a0, a1, a2, a3 = quad
        if c[a0, a2] == c[a0, a3] == c[a1, a2] == c[a1, a3]:
            return list(quad)
    return None


def cli_ramsey(n, colors, seed):
    def inspect(code, doc):
        expected = _least_cross_equal(n, colors, seed)
        if (code == 0) != (expected is not None) or doc.get("quadruple") != expected:
            return {}, f"least cross-equal quadruple is {expected}, got exit {code}"
        return {}, None

    return _cli({0, 1}, inspect)


def cli_canon(order, points):
    def inspect(code, doc):
        if algebra.to_point_set(Element.from_json(order, doc)) != set(points):
            return {}, "canonical form denotes another point set"
        return {}, None

    return _cli({0}, inspect)


def cli_gen_random(kappa, count):
    def inspect(code, doc):
        fam = product.Family.from_dict(doc)
        if len(fam) != count or fam.kappa != kappa:
            return {}, f"generated {len(fam)} members over kappa {fam.kappa}"
        return {}, None

    return _cli({0}, inspect)


def cli_malformed(raw):
    answer = {"exit": raw.code, "sha256": hashlib.sha256(raw.out).hexdigest()[:16]}
    if raw.code != 2 or raw.out:
        return answer, f"malformed term gave exit {raw.code}"
    try:
        record = json.loads(raw.err)
    except ValueError:
        return answer, "stderr is not a JSON error record"
    if not record.get("error") or "message" not in record:
        return answer, "error record lacks error/message"
    answer["error"] = record["error"]
    return answer, None
