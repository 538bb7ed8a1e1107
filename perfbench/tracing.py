"""Spans around intalg's public functions, recorded from the benchmark's
own files only.

install() rebinds each traced function at every name a caller can reach
it through: the defining module, every intalg module that imported it
with `from ... import`, and class attributes (Family.from_dict,
EllMatrix.ell_vec).  uninstall() restores the originals.

A span records its name, start, end, parent span and whether it raised;
spans sit in flat arrays until the pass ends.  EllMatrix.ell_vec runs
millions of times per pass, so it is counted and its time is charged to
the calling span as child time, without a span of its own.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter_ns

from intalg.errors import CapacityError

SPANNED = (
    "algebra.meet",
    "algebra.join",
    "algebra.symdiff",
    "algebra.complement",
    "algebra.restrict",
    "terms.evaluate",
    "product.prod_eval",
    "product.is_independent",
    "product.Family.from_dict",
    "homogeneity.check_homogeneous",
    "homogeneity.check_semi_homogeneous",
    "homogeneity.find_partitioning_set",
    "homogeneity.extract_semi_homogeneous",
    "homogeneity.gen_homogeneous",
    "search.ell_matrix",
    "search.pigeonhole_state",
    "search.flatten",
    "search.find_sextuple",
    "search.find_quadruple",
    "search.pipeline",
    "triples.verify_triples",
    "cli.main",
    "cli.write_atomic",
)
COUNTED = ("homogeneity.EllMatrix.ell_vec",)
FINDS = ("search.find_sextuple", "search.find_quadruple")


def _result_counts(name, result, counts):
    """Deterministic work counters read off a traced call's result."""
    if name in FINDS and result is None:
        counts["search.exhausted"] += 1
    elif name == "homogeneity.check_semi_homogeneous" and result.ok:
        counts["homogeneity.check_semi_homogeneous.accepted"] += 1
    elif name == "triples.verify_triples":
        counts["triples.triples_checked"] += result.triples


class Tracer:
    def __init__(self):
        self.names = []
        self.ids = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.raised = array("b")
        self.extra_child = array("q")  # time of counted calls made inside
        self.stack = []
        self.counts = Counter()
        self.counted_ns = Counter()
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _id(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def span(self, name, fn):
        nid = self._id(name)
        stack, counts = self.stack, self.counts
        names, starts, ends = self.name, self.start, self.end
        parents, raised, extra = self.parent, self.raised, self.extra_child

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            raised.append(0)
            extra.append(0)
            ends.append(0)
            stack.append(i)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[i] = perf_counter_ns()
                raised[i] = 1
                if isinstance(exc, CapacityError):
                    counts[name + ".capacity_errors"] += 1
                raise
            else:
                ends[i] = perf_counter_ns()
                _result_counts(name, result, counts)
                return result
            finally:
                stack.pop()

        return traced

    def counted(self, name, fn):
        stack, counts, extra, total = self.stack, self.counts, self.extra_child, self.counted_ns
        key = name + ".calls"

        def traced(*args, **kwargs):
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                counts[key] += 1
                total[name] += dt
                if stack:
                    extra[stack[-1]] += dt

        return traced

    def root(self, name, fn):
        """Run fn under a root span, e.g. one task or the input set-up."""
        return self.span(name, fn)()

    # -- installing --------------------------------------------------------

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "intalg" or k.startswith("intalg.")]
        for full in SPANNED + COUNTED:
            wrap = self.counted if full in COUNTED else self.span
            module_name, *path = full.split(".")
            owner = sys.modules["intalg." + module_name]
            if len(path) == 2:  # a method or classmethod
                cls = getattr(owner, path[0])
                raw = cls.__dict__[path[1]]
                if isinstance(raw, classmethod):
                    new = classmethod(wrap(full, raw.__func__))
                else:
                    new = wrap(full, raw)
                self._rebind(cls, path[1], raw, new)
                continue
            orig = getattr(owner, path[0])
            new = wrap(full, orig)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        self._rebind(module, attr, orig, new)

    def _rebind(self, holder, attr, old, new):
        setattr(holder, attr, new)
        self._restore.append((holder, attr, old))

    def uninstall(self):
        for holder, attr, old in reversed(self._restore):
            setattr(holder, attr, old)
        self._restore.clear()

    # -- summarising -------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, total and self time (ms), plus the counters
        that need span ancestry."""
        n = len(self.start)
        names, parents = self.name, self.parent
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = list(self.extra_child)
        for i in range(n):
            if parents[i] >= 0:
                child[parents[i]] += dur[i]
        find_ids = {self._id(f) for f in FINDS}
        indep_id = self._id("product.is_independent")
        eval_id = self._id("terms.evaluate")
        meet_id = self._id("algebra.meet")
        under_find = bytearray(n)
        under_indep = bytearray(n)
        calls, total, self_ns = Counter(), Counter(), Counter()
        counts = Counter(self.counts)
        for i in range(n):
            nm = self.names[names[i]]
            calls[nm] += 1
            total[nm] += dur[i]
            self_ns[nm] += dur[i] - child[i]
            p = parents[i]
            if p >= 0:
                under_find[i] = under_find[p] or names[p] in find_ids
                under_indep[i] = under_indep[p] or names[p] == indep_id
            if names[i] == eval_id and under_find[i]:
                counts["search.candidate_evals"] += 1
            if names[i] == meet_id and under_indep[i]:
                counts["product.is_independent.meets"] += 1
        for nm, c in calls.items():
            counts[nm + ".calls"] += c
        return {
            "counts": dict(counts),
            "total_ms": {k: v / 1e6 for k, v in total.items()},
            "self_ms": {k: v / 1e6 for k, v in self_ns.items()},
            "counted_ms": {k: v / 1e6 for k, v in self.counted_ns.items()},
        }

    def dump(self) -> dict:
        """The raw spans, start times relative to the first one."""
        t0 = self.start[0] if len(self.start) else 0
        return {
            "names": self.names,
            "name": list(self.name),
            "start_ns": [s - t0 for s in self.start],
            "end_ns": [e - t0 for e in self.end],
            "parent": list(self.parent),
            "raised": list(self.raised),
        }
