"""Spans around the library's public calls, recorded from outside the package.

A traced pass replaces module attributes at the call sites the workloads
reach (``counting.enumerate_subrings`` is the name ``CountLedger.census``
looks up, ``enumeration.products_in_span`` the one the search looks up, and
so on) with wrappers that time each call, and restores them afterwards.  The
package itself is not edited.

Every span has a name ``<layer>.<function>``, a start, an end, a parent span
and the run id of its pass.  Spans are kept in memory and written out once,
when the run ends.  Calls into the hnf certificate and Smith-form helpers
number in the hundreds of thousands per pass, so those are folded: each
(name, enclosing span) pair keeps a call count, total time and self time
instead of one record per call.  Self time is a span's duration minus the
time its child spans cover; calls are serial, so children never overlap.
"""

from __future__ import annotations

import contextlib
import gzip
import itertools
import json
import time
from collections import Counter
from pathlib import Path

LAYERS = ("enumeration", "hnf", "counting", "polynomials", "catalog", "analytics")


def _site(lib, path: str):
    owner = getattr(lib, path.split(".")[0])
    for part in path.split(".")[1:]:
        owner = getattr(owner, part)
    return owner


def _count_blocks(tracer: "Tracer", args, result) -> None:
    # The search passes is_subring_rows either a bordered block, whose first
    # pivot is a power p^a > 1, or at e = 0 the identity matrix.
    if args[0][0][0] > 1:
        tracer.counts["block_checks"] += 1
        tracer.counts["block_passes"] += bool(result)


# (object path in the library, attribute, span name, folded, tally)
CALL_SITES = (
    ("counting", "enumerate_subrings", "enumeration.enumerate_subrings", False,
     lambda t, a, r: t.counts.update(matrices_emitted=len(r))),
    ("enumeration", "products_in_span", "hnf.products_in_span", True,
     lambda t, a, r: t.counts.update(leaf_certificates=1)),
    ("enumeration", "is_subring_rows", "hnf.is_subring_rows", True, _count_blocks),
    ("enumeration", "is_irreducible_rows", "hnf.is_irreducible_rows", True, None),
    ("hnf", "is_subring_matrix", "hnf.is_subring_matrix", True, None),
    ("hnf", "is_subring_rows", "hnf.is_subring_rows", True, None),
    ("hnf", "identity_in_span", "hnf.identity_in_span", True, None),
    ("hnf", "products_in_span", "hnf.products_in_span", True, None),
    ("hnf", "smith_normal_form", "hnf.smith_normal_form", True, None),
    ("hnf", "is_irreducible_rows", "hnf.is_irreducible_rows", True, None),
    ("counting", "diagonal_support_corank", "hnf.diagonal_support_corank", True, None),
    ("counting.CountLedger", "census", "counting.census", False, None),
    ("counting.CountLedger", "cached", "counting.cached", False, None),
    ("counting", "build_record", "counting.build_record", False,
     lambda t, a, r: t.counts.update(matrices_recorded=r.f_count)),
    ("counting", "multiplicative_extend", "counting.multiplicative_extend", False, None),
    ("counting", "multiplicative_table", "counting.multiplicative_table", False, None),
    ("counting", "lattice_prime_power_count", "counting.lattice_prime_power_count", True, None),
    ("catalog", "catalog", "catalog.catalog", False, None),
    ("catalog", "subring_count_series", "catalog.subring_count_series", True, None),
    ("catalog", "expand", "polynomials.expand", False, None),
    ("polynomials", "expand", "polynomials.expand", False, None),
    ("verify", "compute_constant", "verify.compute_constant", False, None),
    ("analytics", "corank_probability", "analytics.corank_probability", False, None),
    ("analytics", "tauberian_ratio", "analytics.tauberian_ratio", False, None),
    ("analytics", "tauberian_constant", "analytics.tauberian_constant", False, None),
    ("analytics", "lattice_baseline", "analytics.lattice_baseline", False, None),
    ("analytics", "euler_product", "analytics.euler_product", False, None),
    ("analytics", "zeta_int", "analytics.zeta_int", False, None),
)


class NullTracer:
    """Stands in for a tracer on untraced passes."""

    def span(self, name: str):
        return contextlib.nullcontext()


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, str, int, int, int | None, int]] = []
        self.folded: dict[tuple[str, int | None], list[int]] = {}
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._ids = itertools.count(1)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the block, for the benchmark's own phases."""
        frame = self._open(False)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(frame, name, t0, False)

    def _open(self, folded: bool) -> list:
        parent = self._stack[-1] if self._stack else None
        owner = parent[1] if parent else None
        frame = [0, owner if folded else next(self._ids), owner, parent]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, name: str, t0: int, folded: bool) -> None:
        t1 = time.perf_counter_ns()
        dur = t1 - t0
        self._stack.pop()
        child_ns, sid, owner, parent = frame
        if parent is not None:
            parent[0] += dur
        if folded:
            agg = self.folded.get((name, owner))
            if agg is None:
                self.folded[(name, owner)] = [1, dur, dur - child_ns]
            else:
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - child_ns
        else:
            self.spans.append((sid, name, t0, t1, owner, dur - child_ns))

    def _wrap(self, fn, name: str, folded: bool, tally):
        open_, close, clock = self._open, self._close, time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = open_(folded)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame, name, t0, folded)
            if tally is not None:
                tally(self, args, result)
            return result

        return traced

    def _wrap_iter_primes(self, fn):
        def traced(limit, *args, **kwargs):
            self.counts["sieve_limit_max"] = max(self.counts["sieve_limit_max"], limit)
            n = 0
            try:
                for q in fn(limit, *args, **kwargs):
                    n += 1
                    yield q
            finally:
                self.counts["primes_visited"] += n

        return traced

    def _wrap_sieve(self, fn, analytics):
        def traced(limit):
            # the sieve is rebuilt unless the cached one already covers limit
            self.counts["sieve_builds"] += len(analytics._sieve_cache) <= limit
            return fn(limit)

        return traced

    @contextlib.contextmanager
    def installed(self, lib):
        """Wrap every call site present in lib for the duration of the block."""
        sites = [(path, attr, lambda fn, n=name, f=folded, t=tally: self._wrap(fn, n, f, t))
                 for path, attr, name, folded, tally in CALL_SITES]
        sites.append(("analytics", "iter_primes", self._wrap_iter_primes))
        sites.append(("analytics", "_sieve", lambda fn: self._wrap_sieve(fn, lib.analytics)))
        saved = []
        try:
            for path, attr, wrap in sites:
                owner = _site(lib, path)
                fn = getattr(owner, attr, None)
                if fn is None:
                    self.missing.append(f"{path}.{attr}")
                    continue
                saved.append((owner, attr, fn))
                setattr(owner, attr, wrap(fn))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # ------------------------------------------------------------------ views

    def calls(self, name: str) -> int:
        return sum(a[0] for (n, _), a in self.folded.items() if n == name) + sum(
            1 for s in self.spans if s[1] == name
        )

    def total_s(self, name: str) -> float:
        ns = sum(a[1] for (n, _), a in self.folded.items() if n == name) + sum(
            s[3] - s[2] for s in self.spans if s[1] == name
        )
        return ns / 1e9

    def layer_self_s(self) -> dict[str, float]:
        out: Counter = Counter()
        for s in self.spans:
            out[s[1].split(".")[0]] += s[5]
        for (name, _), agg in self.folded.items():
            out[name.split(".")[0]] += agg[2]
        return {layer: ns / 1e9 for layer, ns in out.items()}

    def self_s(self, name: str, excluding: tuple[str, ...] = ()) -> float:
        """Duration of the named spans minus their direct children named in
        excluding (all direct children when excluding is empty)."""
        ids = {s[0]: s for s in self.spans if s[1] == name}
        if not excluding:
            return sum(s[5] for s in ids.values()) / 1e9
        ns = sum(s[3] - s[2] for s in ids.values())
        ns -= sum(s[3] - s[2] for s in self.spans if s[4] in ids and s[1] in excluding)
        return ns / 1e9

    def total_s_under(self, name: str, ancestor: str) -> float:
        """Duration of the named spans that sit below a span named ancestor."""
        by_id = {s[0]: s for s in self.spans}
        ns = 0
        for s in self.spans:
            if s[1] != name:
                continue
            up = s[4]
            while up is not None and by_id[up][1] != ancestor:
                up = by_id[up][4]
            if up is not None:
                ns += s[3] - s[2]
        return ns / 1e9

    def records(self):
        """Spans and folded aggregates as JSON-ready dicts."""
        for sid, name, t0, t1, parent, _ in self.spans:
            yield {"run": self.run_id, "span": sid, "parent": parent, "name": name,
                   "start_ns": t0, "end_ns": t1}
        for (name, parent), (calls, total, own) in self.folded.items():
            yield {"run": self.run_id, "folded": name, "parent": parent, "calls": calls,
                   "total_ns": total, "self_ns": own}


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    """All spans of a run, one JSON object a line, gzip-compressed."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as fh:
        for tracer in tracers:
            for record in tracer.records():
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def layer_metrics(tracer: Tracer, seconds: float, extra: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took `seconds`."""
    c = tracer.counts
    emitted = c["matrices_emitted"]
    recorded = c["matrices_recorded"]
    pis_calls = tracer.calls("hnf.products_in_span")
    snf_calls = tracer.calls("hnf.smith_normal_form")
    census_calls = tracer.calls("counting.census")
    own = tracer.layer_self_s()

    def per(a: float, b: float) -> float:
        return a / b if b else 0.0

    out = {
        "enumeration.self_s": own.get("enumeration", 0.0),
        "enumeration.matrices": emitted,
        "enumeration.block_checks": c["block_checks"],
        "enumeration.block_pass_ratio": per(c["block_passes"], c["block_checks"]),
        "enumeration.leaf_certificates": c["leaf_certificates"],
        "enumeration.leaf_yield": per(emitted, c["leaf_certificates"]),
        "enumeration.diag_max_share": extra.get("diag_max_share", 0.0),
        "hnf.products_in_span.calls": pis_calls,
        "hnf.products_in_span.us_per_call": per(tracer.total_s("hnf.products_in_span") * 1e6,
                                                pis_calls),
        "hnf.smith_normal_form.calls": snf_calls,
        "hnf.smith_normal_form.us_per_call": per(tracer.total_s("hnf.smith_normal_form") * 1e6,
                                                 snf_calls),
        "hnf.smith_per_matrix": per(snf_calls, recorded),
        "hnf.recertify_per_matrix": per(tracer.calls("hnf.is_subring_matrix"), emitted),
        "counting.build_record.self_s": tracer.self_s("counting.build_record"),
        "counting.census.self_s": tracer.self_s(
            "counting.census", ("enumeration.enumerate_subrings", "counting.build_record")
        ),
        "counting.ledger_hit_ratio": per(
            census_calls - tracer.calls("enumeration.enumerate_subrings"), census_calls
        ),
        "counting.ledger_bytes": extra.get("ledger_bytes", 0),
        "counting.replay_load_s": tracer.total_s_under("counting.cached", "bench.replay"),
        "polynomials.expand.s": tracer.total_s("polynomials.expand"),
        "catalog.build_s": tracer.total_s("catalog.catalog"),
        "analytics.euler_product.calls": tracer.calls("analytics.euler_product"),
        "analytics.euler_product.s": tracer.total_s("analytics.euler_product"),
        "analytics.primes_visited": c["primes_visited"],
        "analytics.sieve_limit_max": c["sieve_limit_max"],
        "analytics.sieve_builds": c["sieve_builds"],
        "analytics.zeta_int.s": tracer.total_s("analytics.zeta_int"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_share"] = per(own.get(layer, 0.0), seconds)
    return out
