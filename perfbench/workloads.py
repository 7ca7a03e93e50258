"""The workloads, each a pass that drives the library and checks its output.

A pass is one closed-loop call: it starts after the previous pass returns.
Every pass checks its own results; a check that raises counts as failed.
The seed only permutes inputs whose order cannot change the answer.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import NullTracer


class Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, compute) -> None:
        """compute() returns (ok, detail); raising counts as a failed check."""
        self.attempted += 1
        try:
            ok, detail = compute()
        except Exception as exc:  # a check that raises is a failed check
            ok, detail = False, f"raised {exc!r}"
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")

    def fail(self, name: str, exc: Exception, count: int) -> None:
        """count checks that could not run because computing their input raised."""
        self.attempted += count
        self.failed += count
        self.failures.append(f"{name}: raised {exc!r} ({count} checks failed)")


@dataclass
class PassResult:
    checks: Checks
    matrices: int = 0
    extra: dict = field(default_factory=dict)
    start: float = 0.0  # perf_counter at the start of the pass
    seconds: float = 0.0
    reference_s: float | None = None  # seconds scaled to the nominal speed


def equal(actual, expected) -> tuple[bool, str]:
    detail = f"got {actual!r}, expected {expected!r}"
    return actual == expected, detail if len(detail) < 300 else detail[:297] + "..."


def _timed(run, tracer):
    t0 = time.perf_counter()
    with tracer.span("bench.pass"):
        result = run()
    result.start, result.seconds = t0, time.perf_counter() - t0
    return result


class CensusZ4:
    """Cold in-memory cotype censuses of Z^4 up a ladder of exponents per prime."""

    name = "census-z4"
    catalog_ids = ("cotype_z4", "subring_local_z4")

    def __init__(self, lib, seed: int, ladders=((2, 10), (3, 7))):
        self.lib = lib
        self.cells = [(p, e) for p, top in ladders for e in range(top + 1)]
        random.Random(seed).shuffle(self.cells)
        # the cell with the highest exponent, where the search goes deepest
        self.deep_cell = (4, *max(ladders, key=lambda pe: pe[1]))

    def run_pass(self, tracer=NullTracer()) -> PassResult:
        return _timed(self._pass, tracer)

    def _pass(self) -> PassResult:
        lib, checks = self.lib, Checks()
        top = max(e for _, e in self.cells)
        table = lib.polynomials.expand(lib.catalog.catalog("cotype_z4"),
                                       (top, top // 2, top // 3), total=top)
        ledger = lib.counting.CountLedger()
        matrices = 0
        for p, e in self.cells:
            cell = f"census(4, {p}, {e})"
            try:
                record = ledger.census(4, p, e)
            except Exception as exc:  # counted as failed checks
                checks.fail(cell, exc, 2)
                continue
            matrices += record.f_count
            checks.check(f"{cell} cotypes", lambda: equal(
                {lib.hnf.Cotype(a).exponents(p): c for a, c in record.cotype_counts.items()},
                {k: v for k, poly in table.coefficients.items()
                 if sum(k) == e and (v := poly.eval(p=p))},
            ))
            checks.check(f"{cell} total", lambda: equal(
                record.f_count, lib.catalog.subring_count_series(4, p, e)))
        return PassResult(checks, matrices)


def _prime_powers(limit: int) -> list[tuple[int, int]]:
    flags = bytearray([1]) * (limit + 1)
    out = []
    for q in range(2, limit + 1):
        if flags[q]:
            flags[q * q :: q] = bytes(len(flags[q * q :: q]))
            e, power = 1, q
            while power <= limit:
                out.append((q, e))
                e, power = e + 1, power * q
    return out


class ExtendZ3:
    """Multiplicative extension of Z^3 censuses to every index up to a bound,
    cold on a fresh ledger directory, then replayed from disk."""

    name = "extend-z3"
    catalog_ids = ("subring_local_z3",)

    def __init__(self, lib, seed: int, scratch: Path, limit: int = 20000):
        self.lib = lib
        self.limit = limit
        self.scratch = scratch
        rng = random.Random(seed)
        self.coranks = rng.sample((1, 2), 2)
        self.prime_powers = _prime_powers(limit)
        rng.shuffle(self.prime_powers)
        top = max(e for p, e in self.prime_powers if p == 2)
        self.deep_cell = (3, 2, top)
        # A run keeps the ledger directories of its own passes, about 10 MB
        # each, and removes those of earlier runs here, before anything is
        # timed.  The file system is flushed after, so that freeing their
        # blocks, which some disks follow with a slow discard, is done too.
        for old in scratch.glob("ledger-*"):
            shutil.rmtree(old)
        os.sync()

    def run_pass(self, tracer=NullTracer()) -> PassResult:
        directory = Path(tempfile.mkdtemp(prefix="ledger-", dir=self.scratch))
        result = _timed(lambda: self._pass(directory, tracer), tracer)
        result.extra["ledger_bytes"] = sum(f.stat().st_size for f in directory.iterdir())
        return result

    def _pass(self, directory: Path, tracer) -> PassResult:
        counting, series = self.lib.counting, self.lib.catalog.subring_count_series
        checks, n, limit = Checks(), 3, self.limit
        n_checks = len(self.prime_powers) + 4
        with tracer.span("bench.cold"):
            try:
                ledger = counting.CountLedger(directory)
                cold = counting.multiplicative_extend(n, limit, ledger, coranks=self.coranks)
            except Exception as exc:  # counted as failed checks
                checks.fail("cold multiplicative_extend", exc, n_checks)
                return PassResult(checks)
        t0 = time.perf_counter()
        with tracer.span("bench.replay"):
            try:
                warm = counting.multiplicative_extend(
                    n, limit, counting.CountLedger(directory), coranks=self.coranks,
                    compute=False)
            except Exception as exc:  # counted as failed checks
                warm = None
                checks.fail("replayed multiplicative_extend", exc, 3)
        replay = (t0, time.perf_counter())

        for p, e in self.prime_powers:
            checks.check(f"f_3({p}^{e})", lambda: equal(cold.f[p**e], series(n, p, e)))
        # Sylow bijection: the 2-part of a subring of index 4 * odd with
        # 2-quotient (Z/2)^2 is the cotype-(2, 2) subring of index 4.
        checks.check("Sylow bijection", lambda: equal(
            sum(ledger.census(n, 2, 2).cotype_counts.get((2, 2), 0) * cold.f[j // 4]
                for j in range(4, limit + 1, 8)),
            sum(cold.f[j] for j in range(1, limit // 4 + 1, 2)),
        ))
        if warm is not None:
            checks.check("replayed f", lambda: equal(warm.f == cold.f, True))
            checks.check("replayed h_tilde", lambda: equal(warm.h_tilde == cold.h_tilde, True))
            checks.check("replayed lattice", lambda: equal(warm.lattice == cold.lattice, True))
        matrices = sum(cold.f[p**e] for p, e in self.prime_powers)
        return PassResult(checks, matrices, {"replay": replay})


class Constants:
    """Every quoted constant, judged by the constants suite's pass rule."""

    name = "constants"
    catalog_ids = ()
    deep_cell = None

    def __init__(self, lib, seed: int, ids=None):
        self.lib = lib
        self.ids = list(ids if ids is not None else lib.verify.QUOTED_CONSTANTS)
        random.Random(seed).shuffle(self.ids)

    def run_pass(self, tracer=NullTracer()) -> PassResult:
        # Start from an empty prime sieve, as a fresh interpreter does, so
        # that every pass builds and regrows it in the order of self.ids.
        self.lib.analytics._sieve_cache = bytearray()
        return _timed(self._pass, tracer)

    def _pass(self) -> PassResult:
        verify, checks = self.lib.verify, Checks()
        worst = 0.0
        for name in self.ids:
            try:
                quoted, tol, kind = verify.QUOTED_CONSTANTS[name]
                limit = tol * abs(quoted) if kind == "rel" else tol
                value = verify.compute_constant(name)
            except Exception as exc:  # counted as a failed check
                checks.fail(name, exc, 1)
                continue
            worst = max(worst, value.bound / limit)
            checks.check(name, lambda: (
                abs(value.value - quoted) <= limit and value.bound <= limit,
                f"value {value.value!r} +- {value.bound:.3g} against {quoted} within {limit:.3g}",
            ))
        return PassResult(checks, extra={"enclosure_over_tol_max": worst})


class ConstantsSmall(Constants):
    """The quoted constants whose prime sieves stop at 8.4e6: both Z^3 corank
    probabilities (products of a polynomial factor) and the three lattice
    baselines (products of exact Fraction factors).

    A pass takes a few seconds, so a run holds many passes and reports their
    median; one pass of the full set is longer than a run.
    """

    name = "constants-small"
    IDS = ("p_R_3_1", "p_R_3_2", "lattice_cocyclic_limit", "lattice_corank2_limit",
           "lattice_corank3_limit")

    def __init__(self, lib, seed: int):
        super().__init__(lib, seed, self.IDS)


WORKLOADS = {w.name: w for w in (CensusZ4, ExtendZ3, Constants, ConstantsSmall)}
