"""Censuses of subring matrices: exact counts, persistence, and closed forms.

A census record fixes (n, p, e) and stores the total count, the count of
irreducible matrices, per-corank counts, and the full cotype census.  Records
are persisted one file per (n, p) as sorted-key JSON with a per-record
checksum, so long enumerations survive restarts and the cache is auditable.
Composite-index counts are never enumerated: they are reconstructed
multiplicatively from the prime-power records.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .catalog import irreducible_count
from .combinatorics import binomial
from .enumeration import ENGINE_VERSION, EnumSpec, PruneRuleSet, enumerate_subrings
from .hnf import SubringMatrix, diagonal_support_corank

LEDGER_SCHEMA_VERSION = 1


class CensusValidationError(RuntimeError):
    """An enumerated matrix violated a structural invariant."""


class MissingCensusError(KeyError):
    """Multiplicative extension lacks required prime-power records."""

    def __init__(self, missing: list[tuple[int, int, int]]):
        self.missing = sorted(missing)
        pretty = ", ".join(f"(n={n}, p={p}, e={e})" for n, p, e in self.missing)
        super().__init__(f"missing census records: {pretty}")


@dataclass(frozen=True)
class CensusRecord:
    """Exact counts of the subring matrices of Z^n with determinant p^e."""

    n: int
    p: int
    e: int
    f_count: int
    g_count: int
    h_counts: tuple[int, ...]
    cotype_counts: dict[tuple[int, ...], int]
    mode: str
    rules: str
    engine_version: str

    def h_tilde(self, k: int) -> int:
        """Count of subrings with corank at most k."""
        return sum(self.h_counts[: k + 1])

    def payload(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "e": self.e,
            "f": self.f_count,
            "g": self.g_count,
            "h": list(self.h_counts),
            "cotypes": {
                ",".join(str(a) for a in key): count
                for key, count in sorted(self.cotype_counts.items())
            },
            "mode": self.mode,
            "rules": self.rules,
            "engine": self.engine_version,
        }

    def checksum(self) -> str:
        body = json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(body.encode()).hexdigest()

    @classmethod
    def from_payload(cls, payload: dict) -> "CensusRecord":
        cotypes = {
            tuple(int(v) for v in key.split(",")): count
            for key, count in payload["cotypes"].items()
        }
        return cls(
            n=payload["n"],
            p=payload["p"],
            e=payload["e"],
            f_count=payload["f"],
            g_count=payload["g"],
            h_counts=tuple(payload["h"]),
            cotype_counts=cotypes,
            mode=payload["mode"],
            rules=payload["rules"],
            engine_version=payload["engine"],
        )

    def validate(self) -> None:
        if sum(self.h_counts) != self.f_count:
            raise CensusValidationError("per-corank counts do not sum to the total")
        if sum(self.cotype_counts.values()) != self.f_count:
            raise CensusValidationError("cotype census does not sum to the total")
        for key, count in self.cotype_counts.items():
            if count < 0:
                raise CensusValidationError("negative cotype count")
            if math.prod(key) != self.p**self.e:
                raise CensusValidationError("cotype index does not match p^e")
            k = sum(1 for a in key if a > 1)
            if k >= len(self.h_counts) or count > self.h_counts[k]:
                raise CensusValidationError("cotype census inconsistent with corank counts")

    def counts_equal(self, other: "CensusRecord") -> bool:
        return (
            (self.n, self.p, self.e) == (other.n, other.p, other.e)
            and self.f_count == other.f_count
            and self.g_count == other.g_count
            and self.h_counts == other.h_counts
            and self.cotype_counts == other.cotype_counts
        )


def _structural_check(m: SubringMatrix, corank: int) -> None:
    """Per-matrix invariants every emitted subring matrix must satisfy.

    corank is the Smith-form corank of m, which the caller has computed.
    """
    n = m.n
    entries = m.entries
    support = tuple(i for i in range(n) if entries[i][i] > 1)
    if corank != diagonal_support_corank(m):
        raise CensusValidationError(f"corank != diagonal support for {entries}")
    for i in range(n):
        if entries[i][n - 1] not in (0, 1):
            raise CensusValidationError(f"last column entry outside {{0,1}} in {entries}")
    for i in support:
        ones = 0
        for j in range(i + 1, n):
            if j in support:
                continue
            v = entries[i][j]
            if v == 1:
                ones += 1
            elif v != 0:
                raise CensusValidationError(f"support row has entry outside {{0,1}} in {entries}")
        if ones != 1:
            raise CensusValidationError(f"support row without exactly one 1 in {entries}")
    for ai, i in enumerate(support):
        for j in support[ai + 1 :]:
            if (entries[i][n - 1] == 1) != (entries[j][n - 1] == 1) and entries[i][j] != 0:
                raise CensusValidationError(f"last-column pair rule violated in {entries}")


def build_record(
    n: int,
    p: int,
    e: int,
    matrices: list[SubringMatrix],
    mode: str,
    rules: str,
) -> CensusRecord:
    h_counts = [0] * n
    cotypes: dict[tuple[int, ...], int] = {}
    for m in matrices:
        ct = m.cotype()
        _structural_check(m, ct.corank)
        key = ct.alphas
        cotypes[key] = cotypes.get(key, 0) + 1
        h_counts[ct.corank] += 1
    record = CensusRecord(
        n=n,
        p=p,
        e=e,
        f_count=len(matrices),
        # irreducible means corank n-1 (see enumerate_irreducible)
        g_count=h_counts[n - 1],
        h_counts=tuple(h_counts),
        cotype_counts=cotypes,
        mode=mode,
        rules=rules,
        engine_version=ENGINE_VERSION,
    )
    record.validate()
    return record


class CountLedger:
    """Cache of census records, optionally persisted one JSON file per (n, p).

    File writes go through a single in-process commit lock and an atomic
    replace; reads are lock-free.  Stored records carry a checksum that is
    verified on load.  Only records of this engine version and pruning rules
    are served; any other is a miss, and census overwrites it.
    """

    def __init__(self, directory: str | Path | None = None):
        self.directory = Path(directory) if directory is not None else None
        self._records: dict[tuple[int, int, int], CensusRecord] = {}
        self._corank_counts: dict[tuple[int, int, int, int], int] = {}
        self._write_lock = threading.Lock()
        self._rules = PruneRuleSet().fingerprint()
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)

    def _file(self, n: int, p: int) -> Path:
        assert self.directory is not None
        return self.directory / f"census-n{n}-p{p}.json"

    def _load_file(self, n: int, p: int) -> dict[int, CensusRecord]:
        out: dict[int, CensusRecord] = {}
        if self.directory is None:
            return out
        path = self._file(n, p)
        if not path.exists():
            return out
        doc = json.loads(path.read_text())
        if doc.get("schema") != LEDGER_SCHEMA_VERSION:
            raise ValueError(f"unsupported ledger schema in {path}")
        for item in doc["records"]:
            record = CensusRecord.from_payload(item["record"])
            if record.checksum() != item["checksum"]:
                raise ValueError(f"checksum mismatch in {path} at e={record.e}")
            record.validate()
            out[record.e] = record
        return out

    def _store(self, record: CensusRecord) -> None:
        key = (record.n, record.p, record.e)
        self._records[key] = record
        if self.directory is None:
            return
        with self._write_lock:
            existing = self._load_file(record.n, record.p)
            existing[record.e] = record
            doc = {
                "schema": LEDGER_SCHEMA_VERSION,
                "n": record.n,
                "p": record.p,
                "records": [
                    {"record": existing[e].payload(), "checksum": existing[e].checksum()}
                    for e in sorted(existing)
                ],
            }
            path = self._file(record.n, record.p)
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
            os.replace(tmp, path)

    def cached(self, n: int, p: int, e: int) -> CensusRecord | None:
        key = (n, p, e)
        if key in self._records:
            return self._records[key]
        for e2, record in self._load_file(n, p).items():
            if record.engine_version == ENGINE_VERSION and record.rules == self._rules:
                self._records[(n, p, e2)] = record
        return self._records.get(key)

    def census(
        self,
        n: int,
        p: int,
        e: int,
        recheck: bool = False,
        node_budget: int = 10**9,
        threads: int = 1,
        progress: bool = False,
    ) -> CensusRecord:
        """Exact census at (n, p, e); cached unless recheck forces recomputation.

        With recheck, a fresh enumeration is compared against the cached
        record and a mismatch raises (stale engine guard).  Budget exhaustion
        propagates as BudgetExceededError; nothing partial is stored.
        """
        cached = self.cached(n, p, e)
        if cached is not None and not recheck:
            return cached
        spec = EnumSpec(
            n=n,
            p=p,
            e=e,
            mode="pruned",
            node_budget=node_budget,
            threads=threads,
            progress=progress,
        )
        matrices = enumerate_subrings(spec)
        record = build_record(n, p, e, matrices, "pruned", self._rules)
        if cached is not None and not record.counts_equal(cached):
            raise CensusValidationError(
                f"recheck mismatch at (n={n}, p={p}, e={e}): cache is stale"
            )
        self._store(record)
        return record

    def corank_count(
        self, n: int, p: int, e: int, k: int, node_budget: int = 10**9, threads: int = 1
    ) -> int:
        """h_{n,k}(p^e) via a corank-filtered enumeration (or the full record)."""
        key = (n, p, e, k)
        if key in self._corank_counts:
            return self._corank_counts[key]
        full = self.cached(n, p, e)
        if full is not None:
            value = full.h_counts[k]
        else:
            spec = EnumSpec(
                n=n, p=p, e=e, mode="pruned", corank=k, node_budget=node_budget, threads=threads
            )
            matrices = enumerate_subrings(spec)
            for m in matrices:
                _structural_check(m, m.corank())
            value = len(matrices)
        self._corank_counts[key] = value
        return value


def corank2_formula_coefficients(n: int) -> tuple[int, int]:
    """(a(n), b(n)) of the displayed form h_{n,2}(p^e) = a(n) g_3(p^e) + b(n) (e - 1).

    These are the displayed coefficients a(n) = (3n^2 - 17n + 36)/12 C(n-1, 2)
    and b(n) = 3 C(n-1, 3).  They equal the exact C(n, 3) and 3 C(n, 4) of
    `formula_h` only for n <= 4; from n = 5 on the displayed form is refuted
    by enumeration (the `corank-formulas` verify suite records this).  They
    are still used by `analytics._corank2_deviation` / `_corank3_deviation`,
    which feed `analytics.tauberian_constant` for k = 2, 3.
    """
    if n < 3:
        raise ValueError("corank-2 closed form needs n >= 3")
    a = Fraction(3 * n * n - 17 * n + 36, 12) * binomial(n - 1, 2)
    if a.denominator != 1:
        raise ArithmeticError("corank-2 leading coefficient is not integral")
    return int(a), 3 * binomial(n - 1, 3)


def corank3_formula_coefficients(n: int) -> tuple[int, int]:
    """(c(n), d(n)) of the displayed form
    h_{n,3}(p^e) = c(n) g_4(p^e) + d(n) sum_{j=2}^{e-1} (j-1) g_3(p^j).

    These are the displayed coefficients c(n) = (n^3 - 11n^2 + 40n - 40)/8
    C(n-1, 3) and d(n) = (3n - 5) C(n-1, 4).  They equal the exact C(n, 4) and
    10 C(n, 5) of `formula_h` only for n <= 5, and the displayed form (with
    its (j-1) weight and no three-pair term) is exact only for n <= 4.  They
    are still used by `analytics._corank3_deviation`, which feeds
    `analytics.tauberian_constant` for k = 3.
    """
    if n < 4:
        raise ValueError("corank-3 closed form needs n >= 4")
    c = Fraction(n**3 - 11 * n * n + 40 * n - 40, 8) * binomial(n - 1, 3)
    if c.denominator != 1:
        raise ArithmeticError("corank-3 leading coefficient is not integral")
    return int(c), (3 * n - 5) * binomial(n - 1, 4)


def displayed_formula_h(n: int, k: int, p: int, e: int) -> int:
    """The displayed corank-k form for k in {2, 3}, from the coefficient functions:

        a(n) g_3(p^e) + b(n) (e-1)                            (k = 2, e >= 2)
        c(n) g_4(p^e) + d(n) sum_{j=2}^{e-1} (j-1) g_3(p^j)   (k = 3, e >= 3)

    Exact only for n <= 4; kept as the record that enumeration refutes it
    from n = 5 on.  `formula_h` gives the exact counts.
    """
    if k not in (2, 3):
        raise ValueError("displayed forms exist only for corank 2, 3")
    if e < k:
        raise ValueError(f"displayed form for corank {k} needs e >= {k}")
    if k == 2:
        a, b = corank2_formula_coefficients(n)
        return a * irreducible_count(3, p, e) + b * (e - 1)
    c, d = corank3_formula_coefficients(n)
    weighted = sum((j - 1) * irreducible_count(3, p, j) for j in range(2, e))
    return c * irreducible_count(4, p, e) + d * weighted


def formula_h(n: int, k: int, p: int, e: int) -> int:
    """Closed-form h_{n,k}(p^e) for k in {1, 2, 3}.

    Derivation (R. Liu, "Counting subrings of Z^n of index k", JCTA 114,
    2007): a subring of Z_p^n of p-power index splits uniquely into
    irreducible subrings over a set partition of the coordinates.  An
    irreducible subring of Z^m of index > 1 lies in Z 1 + p Z^m, so its
    cokernel has rank exactly m - 1; a block of size 1 is Z itself.  Corank
    therefore adds over the blocks, and corank k means a partition into
    n - k blocks, with the index p^e split among the blocks of size >= 2.
    With g_2(p^j) = 1 for j >= 1 this gives

        h_{n,1}(p^e) = C(n,2)
        h_{n,2}(p^e) = C(n,3) g_3(p^e) + 3 C(n,4) (e-1)
        h_{n,3}(p^e) = C(n,4) g_4(p^e) + 10 C(n,5) sum_{j=2}^{e-1} g_3(p^j)
                       + 15 C(n,6) C(e-1,2)

    (one triple or two pairs for k = 2; one quadruple, a triple and a pair,
    or three pairs for k = 3).  The displayed forms of
    `corank2_formula_coefficients` and `corank3_formula_coefficients` agree
    with these only for n <= 4.

    Domain guards follow the closed forms' hypotheses: e >= 1 for k = 1,
    e >= 2 for k = 2, e >= 3 for k = 3, and n > k throughout.  Below these
    the census is authoritative and this function refuses to answer.
    """
    if k not in (1, 2, 3):
        raise ValueError("closed forms exist only for corank 1, 2, 3")
    if n <= k:
        raise ValueError("need n > k")
    if e < k:
        raise ValueError(f"closed form for corank {k} needs e >= {k}")
    if k == 1:
        return binomial(n, 2)
    if k == 2:
        return binomial(n, 3) * irreducible_count(3, p, e) + 3 * binomial(n, 4) * (e - 1)
    triple_pair = sum(irreducible_count(3, p, j) for j in range(2, e))
    return (
        binomial(n, 4) * irreducible_count(4, p, e)
        + 10 * binomial(n, 5) * triple_pair
        + 15 * binomial(n, 6) * binomial(e - 1, 2)
    )


def sandwich_bounds(n: int, k: int, p: int, e: int) -> tuple[int, int]:
    """Lower and upper bounds for h_{n,k}(p^e) from the irreducible counts:

        C(n-1, k) g_{k+1}(p^e) <= h_{n,k}(p^e) <= (n-k)^k C(n-1, k) g_{k+1}(p^e)
    """
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    g = irreducible_count(k + 1, p, e)
    lo = binomial(n - 1, k) * g
    return lo, (n - k) ** k * lo


def smallest_prime_factors(limit: int) -> list[int]:
    """Sieve of smallest prime factors for 0..limit."""
    spf = list(range(limit + 1))
    i = 2
    while i * i <= limit:
        if spf[i] == i:
            for j in range(i * i, limit + 1, i):
                if spf[j] == j:
                    spf[j] = i
        i += 1
    return spf


def multiplicative_table(limit: int, prime_power_value) -> list[int]:
    """values[j] for 1 <= j <= limit of the multiplicative function determined
    by prime_power_value(p, e); values[0] is unused."""
    spf = smallest_prime_factors(limit)
    values = [0] * (limit + 1)
    if limit >= 1:
        values[1] = 1
    missing: list[tuple[int, int]] = []
    cache: dict[tuple[int, int], int] = {}

    def local(p: int, e: int) -> int:
        key = (p, e)
        if key not in cache:
            try:
                cache[key] = prime_power_value(p, e)
            except KeyError:
                missing.append(key)
                cache[key] = 0
        return cache[key]

    for j in range(2, limit + 1):
        p = spf[j]
        m = j
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        values[j] = values[m] * local(p, e) if m > 1 else local(p, e)
    if missing:
        raise MissingCensusError([(0, p, e) for p, e in sorted(set(missing))])
    return values


def lattice_prime_power_count(n: int, p: int, e: int) -> int:
    """Number of rank-n Hermite-form matrices with determinant p^e.

    Coefficient of x^e in prod_{i=0}^{n-1} 1/(1 - p^i x): each diagonal
    divisor chain contributes the product of row counts, no enumeration.
    """
    coeffs = [0] * (e + 1)
    coeffs[0] = 1
    for i in range(n):
        w = p**i
        for j in range(1, e + 1):
            coeffs[j] += coeffs[j - 1] * w
    return coeffs[e]


@dataclass
class ExtendedCounts:
    """Exact Dirichlet coefficients of Z^n counts up to a bound X.

    f[j] counts subrings of index j; h_tilde[k][j] counts those of corank at
    most k; lattice[j] counts sublattices of index j.  Partial-sum helpers
    follow the source conventions: subring and lattice accumulations are
    strict (index < X), corank accumulations are inclusive (index <= X).
    """

    n: int
    limit: int
    f: list[int]
    h_tilde: dict[int, list[int]]
    lattice: list[int] = field(repr=False, default_factory=list)

    def subring_partial_sum(self, x: int) -> int:
        return sum(self.f[1 : min(x, self.limit + 1)])

    def corank_partial_sum(self, k: int, x: int) -> int:
        return sum(self.h_tilde[k][1 : min(x, self.limit) + 1])

    def lattice_partial_sum(self, x: int) -> int:
        return sum(self.lattice[1 : min(x, self.limit + 1)])


def multiplicative_extend(
    n: int,
    limit: int,
    ledger: CountLedger,
    coranks: tuple[int, ...] = (),
    compute: bool = True,
    node_budget: int = 10**9,
) -> ExtendedCounts:
    """Extend prime-power censuses multiplicatively to every index <= limit.

    With compute=False, absent census records are reported (all of them, in a
    MissingCensusError) instead of being enumerated on demand.
    """
    missing: list[tuple[int, int, int]] = []

    def f_source(p: int, e: int) -> int:
        if not compute and ledger.cached(n, p, e) is None:
            missing.append((n, p, e))
            raise KeyError
        return ledger.census(n, p, e, node_budget=node_budget).f_count

    try:
        f = multiplicative_table(limit, f_source)
    except MissingCensusError:
        raise MissingCensusError(missing) from None

    h_tables: dict[int, list[int]] = {}
    for k in coranks:

        def ht_source(p: int, e: int, k: int = k) -> int:
            return ledger.census(n, p, e, node_budget=node_budget).h_tilde(k)

        h_tables[k] = multiplicative_table(limit, ht_source)

    lattice = multiplicative_table(limit, lambda p, e: lattice_prime_power_count(n, p, e))
    return ExtendedCounts(n=n, limit=limit, f=f, h_tilde=h_tables, lattice=lattice)
