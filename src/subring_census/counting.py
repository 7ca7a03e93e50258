"""Censuses of subring matrices: exact counts, persistence, and closed forms.

A census record fixes (n, p, e) and holds the full cotype census, from
which its total, irreducible and per-corank counts are computed.  Records
are persisted in one append-only log per n, census-n{n}.jsonl, one line
{"checksum": sha256, "record": payload} per record in compact sorted-key
JSON, so long enumerations survive restarts, several processes can share a
directory, and the cache is auditable.  `CensusRecord.serialized` writes the
record's canonical bytes straight from its fields; the checksum is their
sha256.  A line is loaded only if its fields have the right types, its
(n, p, e) is a census cell, its stored counts are those of its cotypes, its
checksum matches and its n is the log's.  A load makes one pass over each
line's fields: one module-level json decoder parses the UTF-8 line,
`CensusRecord.from_payload` reads and tests each field once and builds the
record, and the checksum is taken over the record's canonical bytes, not the
line's, so a line in another JSON spelling of the same record loads too.
Loading the 2 328-line log of a Z^3 extension to 20 000 takes 15-23 us a
line (medians of in-process loads; CPython 3.11 on a 2-vCPU VM whose speed
drifts).  A census line is on disk when `census` returns, except inside the
walk of `multiplicative_extend`: there the line of a census that ran no
search is held, and goes out in one append with the line of the next census
that searches, or when the walk ends or raises.  So a crash loses only
lines that need no search to rebuild, and a cold extension over thousands
of prime cells makes about one write per searched cell.  Another process
does not see held lines until they are written, so it may rebuild such a
record and append an equal line, which is harmless: the later line for a
(p, e) replaces the earlier one.

A record is built from irreducible blocks, not by searching every diagonal.
A subring of p-power index splits uniquely into irreducible subrings over a
set partition of the coordinates, an irreducible block of size m and index
> 1 has corank m-1, and the cokernel is the direct sum of the blocks'
cokernels.  Trivial blocks Z add nothing to the index or the cotype, so
choosing the k coordinates of the other blocks (the core), then splitting
off the block that holds the core's first coordinate, gives

    F_n(e) = sum_{k <= min(n, 2e)} C(n, k) C_k(e)
    C_k(d) = sum_{m >= 2, j >= m-1} C(k-1, m-1) G_m(j) (x) C_{k-m}(d-j)

where F_n(e) is the cotype census of Z^n at index p^e, C_k(d) that of the
cores of Z^k (C_0(0) holds the empty core), G_m(j) that of its irreducible
subrings, and (x) merges the multisets of invariant factors.  G_m is empty
for j < m-1, so C_k(d) is empty past k = 2d.  G_2(j) has one member,
Z 1 + p^j Z^2, the matrix [[p^j, 1], [0, 1]]: it is built as that one leaf,
which spends its one search node and gets the leaf checks below, and is
not searched.  For m >= 3, G_m(j) is counted at the leaves of
the pruned search on full-support diagonals (corank m-1), through
`enumeration.visit_subrings`, with no matrix list.  At every leaf the
matrix's last column is checked to be all ones, its cotype is taken
from the invariant factors of its live (m-1) x (m-1) block (`_block_cotype`:
closed-form determinantal divisors up to 4 x 4, the elimination Smith form
beyond), and its live rows get the structural check.  A G_m(j) search keeps
one tally keyed by those factors, so each distinct cotype is validated once,
at its first leaf; every matrix is still checked.
`census(recheck=True)` still enumerates every diagonal of Z^n, G_2's
included, certifies every leaf in full, takes full Smith forms by
elimination and compares, so it stays the independent check, by a different
algorithm for m <= 5.
Per-corank counts h_{n,k}(p^e) are read off the record's cotype census, as
`h_counts[k]`, which sums the cotypes of corank k.

Composite-index counts are never enumerated: they are reconstructed
multiplicatively from the prime-power records.
"""

from __future__ import annotations

import fcntl
import functools
import hashlib
import json
import math
import os
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from . import hnf
from .catalog import irreducible_count
from .combinatorics import binomial, is_prime
from .enumeration import (
    ENGINE_VERSION,
    BudgetExceededError,
    EnumSpec,
    NodeBudget,
    PruneRuleSet,
    check_cell,
    enumerate_subrings,
    print_progress,
    visit_subrings,
)
from .hnf import Cotype, SubringMatrix
# not called here; perfbench/tracing.py wraps it as a call site of this module
from .hnf import diagonal_support_corank  # noqa: F401


class CensusValidationError(RuntimeError):
    """An enumerated matrix violated a structural invariant."""


class MissingCensusError(KeyError):
    """Multiplicative extension lacks required prime-power records."""

    def __init__(self, missing: list[tuple[int, int, int]]):
        self.missing = sorted(missing)
        pretty = ", ".join(f"(n={n}, p={p}, e={e})" for n, p, e in self.missing)
        super().__init__(f"missing census records: {pretty}")


def _int(value, name: str) -> int:
    """value if it is an int and not a bool, else TypeError."""
    if type(value) is not int:
        raise TypeError(f"{name} = {value!r} is not an integer")
    return value


def _str(value, name: str) -> str:
    """value if it is a str, else TypeError."""
    if type(value) is not str:
        raise TypeError(f"{name} = {value!r} is not a string")
    return value


# the search mode and pruning rules of every record built here; a ledger
# serves only records of these rules and ENGINE_VERSION
RECORD_MODE = "pruned"
RECORD_RULES = PruneRuleSet().fingerprint()

# the parser of every log line; json.loads would first detect the encoding
_decode = json.JSONDecoder().decode

# json.dumps of a provenance string (mode, rules, engine), memoized: a ledger
# holds a handful of distinct ones, each escaped once
_json_string = functools.lru_cache(maxsize=64)(json.dumps)


@dataclass(frozen=True, slots=True)
class CensusRecord:
    """Exact counts of the subring matrices of Z^n with determinant p^e.

    The cotype census is the one count held: at construction h_counts[k]
    sums the cotypes of corank k, f_count all of them and g_count is
    h_counts[n-1] (irreducible means corank n-1).  Construction raises
    CensusValidationError unless (n, p, e) is a census cell (the rule of
    `enumeration.check_cell`), no count is negative and each key is a chain
    of n-1 positive factors, each divisible by the next, with product p^e.

    A record is immutable (assigning to a field raises
    dataclasses.FrozenInstanceError) and keeps its ten fields in slots.
    `==` compares the seven given fields only; the three computed ones
    follow from them.  The one `__init__` validates and then sets all ten
    through their slot setters: a one-cotype Z^3 record takes about 1.9 us
    against 3.1 us for a generated frozen `__init__` and `__post_init__`,
    and a cold extension builds one record per cell, its replay one per
    line.
    """

    n: int
    p: int
    e: int
    cotype_counts: dict[tuple[int, ...], int]
    mode: str
    rules: str
    engine_version: str
    h_counts: tuple[int, ...] = field(init=False, compare=False)
    f_count: int = field(init=False, compare=False)
    g_count: int = field(init=False, compare=False)

    def __init__(
        self,
        n: int,
        p: int,
        e: int,
        cotype_counts: dict[tuple[int, ...], int],
        mode: str,
        rules: str,
        engine_version: str,
    ) -> None:
        try:
            check_cell(n, p, e)
        except ValueError as exc:
            msg = f"(n={n}, p={p}, e={e}) is not a census cell: {exc}"
            raise CensusValidationError(msg) from None
        h = [0] * n
        for key, count in cotype_counts.items():
            if len(key) != n - 1:
                raise CensusValidationError(f"cotype {key} does not have n-1 = {n - 1} factors")
            if count < 0:
                raise CensusValidationError("negative cotype count")
            # one pass from the last factor: each is at least 1 and divides
            # the one before it.  Their product is p^e when the first factor
            # (divisible by every other) is a power of p and the exponents of
            # p sum to e, which dividing out p tests without building p^e
            prev, corank, exponent, rest = 1, 0, 0, 1
            for a in reversed(key):
                if a < prev or a % prev:
                    raise CensusValidationError(
                        f"cotype {key} is not a chain of positive factors, "
                        "each divisible by the next"
                    )
                prev = rest = a
                if a > 1:
                    corank += 1
                    while rest % p == 0:
                        rest //= p
                        exponent += 1
            if rest != 1 or exponent != e:
                raise CensusValidationError("cotype index does not match p^e")
            h[corank] += count
        _set_n(self, n)
        _set_p(self, p)
        _set_e(self, e)
        _set_cotypes(self, cotype_counts)
        _set_mode(self, mode)
        _set_rules(self, rules)
        _set_engine(self, engine_version)
        _set_h(self, tuple(h))
        _set_f(self, sum(h))
        _set_g(self, h[n - 1])

    def h_tilde(self, k: int) -> int:
        """Count of subrings with corank at most k, for 0 <= k < n."""
        if not 0 <= k < self.n:
            raise ValueError(f"corank {k} is outside 0..{self.n - 1}")
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

    def serialized(self) -> bytes:
        """The payload as compact sorted-key JSON, as the log stores it:
        json.dumps(payload(), sort_keys=True, separators=(",", ":")), written
        straight from the fields, which are ints and strings (`from_payload`
        admits no other types).

        Cotype entries are sorted as whole '"key":count' strings.  The
        closing quote sorts before every digit, comma and minus sign, so
        this orders the keys as strings, as json does ("16,1" < "4,4" <
        "8,2").  The provenance strings get json's escaping from
        `_json_string`, a memo of json.dumps, so each distinct string is
        escaped once, not once per record.
        """
        dumps = _json_string
        cotypes = sorted(
            [f'"{",".join(map(str, key))}":{count}' for key, count in self.cotype_counts.items()]
        )
        return (
            f'{{"cotypes":{{{",".join(cotypes)}}},"e":{self.e},'
            f'"engine":{dumps(self.engine_version)},"f":{self.f_count},"g":{self.g_count},'
            f'"h":[{",".join(map(str, self.h_counts))}],"mode":{dumps(self.mode)},'
            f'"n":{self.n},"p":{self.p},"rules":{dumps(self.rules)}}}'
        ).encode()

    def checksum(self) -> str:
        return hashlib.sha256(self.serialized()).hexdigest()

    @classmethod
    def from_payload(cls, payload: dict) -> "CensusRecord":
        """The record of a payload dict.  n, p, e, f, g, every h entry and
        every cotype count must be ints (not bools) and mode, rules and
        engine strings, or TypeError; a cotype key that is not comma-joined
        integers raises ValueError.  The record is built from the cotypes
        (see the class docstring), and stored f, g and h that differ from
        those it computes raise CensusValidationError.

        Each field is read once, and the fields are read and tested in that
        order, so the first bad one raises; `_int` and `_str` are called
        only to raise.  A ledger load calls this once per line: about 4-7 us
        for a line of a Z^3 log, the record's construction included.  The
        scalar fields are read by one `if` each rather than by two list
        comprehensions over their names, which saves 0.9-1.4 us a line (17-18%
        in the median of 40 alternating rounds over the 2 328 payloads of a
        Z^3 log to 20 000; faster in 37 and 39 of 40 rounds, in two runs).
        """
        cotypes = {}
        for key, count in payload["cotypes"].items():
            # the one key of n = 1, the empty chain, is written as ""
            alphas = tuple(map(int, key.split(","))) if key else ()
            if type(count) is not int:
                _int(count, "cotype count")
            cotypes[alphas] = count
        if type(n := payload["n"]) is not int:
            _int(n, "n")
        if type(p := payload["p"]) is not int:
            _int(p, "p")
        if type(e := payload["e"]) is not int:
            _int(e, "e")
        if type(f := payload["f"]) is not int:
            _int(f, "f")
        if type(g := payload["g"]) is not int:
            _int(g, "g")
        h = tuple(payload["h"])
        for v in h:
            if type(v) is not int:
                _int(v, "h entry")
        if type(mode := payload["mode"]) is not str:
            _str(mode, "mode")
        if type(rules := payload["rules"]) is not str:
            _str(rules, "rules")
        if type(engine := payload["engine"]) is not str:
            _str(engine, "engine")
        # n is held to the stored h before the record sizes its own h by n
        if len(h) == n:
            record = cls(n, p, e, cotypes, mode, rules, engine)
            if f == record.f_count and g == record.g_count and h == record.h_counts:
                return record
        raise CensusValidationError("stored f, g and h disagree with the cotype census")

    def counts_equal(self, other: "CensusRecord") -> bool:
        return (self.n, self.p, self.e, self.cotype_counts) == (
            other.n, other.p, other.e, other.cotype_counts
        )


# the setters of CensusRecord's slots, in field order, for its __init__: the
# frozen class's own __setattr__ refuses every assignment, and a slot's
# setter passes it in about half the time of object.__setattr__
(
    _set_n, _set_p, _set_e, _set_cotypes, _set_mode, _set_rules, _set_engine,
    _set_h, _set_f, _set_g,
) = (CensusRecord.__dict__[f.name].__set__ for f in fields(CensusRecord))


def _structural_check(entries: Sequence[Sequence[int]], corank: int, index: int) -> None:
    """Per-matrix invariants every emitted subring matrix of index p^e must
    satisfy.

    entries are the rows of the matrix, corank its Smith-form corank, which
    the caller has computed, and index is p^e.  For a subring matrix of
    prime-power index the corank is the number of non-unit diagonal entries.
    """
    n = len(entries)
    last = n - 1
    support = []
    det = 1
    for i, row in enumerate(entries):
        d = row[i]
        det *= d
        if d > 1:
            support.append(i)
    if det != index:
        raise CensusValidationError(f"determinant is not {index} for {entries}")
    if corank != len(support):
        raise CensusValidationError(f"corank != diagonal support for {entries}")
    for row in entries:
        if row[last] not in (0, 1):
            raise CensusValidationError(f"last column entry outside {{0,1}} in {entries}")
    supp = set(support)
    for i in support:
        row = entries[i]
        ones = 0
        for j in range(i + 1, n):
            if j in supp:
                continue
            v = row[j]
            if v == 1:
                ones += 1
            elif v != 0:
                raise CensusValidationError(f"support row has entry outside {{0,1}} in {entries}")
        if ones != 1:
            raise CensusValidationError(f"support row without exactly one 1 in {entries}")
    for ai, i in enumerate(support):
        row = entries[i]
        one = row[last] == 1
        for j in support[ai + 1 :]:
            if (entries[j][last] == 1) != one and row[j] != 0:
                raise CensusValidationError(f"last-column pair rule violated in {entries}")


def _block_invariant_factors(block: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Invariant factors, ascending, of an s x s upper-triangular block with
    positive diagonal.

    The k-th factor is D_k / D_(k-1), D_k the gcd of the k x k minors.  The
    block is triangular, so D_s is the product of its diagonal, and for
    s <= 4 the orders 1, 2, s-1 and s cover every k: the minors are written
    out (for s = 4, the 20 2 x 2 minors with rows r1 < r2 and columns
    c1 < c2, r_i <= c_i, and the 10 cofactors of the upper-triangular
    adjugate).  Larger blocks take `hnf.smith_normal_form`.
    """
    s = len(block)
    gcd = math.gcd
    if s == 1:
        return (block[0][0],)
    if s == 2:
        (a, b), (_, d) = block
        d1 = gcd(a, b, d)
        return d1, a * d // d1
    if s == 3:
        (a, b, c), (_, d, e), (_, _, f) = block
        d1 = gcd(a, b, c, d, e, f)
        d2 = gcd(a * d, a * e, b * e - c * d, a * f, b * f, d * f)
        return d1, d2 // d1, a * d * f // d2
    if s == 4:
        (a, b, c, d), (_, e, f, g), (_, _, h, i), (_, _, _, j) = block
        d1 = gcd(a, b, c, d, e, f, g, h, i, j)
        fi_gh = f * i - g * h
        d2 = gcd(
            a * e, a * f, a * g, b * f - c * e, b * g - d * e, c * g - d * f,
            a * h, a * i, b * h, b * i, c * i - d * h, a * j, b * j, c * j,
            e * h, e * i, fi_gh, e * j, f * j, h * j,
        )
        d3 = gcd(
            e * h * j, a * h * j, a * e * j, a * e * h, b * h * j,
            j * (b * f - c * e), b * fi_gh - c * e * i + d * e * h,
            a * f * j, a * fi_gh, a * e * i,
        )
        return d1, d2 // d1, d3 // d2, a * e * h * j // d3
    # looked up on the module, whose attribute perfbench/tracing.py wraps
    return hnf.smith_normal_form(block)


def _block_cotype(rows: Sequence[Sequence[int]], block: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Invariant factors, ascending, of an irreducible subring matrix
    [[B, 1], [0, 1]] from its (m-1) x (m-1) block B; the cotype is their reverse.

    Subtracting the last row from the others turns the matrix into
    diag(B, 1), so these are B's invariant factors, from its determinantal
    divisors when m <= 5 (`_block_invariant_factors`).  `SubringMatrix.cotype`
    takes the full Smith form by elimination, the independent path that
    `build_record` keeps.  The last column is checked on every call.
    """
    for row in rows:
        if row[-1] != 1:
            raise CensusValidationError(f"last column entry is not 1 in {rows}")
    return _block_invariant_factors(block)


def _record_from_cotypes(
    n: int, p: int, e: int, cotypes: dict[tuple[int, ...], int]
) -> CensusRecord:
    """The census record of (n, p, e) with the given cotype census, built
    under this engine's mode and rules."""
    return CensusRecord(n, p, e, cotypes, RECORD_MODE, RECORD_RULES, ENGINE_VERSION)


def build_record(n: int, p: int, e: int, matrices: list[SubringMatrix]) -> CensusRecord:
    index = p**e
    cotypes: dict[tuple[int, ...], int] = {}
    for m in matrices:
        ct = m.cotype()
        _structural_check(m.entries, ct.corank, index)
        cotypes[ct.alphas] = cotypes.get(ct.alphas, 0) + 1
    return _record_from_cotypes(n, p, e, cotypes)


def _complete_length(fd: int, end: int) -> int:
    """Length of the first end bytes of the file open at fd, up to and
    including their last newline."""
    while end > 0:
        start = max(0, end - (1 << 16))
        tail = os.pread(fd, end - start, start)
        cut = tail.rfind(b"\n")
        if cut >= 0:
            return start + cut + 1
        end = start
    return 0


class CountLedger:
    """Cache of census records, optionally persisted as one append-only
    checksummed log per n (see `_store` and `_read_new`).

    Records are appended as whole lines under an exclusive flock, so several
    processes may share a directory.  A record's line is written before
    `census` returns, except during a `multiplicative_extend` walk, where the
    line of a census that ran no search is held until the next census that
    searches, or the end of the walk, writes it with its own (see `_store`).
    Until then another process does not see it and may append an equal line
    of its own; the later line replaces the earlier.  Reads take no lock and
    parse only the complete lines past what this ledger has already read.
    Every line's checksum, cell and counts are verified on load (its stored
    f, g and h must be those of its cotype census), and a malformed line
    raises a ValueError naming the file and line.  Only records of this engine
    version and pruning rules are served; any other is a miss, census
    appends a current line, and the later line for a (p, e) replaces an
    earlier one.

    A missed census is built from irreducible blocks (see the module
    docstring).  The irreducible cotype censuses G_m(j) are counted at the
    search leaves, without a matrix list (G_2(j) is built as its one leaf),
    each distinct cotype validated once, at its first leaf, and kept in
    memory for the life of the ledger, keyed by (m, p, j), so each is built
    once and shared across n and e; they are not persisted.
    The core censuses C_k(d) live for one census call only.
    census(recheck=True) enumerates every diagonal of Z^n instead.

    Where the pruning rules carry closure: G_m(j) is searched on
    full-support diagonals with every rule on, where the last column is set
    to ones rather than searched and the search certifies products by its
    block-entry checks and not at the leaf (see `enumeration.PruneRuleSet`),
    so a missed census trusts the rules to be complete.  census(recheck=True)
    certifies every leaf in full on the diagonals of Z^n whose support is
    not full, where each G_m(j) with m < n reappears, and takes full Smith
    forms; G_n(e) itself, on the full-support diagonals, is covered by the
    naive engine up to n = 4 and by the verify checks
    `invariants/permutation-closure/...` (coordinate symmetry).

    stats holds deterministic counters of census calls: hits (served from
    the cache), misses (built from blocks), rechecks (fully enumerated),
    irreducible_built and irreducible_reused (G_m(j) built, searched or
    not, or taken from memory).
    """

    def __init__(self, directory: str | Path | None = None):
        self.directory = Path(directory) if directory is not None else None
        self._records: dict[tuple[int, int, int], CensusRecord] = {}
        # per n: bytes of the log already parsed, and the lines in them
        self._read_upto: dict[int, tuple[int, int]] = {}
        self._paths: dict[int, str] = {}
        self._irreducible: dict[tuple[int, int, int], dict[tuple[int, ...], int]] = {}
        # per n: records kept but not yet written; held only while _holding,
        # during an extension walk, and until a census searches (_searched)
        self._held: dict[int, list[CensusRecord]] = {}
        self._holding = self._searched = False
        self.stats = dict.fromkeys(
            ("hits", "misses", "rechecks", "irreducible_built", "irreducible_reused"), 0
        )
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)

    def _file(self, n: int) -> str:
        """Path of the n-log, joined once per n."""
        path = self._paths.get(n)
        if path is None:
            assert self.directory is not None
            path = self._paths[n] = str(self.directory / f"census-n{n}.jsonl")
        return path

    def _parse_line(self, path: str, lineno: int, line: bytes) -> CensusRecord:
        """The verified record of one complete log line.

        The line is decoded as UTF-8, with the surrogatepass handler that
        json.loads uses, and parsed by one module-level `json.JSONDecoder`,
        which skips the encoding detection of json.loads on bytes (so a
        line behind a byte order mark is not JSON).  The file:line prefix
        of the ValueError is built only when the line is refused.
        """
        try:
            item = _decode(line.decode("utf-8", "surrogatepass"))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: not JSON ({exc})") from None
        if not isinstance(item, dict) or not {"record", "checksum"} <= item.keys():
            raise ValueError(f"{path}:{lineno}: not an object with record and checksum")
        try:
            record = CensusRecord.from_payload(item["record"])
        except CensusValidationError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: malformed record ({exc!r})") from None
        if record.checksum() != item["checksum"]:
            raise ValueError(f"{path}:{lineno}: checksum mismatch at e={record.e}")
        return record

    def _read_new(self, n: int) -> None:
        """Take in the complete lines appended to the n-log since the last read.

        A final line without its newline is still being written (or was torn
        by a writer that died), so it is left for a later read.
        """
        if self.directory is None:
            return
        path = self._file(n)
        offset, lines = self._read_upto.get(n, (0, 0))
        try:
            size = os.stat(path).st_size
        except FileNotFoundError:
            return
        if size == offset:
            return
        if size < offset:  # the log was replaced: read it afresh
            offset, lines = 0, 0
        with open(path, "rb") as fh:
            fh.seek(offset)
            chunk = fh.read(size - offset)
        complete = chunk[: chunk.rfind(b"\n") + 1]
        for line in complete.splitlines():
            lines += 1
            record = self._parse_line(path, lines, line)
            if record.n != n:
                raise ValueError(f"{path}:{lines}: record of n={record.n} in the log of n={n}")
            if record.engine_version == ENGINE_VERSION and record.rules == RECORD_RULES:
                self._records[(n, record.p, record.e)] = record
        self._read_upto[n] = (offset + len(complete), lines)

    def _store(self, record: CensusRecord) -> None:
        """Keep record, and append it to the n-log as one checksummed line.

        While `_holding` (the walk of `multiplicative_extend`) and no search
        has run since the last append, the record is held unwritten.
        Otherwise its line goes out at once, after those of the records of
        its n held before it, in one `_append`.
        """
        n = record.n
        self._records[(n, record.p, record.e)] = record
        if self.directory is None:
            return
        records = self._held.setdefault(n, [])
        records.append(record)
        if self._holding and not self._searched:
            return
        del self._held[n]
        self._searched = False
        self._append(n, records)

    def _write_held(self) -> None:
        """Stop holding, and append the lines of every held record."""
        self._holding = self._searched = False
        while self._held:
            self._append(*self._held.popitem())

    def _append(self, n: int, records: list[CensusRecord]) -> None:
        """Append the records' checksummed lines to the n-log in one write:
        the one writer of the log.

        The append holds an exclusive flock on the log.  Under it, a tail
        without a final newline can only be what a dead writer left, and is
        cut off before the lines go out in a single write.  The log's last
        byte is read only when its size differs from the bytes this ledger
        has parsed, which always end at a newline.
        """
        lines = []
        for record in records:
            body = record.serialized()
            digest = hashlib.sha256(body).hexdigest().encode()
            lines.append(b'{"checksum":"' + digest + b'","record":' + body + b"}\n")
        data = b"".join(lines)
        path = self._file(n)
        offset, count = self._read_upto.get(n, (0, 0))
        fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            size = os.fstat(fd).st_size
            if size != offset and size and os.pread(fd, 1, size - 1) != b"\n":
                size = _complete_length(fd, size)
                os.ftruncate(fd, size)
            if os.write(fd, data) != len(data):
                raise OSError(f"short append to {path}")
        finally:
            os.close(fd)
        if offset == size:
            self._read_upto[n] = (size + len(data), count + len(lines))

    def cached(self, n: int, p: int, e: int) -> CensusRecord | None:
        """The kept record of (n, p, e), or None; an invalid cell raises ValueError."""
        check_cell(n, p, e)
        return self._lookup(n, p, e)

    def _lookup(self, n: int, p: int, e: int) -> CensusRecord | None:
        key = (n, p, e)
        if key not in self._records:
            self._read_new(n)
        return self._records.get(key)

    def census(
        self,
        n: int,
        p: int,
        e: int,
        recheck: bool = False,
        progress: bool = False,
        budget: NodeBudget | None = None,
    ) -> CensusRecord:
        """Exact census at (n, p, e); cached unless recheck forces recomputation.

        A miss is built from irreducible blocks.  With recheck, a full
        enumeration of every diagonal is compared against the cached record
        and a mismatch raises (stale engine guard).  The searches of one call
        spend budget (see `enumeration.NodeBudget`), a fresh default one when
        None; exhaustion propagates as BudgetExceededError and nothing
        partial is stored.  A hit searches nothing.  An invalid cell raises
        ValueError before the lookup, so nothing is appended.
        """
        check_cell(n, p, e)
        cached = self._lookup(n, p, e)
        if recheck:
            self.stats["rechecks"] += 1
        elif cached is not None:
            self.stats["hits"] += 1
            return cached
        else:
            self.stats["misses"] += 1
        if budget is None:
            budget = NodeBudget()
        if recheck:
            matrices = enumerate_subrings(EnumSpec(n, p, e, progress=progress), budget)
            record = build_record(n, p, e, matrices)
        else:
            merged = self._merged_cotypes(n, p, e, progress, budget)
            cotypes = {key + (1,) * (n - 1 - len(key)): count for key, count in merged.items()}
            record = _record_from_cotypes(n, p, e, cotypes)
        if cached is not None:
            if not record.counts_equal(cached):
                raise CensusValidationError(
                    f"recheck mismatch at (n={n}, p={p}, e={e}): cache is stale"
                )
            if record == cached:  # the log already holds this line
                return cached
        self._store(record)
        return record

    def _merged_cotypes(
        self, n: int, p: int, e: int, progress: bool, budget: NodeBudget
    ) -> dict[tuple[int, ...], int]:
        """F_n(e) from the core censuses, keyed by the invariant factors > 1.
        Each step spends j >= 1, so the recursion is at most e + 1 deep.
        G_m(j) is looked up only when C_{k-m}(d-j) is non-empty.
        """
        memo: dict[tuple[int, int], dict[tuple[int, ...], int]] = {(0, 0): {(): 1}}

        def cores(k: int, d: int) -> dict[tuple[int, ...], int]:
            out = memo.get((k, d))
            if out is not None:
                return out
            out = {}
            for m in range(2, k + 1):
                ways = math.comb(k - 1, m - 1)
                for j in range(m - 1, d + 1):
                    rest = cores(k - m, d - j)
                    if not rest:
                        continue
                    block = self._irreducible_cotypes(m, p, j, progress, budget)
                    for a, ca in block.items():
                        for b, cb in rest.items():
                            key = tuple(sorted(a + b, reverse=True)) if b else a
                            out[key] = out.get(key, 0) + ways * ca * cb
            memo[(k, d)] = out
            return out

        try:
            merged: dict[tuple[int, ...], int] = {}
            for k in range(min(n, 2 * e) + 1):
                for key, count in cores(k, e).items():
                    merged[key] = merged.get(key, 0) + math.comb(n, k) * count
            return merged
        finally:
            # cores holds itself through its closure; dropping the name breaks
            # that cycle, so the memo is freed on return or on a raise
            del cores

    def _irreducible_cotypes(
        self, m: int, p: int, j: int, progress: bool, budget: NodeBudget
    ) -> dict[tuple[int, ...], int]:
        """G_m(j) for j >= m-1 >= 1: cotype census of the irreducible subrings
        of Z^m at index p^j, spending budget (its one leaf node for m = 2)."""
        key = (m, p, j)
        if key in self._irreducible:
            self.stats["irreducible_reused"] += 1
            return self._irreducible[key]
        # stored only once the search completes: a budget error leaves no
        # partial entry
        index = p**j
        tally: dict[tuple[int, ...], int] = {}  # leaves by ascending invariant factors

        def count(rows, block):
            factors = _block_cotype(rows, block)
            seen = tally.get(factors)
            if seen is None:  # validated once, before its corank is read
                Cotype(factors[::-1])
                seen = 0
            _structural_check(rows, len(factors) - factors.count(1), index)
            tally[factors] = seen + 1

        if m == 2:
            # Z^2 has one irreducible subring at index p^j, Z 1 + p^j Z^2: the
            # one leaf of the search on its one diagonal (j), built here with
            # that leaf's node and checks
            budget.used += 1
            if budget.used > budget.limit:
                raise BudgetExceededError(budget.used, budget.limit)
            count([[index, 1], [0, 1]], [[index]])
            if progress:
                print_progress(2, p, j, 1, 1, budget)
        else:
            self._searched = True  # so this census writes its line (see _store)
            visit_subrings(EnumSpec(m, p, j, corank=m - 1, progress=progress), count, budget)
        cotypes = {factors[::-1]: c for factors, c in tally.items()}
        self._irreducible[key] = cotypes
        self.stats["irreducible_built"] += 1
        return cotypes


def corank2_formula_coefficients(n: int) -> tuple[int, int]:
    """(a(n), b(n)) of the displayed form h_{n,2}(p^e) = a(n) g_3(p^e) + b(n) (e - 1).

    These are the displayed coefficients a(n) = (3n^2 - 17n + 36)/12 C(n-1, 2)
    and b(n) = 3 C(n-1, 3).  They equal the exact C(n, 3) and 3 C(n, 4) of
    `formula_h` only for n <= 4; from n = 5 on the displayed form is refuted
    by the census (the `corank-formulas` verify suite records this).  They
    are still used by `analytics._deviation`, which feeds
    `analytics.tauberian_constant` for k = 2, 3.
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
    are still used by `analytics._deviation`, which feeds
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

    Exact only for n <= 4; kept as the record that the census refutes it
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
    """Sieve of smallest prime factors for 0..limit.

    The primes up to sqrt(limit) mark their multiples from p^2 on, largest
    prime first, so the smallest prime dividing j is written last.
    """
    spf = list(range(limit + 1))
    root = math.isqrt(limit)
    small = [i for i in range(2, root + 1) if is_prime(i)]
    for p in reversed(small):
        spf[p * p :: p] = [p] * len(range(p * p, limit + 1, p))
    return spf


@dataclass(frozen=True)
class IndexSplit:
    """The indices 2..limit split at their smallest prime factor p.

    part[j] is the p-part of j, and prime_powers holds (q, p, e) for each
    prime power q = p^e <= limit in ascending order; every other j is
    part[j] * (j / part[j]) with both factors smaller than j.  One split
    serves every `multiplicative_table` over the same indices.
    """

    limit: int
    part: list[int]
    prime_powers: list[tuple[int, int, int]]

    @classmethod
    def of(cls, limit: int) -> "IndexSplit":
        spf = smallest_prime_factors(limit)
        # the p-part of j, p = spf[j], is p times that of j / p when p
        # divides j / p, and p otherwise
        part = list(range(limit + 1))
        prime_powers = []
        exponent = {1: 0}  # prime power -> its exponent
        for j in range(2, limit + 1):
            p = spf[j]
            r = j // p
            q = part[r] * p if spf[r] == p else p
            part[j] = q
            if q == j:
                e = exponent[r] + 1
                prime_powers.append((j, p, e))
                exponent[j] = e
        return cls(limit, part, prime_powers)


def multiplicative_table(split: IndexSplit, prime_power_value) -> list[int]:
    """values[j] for 1 <= j <= split.limit of the multiplicative function
    determined by prime_power_value(p, e); values[0] is unused.

    prime_power_value is called once per prime power p^e <= split.limit, in
    ascending order of p^e; every other j takes the product of the values
    at its p-part q (p its smallest prime factor) and at j / q.
    """
    limit = split.limit
    values = [0] * (limit + 1)
    if limit >= 1:
        values[1] = 1
    for q, p, e in split.prime_powers:
        values[q] = prime_power_value(p, e)
    part = split.part
    for j in range(2, limit + 1):
        q = part[j]
        if q != j:
            values[j] = values[q] * values[j // q]
    return values


def lattice_prime_power_count(n: int, p: int, e: int) -> int:
    """Number of rank-n Hermite-form matrices with determinant p^e.

    Coefficient of x^e in prod_{i=0}^{n-1} 1/(1 - p^i x): each diagonal
    divisor chain contributes the product of row counts, no enumeration.
    That coefficient is the Gaussian binomial [n+e-1, e]_p, taken as the
    product over i = 1..e of (p^(n-1+i) - 1) / (p^i - 1).  After step i the
    running value is [n-1+i, i]_p, an integer, so every division is exact;
    for n = 0 the first factor is 0, the empty product's x^e coefficient.
    """
    c = 1
    for i in range(1, e + 1):
        c = c * (p ** (n - 1 + i) - 1) // (p**i - 1)
    return c


@dataclass
class ExtendedCounts:
    """Exact Dirichlet coefficients of Z^n counts up to a bound X.

    f[j] counts subrings of index j; h_tilde[k][j] counts those of corank at
    most k; lattice[j] counts sublattices of index j; index 0 is unused.  A
    count over indices up to X is a slice sum, e.g. sum(f[1 : X + 1]).
    """

    n: int
    limit: int
    f: list[int]
    h_tilde: dict[int, list[int]]
    lattice: list[int] = field(repr=False, default_factory=list)


def multiplicative_extend(
    n: int,
    limit: int,
    ledger: CountLedger,
    coranks: tuple[int, ...] = (),
    compute: bool = True,
    budget: NodeBudget | None = None,
) -> ExtendedCounts:
    """Extend prime-power censuses multiplicatively to every index <= limit.

    Each prime-power record is fetched by one ledger.census call, in
    ascending order of p^e, and every table is built from the records kept,
    over one `IndexSplit` of the indices.  The table of corank at most n-1
    counts every subring, so it is a copy of f, not built again.
    On a persisted ledger, the line of a census in this walk that ran no
    search (most prime cells p > sqrt(limit), whose one block G_2 is built)
    is held, and reaches disk with the line of the next census that
    searches, or when the walk ends or raises; so a cold walk appends a few
    dozen times, not once per cell.  Until then another process does not
    see those lines, may rebuild their records and append equal lines,
    which is harmless: the later line for a (p, e) replaces the earlier.
    With compute=False, absent census records are reported (all of them, in a
    MissingCensusError) instead of being enumerated on demand.  budget is
    passed to every census call (see `enumeration.NodeBudget`): one budget
    bounds them together, and None starts a fresh default one for each.
    n must be an integer of at least 1, limit nonnegative and every corank
    in 0..n-1 (ValueError).
    """
    check_cell(n, 2, 0)
    if limit < 0:
        raise ValueError("need limit >= 0")
    if any(not 0 <= k < n for k in coranks):
        raise ValueError(f"coranks must lie in 0..{n - 1}")
    records: dict[tuple[int, int], CensusRecord] = {}
    missing: list[tuple[int, int, int]] = []

    def f_value(p: int, e: int) -> int:
        if not compute and ledger.cached(n, p, e) is None:
            missing.append((n, p, e))
            return 0
        record = records[(p, e)] = ledger.census(n, p, e, budget=budget)
        return record.f_count

    split = IndexSplit.of(limit)
    # censuses of the walk that run no search hold their lines, and every
    # held line is written when the walk ends or raises (CountLedger._store)
    ledger._holding, ledger._searched = True, False
    try:
        f = multiplicative_table(split, f_value)
    finally:
        ledger._write_held()
    if missing:
        raise MissingCensusError(missing)
    h_tilde = {
        k: list(f)
        if k == n - 1
        else multiplicative_table(split, lambda p, e, k=k: records[(p, e)].h_tilde(k))
        for k in coranks
    }
    lattice = multiplicative_table(split, lambda p, e: lattice_prime_power_count(n, p, e))
    return ExtendedCounts(n=n, limit=limit, f=f, h_tilde=h_tilde, lattice=lattice)
