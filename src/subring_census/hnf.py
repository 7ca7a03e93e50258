"""Hermite-form integer matrices, Smith normal form, cotypes and coranks.

A matrix here is square, upper triangular with positive diagonal, and
row-reduced: 0 <= a[i][j] < a[i][i] for j > i.  Its column span is a
finite-index sublattice of Z^n of index det(A).  When the span contains
(1,...,1) and is closed under the componentwise product, the span is a
subring of Z^n and the matrix is called a subring matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence, TextIO


@dataclass(frozen=True)
class HnfMatrix:
    """Square integer matrix in (column-span) Hermite normal form."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        if n == 0:
            raise ValueError("matrix must be nonempty")
        for i, row in enumerate(self.entries):
            if len(row) != n:
                raise ValueError("matrix must be square")
            if row[i] <= 0:
                raise ValueError("diagonal entries must be positive")
            for j in range(n):
                if j < i and row[j] != 0:
                    raise ValueError("matrix must be upper triangular")
                if j > i and not 0 <= row[j] < row[i]:
                    raise ValueError("off-diagonal entries must satisfy 0 <= a_ij < a_ii")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "HnfMatrix":
        return cls(tuple(tuple(int(v) for v in row) for row in rows))

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(self.n))

    def det(self) -> int:
        return math.prod(self.diagonal)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i][j] for i in range(self.n))


def _solve_rows(rows: Sequence[Sequence[int]], w: Sequence[int]) -> tuple[int, ...] | None:
    """Back-substitute A c = w bottom-up; None when some pivot division fails."""
    n = len(rows)
    c = [0] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        s = w[i]
        for j in range(i + 1, n):
            cj = c[j]
            if cj:
                s -= row[j] * cj
        q, r = divmod(s, row[i])
        if r:
            return None
        c[i] = q
    return tuple(c)


def hnf_from_columns(columns: Sequence[Sequence[int]]) -> HnfMatrix:
    """Hermite normal form of the lattice spanned by n linearly independent
    integer columns of length n.

    Rows are cleared bottom-up: at row i, gcd steps among columns 0..i (zero
    below row i) leave one of them nonzero there, which becomes column i.
    Then the entries right of each pivot are reduced mod the pivot, bottom
    row first, since reducing row i changes only the rows above it.
    """
    n = len(columns)
    cols = [list(c) for c in columns]
    for i in range(n - 1, -1, -1):
        while True:
            live = [j for j in range(i + 1) if cols[j][i]]
            if not live:
                raise ValueError("columns are linearly dependent")
            piv = min(live, key=lambda j: abs(cols[j][i]))
            pc = cols[piv]
            done = True
            for j in live:
                if j != piv:
                    q = cols[j][i] // pc[i]
                    cols[j] = [a - q * b for a, b in zip(cols[j], pc)]
                    done = done and not cols[j][i]
            if done:
                break
        cols[i], cols[piv] = cols[piv], cols[i]
        if cols[i][i] < 0:
            cols[i] = [-a for a in cols[i]]
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            q = cols[j][i] // cols[i][i]
            if q:
                cols[j] = [a - q * b for a, b in zip(cols[j], cols[i])]
    return HnfMatrix(tuple(tuple(col[i] for col in cols) for i in range(n)))


def membership(a: HnfMatrix, w: Sequence[int]) -> tuple[int, ...] | None:
    """Integer coefficients c with A c = w, or None when w is not in col(A).

    The solution is unique when it exists because det(A) != 0; it is found by
    bottom-up back-substitution with a divisibility check at each pivot.
    """
    if len(w) != a.n:
        raise ValueError(f"vector has length {len(w)}, expected {a.n}")
    return _solve_rows(a.entries, w)


def identity_in_span(rows: Sequence[Sequence[int]]) -> bool:
    return _solve_rows(rows, (1,) * len(rows)) is not None


def products_in_span(rows: Sequence[Sequence[int]]) -> bool:
    """Componentwise products of all column pairs lie in the column span."""
    n = len(rows)
    cols = list(zip(*rows))
    for a in range(n):
        ca = cols[a]
        for b in range(a, n):
            cb = cols[b]
            w = tuple(x * y for x, y in zip(ca, cb))
            if _solve_rows(rows, w) is None:
                return False
    return True


def is_subring_rows(rows: Sequence[Sequence[int]]) -> bool:
    """Definitional subring certificate on raw rows (identity + closure)."""
    return identity_in_span(rows) and products_in_span(rows)


def is_subring_matrix(a: HnfMatrix) -> bool:
    """True iff (1,...,1) and all pairwise column products lie in col(A)."""
    return is_subring_rows(a.entries)


def is_irreducible_rows(rows: Sequence[Sequence[int]], p: int) -> bool:
    """Matrix-level irreducibility: last column all ones, others 0 mod p.

    The library selects irreducible subrings by corank n-1 alone; this
    independent criterion is the oracle tests compare that selection with.
    """
    n = len(rows)
    for i in range(n):
        if rows[i][n - 1] != 1:
            return False
        for j in range(min(i, n - 1), n - 1):
            if rows[i][j] % p:
                return False
    return True


@dataclass(frozen=True)
class Cotype:
    """Invariant factors of the cokernel, each divisible by its successor.

    The tuple has n-1 slots (the leading invariant factor of a subring
    cokernel is always trivial and is dropped); trailing entries may be 1.
    """

    alphas: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(a < 1 for a in self.alphas):
            raise ValueError("invariant factors must be positive")
        for a, b in zip(self.alphas, self.alphas[1:]):
            if a % b:
                raise ValueError("each invariant factor must be divisible by the next")

    @property
    def index(self) -> int:
        return math.prod(self.alphas)

    @property
    def corank(self) -> int:
        return sum(1 for a in self.alphas if a > 1)

    def exponents(self, p: int) -> tuple[int, ...]:
        """p-adic valuations of the invariant factors (requires p-power entries)."""
        out = []
        for a in self.alphas:
            e = 0
            while a % p == 0:
                a //= p
                e += 1
            if a != 1:
                raise ValueError("invariant factor is not a power of the given prime")
            out.append(e)
        return tuple(out)

    def __str__(self) -> str:
        return ",".join(str(a) for a in self.alphas)


def smith_normal_form(a: HnfMatrix | Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Diagonal of the Smith normal form, ascending: s1 | s2 | ... | sn.

    a is an HnfMatrix or the rows of any square nonsingular integer matrix;
    the rows are copied, not changed.  Gcd-based row/column elimination.
    Pivot: smallest nonzero absolute value in the working submatrix, ties
    broken by lowest (row, col), so the reduction trace is deterministic.
    """
    m = [list(row) for row in (a.entries if isinstance(a, HnfMatrix) else a)]
    n = len(m)
    diag: list[int] = []
    for t in range(n):
        while True:
            pi, pj, pv = -1, -1, 0
            for i in range(t, n):
                mi = m[i]
                for j in range(t, n):
                    v = mi[j]
                    if v and (pv == 0 or abs(v) < abs(pv)):
                        pi, pj, pv = i, j, v
            if pv == 0:
                raise ValueError("matrix is singular")
            if pi != t:
                m[t], m[pi] = m[pi], m[t]
            if pj != t:
                for row in m:
                    row[t], row[pj] = row[pj], row[t]
            if m[t][t] < 0:
                m[t] = [-v for v in m[t]]
            pivot = m[t][t]
            clean = True
            for i in range(t + 1, n):
                q = m[i][t] // pivot
                if q:
                    mt = m[t]
                    m[i] = [v - q * w for v, w in zip(m[i], mt)]
                if m[i][t]:
                    clean = False
            for j in range(t + 1, n):
                q = m[t][j] // pivot
                if q:
                    for i in range(t, n):
                        m[i][j] -= q * m[i][t]
                if m[t][j]:
                    clean = False
            if not clean:
                continue
            offender = None
            for i in range(t + 1, n):
                mi = m[i]
                for j in range(t + 1, n):
                    if mi[j] % pivot:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            mt = m[t]
            m[t] = [v + w for v, w in zip(mt, m[offender])]
        diag.append(m[t][t])
    return tuple(diag)


def _det_bareiss(m: list[list[int]]) -> int:
    """Exact determinant by fraction-free elimination."""
    n = len(m)
    if n == 1:
        return m[0][0]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pkk = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            mi = m[i]
            mk = m[k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * pkk - mik * mk[j]) // prev
        prev = pkk
    return sign * m[n - 1][n - 1]


def snf_oracle_minor_gcds(a: HnfMatrix) -> tuple[int, ...]:
    """Smith diagonal recovered from gcds of k x k minors; exponential, n <= 6.

    Independent of the elimination path: s1...sk equals the gcd of all k x k
    minors, so sk is a ratio of successive minor gcds.  Minors with any row
    index exceeding its column index vanish (upper triangularity) and are
    skipped; the scan of size-k minors stops early once the running gcd
    reaches the previous level's gcd, which is its minimum possible value.
    """
    n = a.n
    if n > 6:
        raise ValueError("minor-gcd oracle is limited to n <= 6")
    rows = a.entries
    prev = 1
    out: list[int] = []
    for size in range(1, n + 1):
        g = 0
        done = False
        for rsel in combinations(range(n), size):
            for csel in combinations(range(n), size):
                if any(r > c for r, c in zip(rsel, csel)):
                    continue
                sub = [[rows[i][j] for j in csel] for i in rsel]
                d = _det_bareiss(sub)
                if d:
                    g = math.gcd(g, d)
                    if g == prev:
                        done = True
                        break
            if done:
                break
        if g == 0:
            raise ValueError("matrix is singular")
        out.append(g // prev)
        prev = g
    return tuple(out)


@dataclass(frozen=True)
class SubringMatrix:
    """An HnfMatrix whose column span is a subring of Z^n.

    The plain constructor trusts its caller: the enumeration engines emit
    only matrices that already passed the definitional certificate.  Matrices
    from anywhere else go through `certify`.
    """

    hnf: HnfMatrix

    @classmethod
    def certify(cls, hnf: HnfMatrix) -> "SubringMatrix | None":
        """The checked constructor: None unless the span is a subring."""
        return cls(hnf) if is_subring_matrix(hnf) else None

    @property
    def n(self) -> int:
        return self.hnf.n

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        return self.hnf.entries

    @property
    def diagonal(self) -> tuple[int, ...]:
        return self.hnf.diagonal

    def det(self) -> int:
        return self.hnf.det()

    def cotype(self) -> Cotype:
        """Invariant factors of Z^n / col(A) in decreasing-divisibility order.

        The Smith diagonal is ascending (s1 | ... | sn with s1 = 1 forced by
        the unit entry); this reverses it and drops the trivial leading slot.
        """
        s = smith_normal_form(self.hnf)
        return Cotype(tuple(reversed(s[1:])))

    def corank(self) -> int:
        return self.cotype().corank


def _iroot(m: int, k: int) -> int:
    """Largest r with r^k <= m, for m >= 1: integer Newton steps from above."""
    r = 1 << -(-m.bit_length() // k)
    while True:
        y = ((k - 1) * r + m // r ** (k - 1)) // k
        if y >= r:
            return r
        r = y


def _prime_power_base(m: int) -> int | None:
    """Prime p with m = p^k (k >= 1), or None when m is 1 or not a prime power.

    m = r^k for the largest such k has a base r that is no perfect power,
    and m is a prime power iff that r is prime; only r is trial-divided.
    """
    if m <= 1:
        return None
    for k in range(m.bit_length(), 0, -1):
        r = _iroot(m, k)
        if r > 1 and r**k == m:
            break
    f = 2
    while f * f <= r:
        if r % f == 0:
            return None
        f += 1
    return r


def diagonal_support_corank(a: SubringMatrix) -> int:
    """Number of non-unit diagonal entries of a p-power-index subring matrix.

    For subring matrices this equals the corank; the analogous statement for
    general sublattices fails, so the caller must supply a certified subring
    matrix with prime-power determinant.
    """
    det = a.det()
    if det > 1:
        p = _prime_power_base(det)
        if p is None:
            raise ValueError("determinant is not a prime power")
    return sum(1 for d in a.diagonal if d > 1)


def canonical_rpstar(n: int, p: int) -> SubringMatrix:
    """The unique subring matrix with cotype (p, ..., p): diagonal
    (p,...,p,1), last column all ones, zeros elsewhere."""
    if n < 2:
        raise ValueError("need n >= 2")
    if p < 2:
        raise ValueError("p must be a prime >= 2")
    rows = []
    for i in range(n - 1):
        row = [0] * n
        row[i] = p
        row[n - 1] = 1
        rows.append(row)
    rows.append([0] * (n - 1) + [1])
    return SubringMatrix(HnfMatrix.from_rows(rows))


def dump_matrices(fh: TextIO, matrices: Iterable[HnfMatrix | SubringMatrix], p: int) -> int:
    """Write matrices in the text exchange format: 'n p' header then n rows."""
    count = 0
    for m in matrices:
        fh.write(f"{m.n} {p}\n")
        for row in m.entries:
            fh.write(" ".join(str(v) for v in row) + "\n")
        count += 1
    return count


def load_matrices(fh: TextIO) -> list[tuple[HnfMatrix, int]]:
    """Parse the text exchange format; returns (matrix, prime) records."""
    out: list[tuple[HnfMatrix, int]] = []
    lines = [ln.strip() for ln in fh if ln.strip()]
    pos = 0
    while pos < len(lines):
        head = lines[pos].split()
        if len(head) != 2:
            raise ValueError(f"bad record header: {lines[pos]!r}")
        n, p = int(head[0]), int(head[1])
        body = lines[pos + 1 : pos + 1 + n]
        if len(body) != n:
            raise ValueError(f"truncated record: header {lines[pos]!r} with {len(body)} rows")
        rows = [[int(v) for v in line.split()] for line in body]
        out.append((HnfMatrix.from_rows(rows), p))
        pos += 1 + n
    return out
