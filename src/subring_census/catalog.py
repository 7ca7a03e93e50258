"""Catalog of the exact generating functions used throughout the package.

Variable conventions: multivariate cotype factors use x = p^{-s1},
y = p^{-s2}, z = p^{-s3}, one variable per invariant-factor slot of the
cotype (largest factor first); single-variable factors use x = p^{-s}.
All entries are stored pre-converted to these coordinates, with p formal.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from pathlib import Path

from .combinatorics import binomial
from .polynomials import ONE, MPoly, P, RatFunc, SeriesTable, X, Y, Z, expand

_DATA_DIR = Path(__file__).parent / "data"

def _coeff_term(text: str) -> tuple[int, int]:
    """Parse one coefficient term like '-14*p^2', 'p', or '5' -> (c, p-exp)."""
    m = re.fullmatch(r"([+-]?)(\d+)?(?:\*?(p)(?:\^(\d+))?)?", text)
    if not m or (m.group(2) is None and m.group(3) is None):
        raise ValueError(f"bad coefficient term {text!r}")
    sign = -1 if m.group(1) == "-" else 1
    c = int(m.group(2)) if m.group(2) else 1
    k = 0
    if m.group(3):
        k = int(m.group(4)) if m.group(4) else 1
    return sign * c, k


def parse_p_polynomial(text: str) -> MPoly:
    """Parse a coefficient-in-p expression from the data-file grammar."""
    squeezed = text.replace(" ", "")
    if not squeezed:
        raise ValueError("empty coefficient")
    pieces = re.findall(r"[+-]?[^+-]+", squeezed)
    if "".join(pieces) != squeezed:
        raise ValueError(f"cannot parse coefficient {text!r}")
    out = MPoly()
    for piece in pieces:
        c, k = _coeff_term(piece)
        out = out + MPoly.monomial(c, ep=k)
    return out


def _load_cotype_z4_numerator() -> MPoly:
    path = _DATA_DIR / "cotype_z4_numerator.txt"
    out = MPoly()
    seen: set[tuple[int, int, int]] = set()
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(None, 3)
        if len(fields) != 4:
            raise ValueError(f"bad table line: {line!r}")
        a, b, c = int(fields[0]), int(fields[1]), int(fields[2])
        if (a, b, c) in seen:
            raise ValueError(f"duplicate monomial in table: {(a, b, c)}")
        seen.add((a, b, c))
        coeff = parse_p_polynomial(fields[3])
        out = out + coeff * MPoly.monomial(1, 0, a, b, c)
    return out


def _product(*factors: MPoly) -> MPoly:
    out = ONE
    for f in factors:
        out = out * f
    return out


def _subring_local_z2() -> RatFunc:
    return RatFunc(ONE, ONE - X)


def _subring_local_z3() -> RatFunc:
    num = (ONE + X) ** 2
    den = _product(ONE - X, ONE - P * X**3)
    return RatFunc(num, den)


def _subring_local_z4() -> RatFunc:
    num = (
        ONE
        + 4 * X
        + 2 * X**2
        + (4 * P - 3) * X**3
        + (5 * P - 1) * X**4
        + (P**2 - 5 * P) * X**5
        + (3 * P**2 - 4 * P) * X**6
        - 2 * P**2 * X**7
        - 4 * P**2 * X**8
        - P**2 * X**9
    )
    den = _product((ONE - X) ** 2, ONE - P**2 * X**4, ONE - P**3 * X**6)
    return RatFunc(num, den)


def _irreducible_z3() -> RatFunc:
    num = X**2 + P * X**3 + 2 * P * X**4
    den = _product(ONE - X, ONE - P * X**3)
    return RatFunc(num, den)


def _irreducible_z4() -> RatFunc:
    body = (
        ONE
        + (P**2 + P - 1) * X
        + (5 * P**2 - P) * X**2
        + (P**3 + P**2 - P) * X**3
        + (7 * P**3 - 11 * P**2 + P) * X**4
        + (P**3 + P**2) * X**5
        + (3 * P**4 - 13 * P**3 + 3 * P**2) * X**6
        + (-(P**5) + 2 * P**3) * X**7
        + (-4 * P**5 - 6 * P**4 + 4 * P**3) * X**8
        + (-2 * P**5 + P**3) * X**9
        + (-3 * P**6 + 4 * P**5) * X**10
        + 6 * P**6 * X**12
    )
    num = X**3 * body
    den = _product(
        (ONE - X) ** 2,
        ONE - P * X**3,
        ONE - P**2 * X**4,
        ONE - P**3 * X**6,
    )
    return RatFunc(num, den)


def _cotype_z3() -> RatFunc:
    num = ONE + 2 * X - 2 * X**2 * Y - X**3 * Y
    den = _product(ONE - X, ONE - X * Y, ONE - P * X**2 * Y)
    return RatFunc(num, den)


def cotype_z4_denominator() -> MPoly:
    return _product(
        ONE - X,
        ONE - X * Y,
        ONE - X * Y * Z,
        ONE - P * X**2 * Y,
        ONE - P**2 * X**2 * Y * Z,
        ONE - P**2 * X**2 * Y**2 * Z,
        ONE - P**3 * X**3 * Y**2 * Z,
    )


def _cotype_z4() -> RatFunc:
    return RatFunc(_load_cotype_z4_numerator(), cotype_z4_denominator())


def _cocyclic_local(n: int) -> RatFunc:
    m = binomial(n, 2)
    return RatFunc(ONE + (m - 1) * X, ONE - X)


def _corank2_local(n: int) -> RatFunc:
    # h_{n,2}(p^e) = a g_3(p^e) + b (e-1) with the coefficients of formula_h
    a, b = binomial(n, 3), 3 * binomial(n, 4)
    m = binomial(n, 2)
    num = (
        ONE
        + (m - 2) * X
        + (a + b - m + 1) * X**2
        - a * X**3
        + (a - 1) * P * X**3
        + (a - m + 2) * P * X**4
        - (2 * a + b - m + 1) * P * X**5
    )
    den = _product((ONE - X) ** 2, ONE - P * X**3)
    return RatFunc(num, den)


def _corank2_local_z4() -> RatFunc:
    num = (
        ONE
        - 8 * X**2
        + 8 * X**3
        + 3 * P * X**3
        + 13 * X**4
        - 12 * P * X**4
        - 28 * X**5
        + 12 * P * X**5
        + 18 * X**6
        + 12 * P * X**6
        - 4 * X**7
        - 33 * P * X**7
        + 24 * P * X**8
        - 6 * P * X**9
    )
    den = _product((ONE - X) ** 6, ONE - P * X**3)
    return RatFunc(num, den)


def _lattice_local(n: int) -> RatFunc:
    den = ONE
    for i in range(n):
        den = den * (ONE - P**i * X)
    return RatFunc(ONE, den)


#: builder of each id accepted by :func:`catalog`, in documented order, and
#: whether it takes the dimension n.
_BUILDERS: dict[str, tuple[Callable[..., RatFunc], bool]] = {
    "subring_local_z2": (_subring_local_z2, False),
    "subring_local_z3": (_subring_local_z3, False),
    "subring_local_z4": (_subring_local_z4, False),
    "irreducible_z3": (_irreducible_z3, False),
    "irreducible_z4": (_irreducible_z4, False),
    "cotype_z2": (_subring_local_z2, False),
    "cotype_z3": (_cotype_z3, False),
    "cotype_z4": (_cotype_z4, False),
    "cocyclic_local": (_cocyclic_local, True),
    "corank2_local": (_corank2_local, True),
    "corank2_local_z4": (_corank2_local_z4, False),
    "lattice_local": (_lattice_local, True),
}

CATALOG_IDS = tuple(_BUILDERS)


def catalog(entry_id: str, n: int | None = None) -> RatFunc:
    """Exact rational function for a documented catalog id.

    Parameterized entries ('cocyclic_local', 'corank2_local', 'lattice_local')
    require the dimension n; all others reject it.
    """
    if entry_id not in _BUILDERS:
        raise KeyError(f"unknown catalog id {entry_id!r}")
    builder, takes_n = _BUILDERS[entry_id]
    if takes_n:
        if n is None:
            raise ValueError(f"catalog entry {entry_id!r} needs the dimension n")
        return builder(n)
    if n is not None:
        raise ValueError(f"catalog entry {entry_id!r} does not take a dimension")
    return builder()


_SERIES_CACHE: dict[tuple[str, int], SeriesTable] = {}


def _cached_series(entry_id: str, max_e: int) -> SeriesTable:
    """Single-variable expansion cache, grown in powers of two."""
    want = max(8, max_e)
    for (eid, bound), table in _SERIES_CACHE.items():
        if eid == entry_id and bound >= want:
            return table
    bound = 8
    while bound < want:
        bound *= 2
    table = expand(catalog(entry_id), (bound, 0, 0))
    _SERIES_CACHE[(entry_id, bound)] = table
    return table


def irreducible_count(n: int, p: int, e: int) -> int:
    """g_n(p^e) for n in {2, 3, 4}: irreducible subrings of Z^n of index p^e.

    n = 2 has exactly one irreducible subring per positive index (and none at
    index 1); n = 3 and 4 come from the catalogued series.
    """
    if e < 0:
        raise ValueError("need e >= 0")
    if n == 2:
        return 1 if e >= 1 else 0
    if n == 3:
        return _cached_series("irreducible_z3", e).x_coefficient_at(e, p)
    if n == 4:
        return _cached_series("irreducible_z4", e).x_coefficient_at(e, p)
    raise ValueError("irreducible counts are catalogued only for n <= 4")


def irreducible_count_poly(n: int, e: int) -> MPoly:
    """g_n(p^e) as an exact polynomial in p, for n in {3, 4}."""
    if n == 3:
        return _cached_series("irreducible_z3", e).x_coefficient(e)
    if n == 4:
        return _cached_series("irreducible_z4", e).x_coefficient(e)
    raise ValueError("polynomial irreducible counts are catalogued only for n in {3, 4}")


def subring_count_series(n: int, p: int, e: int) -> int:
    """f_n(p^e) for n in {2, 3, 4} from the catalogued local factors."""
    if n == 2:
        return 1
    if n == 3:
        return _cached_series("subring_local_z3", e).x_coefficient_at(e, p)
    if n == 4:
        return _cached_series("subring_local_z4", e).x_coefficient_at(e, p)
    raise ValueError("subring counts are catalogued only for n <= 4")
