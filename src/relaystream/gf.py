"""GF(2^8) arithmetic and systematic MDS block codes with erasure decoding.

The field is fixed to GF(2^8) with reduction polynomial 0x11D (x^8 + x^4 +
x^3 + x^2 + 1), so symbols are bytes and block lengths up to 256 are
supported, far beyond anything the planner produces. Generators are
systematic Reed-Solomon matrices: a Vandermonde matrix over distinct
evaluation points, row-reduced so the first k columns form the identity.
Row reduction multiplies every k x k minor by the same nonzero constant,
so the MDS property of the Vandermonde matrix is preserved.

Decoding is plain Gaussian elimination over the received columns, cached
per erasure pattern, and forms only the message symbols asked for. Blocks
here are tiny (n <= ~40), so no structured RS decoder is warranted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence

FIELD_ORDER = 256
REDUCTION_POLY = 0x11D

# exp/log tables for the multiplicative group, generator 2 (primitive for 0x11D)
GF_EXP = [0] * 510
GF_LOG = [0] * 256


def _build_tables() -> None:
    x = 1
    for i in range(255):
        GF_EXP[i] = x
        GF_LOG[x] = i
        x <<= 1
        if x & 0x100:
            x ^= REDUCTION_POLY
    for i in range(255, 510):
        GF_EXP[i] = GF_EXP[i - 255]


_build_tables()


def gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return GF_EXP[GF_LOG[a] + GF_LOG[b]]


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("zero has no multiplicative inverse")
    return GF_EXP[255 - GF_LOG[a]]


def gf_pow(a: int, e: int) -> int:
    if e == 0:
        return 1
    if a == 0:
        return 0
    return GF_EXP[(GF_LOG[a] * e) % 255]


@dataclass(frozen=True)
class MdsSpec:
    """Systematic (n, k) MDS block code over GF(2^8).

    generator is k rows by n columns; the first k columns are the identity.
    Every k x k column submatrix is invertible, so any k received symbols
    determine the message and any n - k erasures are correctable.
    """

    n: int
    k: int
    generator: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not (0 <= self.k <= self.n):
            raise ValueError("need 0 <= k <= n")
        if len(self.generator) != self.k or any(len(r) != self.n for r in self.generator):
            raise ValueError("generator shape mismatch")

    @cached_property
    def parity_terms(self) -> tuple[tuple[int, tuple[tuple[int, int, list[int]], ...]], ...]:
        """Per parity column r >= k, (r, terms): column r is the XOR over
        (lag, j, table) of table[m], m being message symbol j, sent lag =
        r - j slots earlier, and table[x] = x * generator[j][r] (product
        tables, after Plank, Greenan and Miller, FAST 2013). Built on first
        use, so the tables live and go with the cached spec."""
        tables = {0: [0] * FIELD_ORDER}
        for c in {g for row in self.generator for g in row[self.k :]} - {0}:
            tables[c] = [0] + [GF_EXP[GF_LOG[c] + GF_LOG[x]] for x in range(1, FIELD_ORDER)]
        return tuple(
            (r, tuple((r - j, j, tables[self.generator[j][r]]) for j in range(self.k)))
            for r in range(self.k, self.n)
        )


@lru_cache(maxsize=None)
def make_mds(n: int, k: int) -> MdsSpec:
    """Systematic MDS generator for the given length and dimension.

    Vandermonde over the distinct points 0..n-1, row-reduced to systematic
    form. Fails if n exceeds the field order. Specs are immutable, so
    repeated component shapes share one cached instance.
    """
    if n > FIELD_ORDER:
        raise ValueError(f"block length {n} exceeds field order {FIELD_ORDER}")
    if k < 0 or k > n:
        raise ValueError("need 0 <= k <= n")
    if k == 0:
        return MdsSpec(n=n, k=0, generator=())
    rows = [[gf_pow(x, i) for x in range(n)] for i in range(k)]
    _row_reduce_to_systematic(rows, k)
    return MdsSpec(n=n, k=k, generator=tuple(tuple(r) for r in rows))


def _row_reduce_to_systematic(rows: list[list[int]], k: int) -> None:
    # Gauss-Jordan on the first k columns of k rows. They are invertible:
    # Vandermonde in make_mds, any k columns of an MDS generator in _inverse.
    for col in range(k):
        pivot = next(r for r in range(col, k) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = gf_inv(rows[col][col])
        rows[col] = [gf_mul(inv, v) for v in rows[col]]
        for r in range(k):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [v ^ gf_mul(f, w) for v, w in zip(rows[r], rows[col])]


class UnrecoverableError(Exception):
    """Raised when the erasure pattern exceeds the code's correction radius."""


def solve_erasures(
    spec: MdsSpec, received: Sequence[Optional[int]], wanted: Optional[Sequence[int]] = None
) -> tuple[int, ...]:
    """Recover message symbols from a word with erasures marked as None:
    the whole message, or the symbols at the indices ``wanted``, in that
    order. Each costs k products, so asking for only the missing ones
    saves the rest."""
    if len(received) != spec.n:
        raise ValueError("received length mismatch")
    present = [p for p, v in enumerate(received) if v is not None]
    if len(present) < spec.k:
        raise UnrecoverableError(
            f"{spec.n - len(present)} erasures exceed correction radius {spec.n - spec.k}"
        )
    cols = tuple(present[: spec.k])
    inverse = _inverse(spec, cols)
    # message symbol i is the XOR over r of y_r * inverse[r][i]; zeros add nothing
    terms = [(GF_LOG[y], row) for y, row in zip(map(received.__getitem__, cols), inverse) if y]
    message = []
    for i in range(spec.k) if wanted is None else wanted:
        acc = 0
        for log_y, row in terms:
            if row[i]:
                acc ^= GF_EXP[log_y + GF_LOG[row[i]]]
        message.append(acc)
    return tuple(message)


@lru_cache(maxsize=4096)
def _inverse(spec: MdsSpec, cols: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Inverse of G[:, cols], shared by every word that lost the same positions."""
    # Solve m . G[:, cols] = y: reducing [G[:, cols] | I] leaves the inverse on the right.
    a = [[spec.generator[i][c] for c in cols] + [0] * spec.k for i in range(spec.k)]
    for i in range(spec.k):
        a[i][spec.k + i] = 1
    _row_reduce_to_systematic(a, spec.k)
    return tuple(tuple(row[spec.k :]) for row in a)
