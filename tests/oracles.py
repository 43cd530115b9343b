"""Independent oracles shared by the tests: field multiplication without
the library's tables, and rank and determination by plain elimination."""


def slow_mul(a: int, b: int) -> int:
    # carry-less polynomial multiplication reduced mod 0x11D, no tables
    acc = 0
    for bit in range(8):
        if b & (1 << bit):
            acc ^= a << bit
    for deg in range(15, 7, -1):
        if acc & (1 << deg):
            acc ^= 0x11D << (deg - 8)
    return acc


def oracle_rank(rows, mul):
    # row-echelon rank over the field, arithmetic injected so the oracle
    # never touches the library tables
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = next(x for x in range(1, 256) if mul(rows[rank][col], x) == 1)
        rows[rank] = [mul(inv, v) for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [v ^ mul(f, w) for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def oracle_determined(k, rows):
    # coordinate j is pinned down by the known functionals ``rows`` iff
    # adding the unit vector e_j does not raise their rank
    base = oracle_rank(rows, slow_mul) if rows else 0
    out = set()
    for j in range(k):
        ej = [0] * k
        ej[j] = 1
        if oracle_rank(list(rows) + [ej], slow_mul) == base:
            out.add(j)
    return frozenset(out)
