"""Integer partitions as weakly decreasing tuples.

Provides the interlacing order on partitions, conjugation and the content
tally of cells, which is what the transfer operators are built from.
"""

from itertools import product


def is_partition(p):
    if not isinstance(p, tuple):
        return False
    for i, row in enumerate(p):
        if type(row) is not int or row < 1:
            return False
        if i and p[i - 1] < row:
            return False
    return True


def check_partition(p):
    if not is_partition(p):
        raise ValueError(f"not a partition: {p!r}")
    return p


def size(p):
    return sum(p)


def conjugate(p):
    # a column is as long as the number of rows that reach it, so the
    # p[i-1] - p[i] columns that end in row i (counted from 1) have length i
    out = []
    for i in range(len(p), 0, -1):
        out += [i] * (p[i - 1] - (p[i] if i < len(p) else 0))
    return tuple(out)


def cells(p):
    for i, row in enumerate(p):
        for j in range(row):
            yield i, j


def content_counts(p, L):
    """Cells (i, j) of p tallied by content (j - i) mod L."""
    counts = [0] * L
    for i, row in enumerate(p):
        full, extra = divmod(row, L)
        # columns j = k mod L, j < row, have content k - i
        for k in range(L):
            counts[(k - i) % L] += full + (k < extra)
    return counts


def interlaces(lam, mu):
    """True when lam_1 >= mu_1 >= lam_2 >= mu_2 >= ... (lam covers mu)."""
    for i in range(max(len(lam), len(mu))):
        li = lam[i] if i < len(lam) else 0
        mi = mu[i] if i < len(mu) else 0
        l_next = lam[i + 1] if i + 1 < len(lam) else 0
        if li < mi or mi < l_next:
            return False
    return True


def conjugate_interlaces(lam, mu):
    return interlaces(conjugate(lam), conjugate(mu))


def partitions_of(n, max_part=None):
    """Partitions of n in descending lexicographic order."""
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def partitions_up_to(n):
    for k in range(n + 1):
        yield from partitions_of(k)


def _rows_between(lo, hi, budget):
    """Partitions with row i in [lo[i], hi[i]] for i < len(hi) and at most
    `budget` boxes beyond lo, sorted by (size, rows).  Both callers' bounds
    force weakly decreasing rows, so distinct row choices never coincide."""
    ranges = [range(low, min(high, low + budget) + 1) for low, high in zip(lo, hi)]
    limit = sum(lo) + budget
    rows = [r for r in product(*ranges) if sum(r) <= limit]
    # product yields the rows in lexicographic order, which dropping their
    # trailing zeros keeps, so a stable sort by size gives the (size, rows) order
    rows.sort(key=sum)
    return [r[:r.index(0)] if 0 in r else r for r in rows]


def interlacing_below(lam):
    """All mu with lam covering mu in the interlacing order, sorted by (size, rows)."""
    return _rows_between(lam[1:] + (0,), lam, sum(lam))


def interlacing_above(mu, max_size):
    """All lam covering mu with at most max_size boxes, sorted by (size, rows)."""
    return _rows_between(mu + (0,), (max_size,) + mu, max_size - sum(mu))
