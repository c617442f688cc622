"""Integer partitions as weakly decreasing tuples.

Provides the interlacing order on partitions, conjugation, and border-strip
moves computed on beta-numbers (first-column hook lengths shifted by the row
index), which is what the transfer operators are built from.
"""

from __future__ import annotations


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
    if not p:
        return ()
    out = []
    for j in range(p[0]):
        out.append(sum(1 for row in p if row > j))
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
    out = []

    def rec(i, rows, left):
        if i == len(hi):
            out.append(tuple(r for r in rows if r))
            return
        for v in range(lo[i], min(hi[i], lo[i] + left) + 1):
            rec(i + 1, rows + [v], left - (v - lo[i]))

    rec(0, [], budget)
    return sorted(out, key=lambda p: (sum(p), p))


def interlacing_below(lam):
    """All mu with lam covering mu in the interlacing order, sorted by (size, rows)."""
    return _rows_between(lam[1:] + (0,), lam, sum(lam))


def interlacing_above(mu, max_size):
    """All lam covering mu with at most max_size boxes, sorted by (size, rows)."""
    return _rows_between(mu + (0,), (max_size,) + mu, max_size - sum(mu))


def _beta(p, window):
    return set(p[i] - (i + 1) for i in range(len(p))) | set(
        -(i + 1) for i in range(len(p), window)
    )


def _from_beta(beta):
    rows = []
    for i, b in enumerate(sorted(beta, reverse=True)):
        rows.append(b + i + 1)
    return tuple(r for r in rows if r)


def _move_bead(p, length, sign):
    """All (partition, rows spanned) from moving one bead by sign * length.

    A strip move is a bead jump on the beta-numbers; the number of beads
    passed over plus one is the number of rows the strip occupies.
    """
    if length < 1:
        raise ValueError("strip length must be positive")
    window = len(p) + length
    beta = _beta(p, window)
    out = []
    for b in beta:
        t = b + sign * length
        # positions below the window belong to empty rows, hence occupied
        if t in beta or t < -window:
            continue
        height = sum(1 for s in beta if min(b, t) < s < max(b, t)) + 1
        out.append((_from_beta(beta - {b} | {t}), height))
    return sorted(out, key=lambda t: t[0])


def add_border_strip(p, length):
    """All (partition, rows spanned) from adding a connected strip of cells."""
    return _move_bead(p, length, 1)


def remove_border_strip(p, length):
    """All (partition, rows spanned) from removing a connected strip."""
    return _move_bead(p, length, -1)
