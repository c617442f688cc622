import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxcount import young

PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_partition_generation():
    for n, want in enumerate(PARTITION_COUNTS):
        parts = list(young.partitions_of(n))
        assert len(parts) == want
        assert len(set(parts)) == want
        for p in parts:
            assert young.is_partition(p) and young.size(p) == n
    assert list(young.partitions_of(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partitions_up_to():
    got = list(young.partitions_up_to(5))
    assert len(got) == sum(PARTITION_COUNTS[:6])
    assert got[0] == ()


partitions = st.integers(0, 8).flatmap(lambda n: st.sampled_from(list(young.partitions_of(n))))


@given(partitions)
@settings(max_examples=80, deadline=None)
def test_conjugate_involution(p):
    q = young.conjugate(p)
    assert young.is_partition(q)
    assert young.conjugate(q) == p
    assert young.size(q) == young.size(p)
    assert set(young.cells(q)) == {(j, i) for i, j in young.cells(p)}


def test_content_counts():
    # cells (i, j) by content (j - i) mod L
    assert young.content_counts((), 2) == [0, 0]
    assert young.content_counts((2, 1), 2) == [1, 2]
    assert young.content_counts((3, 1), 3) == [1, 1, 2]
    for L in range(1, 5):
        for p in young.partitions_up_to(10):
            tally = [0] * L
            for i, j in young.cells(p):
                tally[(j - i) % L] += 1
            assert young.content_counts(p, L) == tally, (p, L)


def contains(lam, mu):
    return len(lam) >= len(mu) and all(lam[i] >= mu[i] for i in range(len(mu)))


def horizontal_strip(lam, mu):
    # no column of lam/mu has two cells
    if not contains(lam, mu):
        return False
    cols = [i for i, j in set(young.cells(lam)) - set(young.cells(mu)) for i in [j]]
    return len(cols) == len(set(cols))


@given(partitions, partitions)
@settings(max_examples=150, deadline=None)
def test_interlacing_is_horizontal_strip(lam, mu):
    assert young.interlaces(lam, mu) == horizontal_strip(lam, mu)
    assert young.conjugate_interlaces(lam, mu) == young.interlaces(
        young.conjugate(lam), young.conjugate(mu)
    )


@given(partitions)
@settings(max_examples=60, deadline=None)
def test_interlacing_neighbours(mu):
    size = young.size(mu)
    # sorted by (size, rows), as the docstrings promise, hence without repeats
    by_size = lambda p: (young.size(p), p)
    below = young.interlacing_below(mu)
    assert below == sorted(set(below), key=by_size)
    assert all(young.interlaces(mu, nu) for nu in below)
    assert young.interlacing_above(mu, size - 1) == []
    for budget in (-1, 0, 1, 3):
        above = young.interlacing_above(mu, size + budget)
        assert above == sorted(set(above), key=by_size)
        assert all(young.interlaces(nu, mu) for nu in above)
        # every neighbour is listed, up to the size bound exactly and not one box past it
        for nu in young.partitions_up_to(size + max(budget, 0) + 1):
            if young.interlaces(nu, mu):
                assert (nu in above) == (young.size(nu) <= size + budget), (nu, budget)
            if young.interlaces(mu, nu):
                assert nu in below


# reference border-strip model: direct skew-shape scan, no bead encoding


def ref_strip_additions(mu, length):
    out = []
    for lam in young.partitions_of(young.size(mu) + length):
        if not contains(lam, mu):
            continue
        skew = set(young.cells(lam)) - set(young.cells(mu))
        if any({(i + 1, j), (i, j + 1), (i + 1, j + 1)} <= skew for i, j in skew):
            continue
        seen = {next(iter(skew))}
        frontier = list(seen)
        while frontier:
            i, j = frontier.pop()
            for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                if nb in skew and nb not in seen:
                    seen.add(nb)
                    frontier.append(nb)
        if seen == skew:
            out.append((lam, len({i for i, _ in skew})))
    return sorted(out)


def test_border_strips_match_reference():
    for mu in young.partitions_up_to(5):
        for length in range(1, 5):
            assert sorted(young.add_border_strip(mu, length)) == ref_strip_additions(mu, length)


def test_border_strip_removal_inverts_addition():
    for mu in young.partitions_up_to(5):
        for length in range(1, 5):
            added = young.add_border_strip(mu, length)
            for lam, rows in added:
                assert (mu, rows) in young.remove_border_strip(lam, length)
            for nu, rows in young.remove_border_strip(mu, length):
                assert (mu, rows) in young.add_border_strip(nu, length)


def test_check_partition_rejects_bad_shapes():
    with pytest.raises(ValueError):
        young.check_partition((1, 2))
    with pytest.raises(ValueError):
        young.check_partition((2, 0))
    young.check_partition((3, 1, 1))
