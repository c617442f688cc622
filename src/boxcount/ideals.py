"""Finite order ideals of a poset, each produced once by reverse search.

Box piles (boxes under coordinate decrease) and pyramid piles (bricks under
support) are both the finite order ideals of a fixed poset, so one walk
enumerates both (Avis-Fukuda, "Reverse search for enumeration", 1996).

The walk grows an ideal one element at a time and keeps its frontier: the
elements that may still be added.  Choosing the frontier element at
position p passes on only the elements after p, plus the children of the
chosen element whose parents are now all present.  The elements before p
are thereby left out of the whole branch, so the branches below one ideal
split its extensions by their first frontier element and no ideal is
reached twice.

`order_ideals` yields each ideal as one reused list; it feeds the brick
piles of `boxcount.pyramid`, yielded as one reused list of bricks.
`key_series` runs the same walk but only counts: each element carries an
integer step, and it returns how many ideals have each step sum.  It
carries the sum down the walk, one addition per ideal, and counts the
ideals of the largest size from their parent's frontier without descending
to them.  The box piles of `boxcount.enum3d` are counted this way.
"""

from __future__ import annotations


def _links(parents):
    """The children of each element, its count of parents, and the minimal elements."""
    children = [[] for _ in parents]
    for i, ps in enumerate(parents):
        for p in ps:
            children[p].append(i)
    missing = [len(ps) for ps in parents]
    return children, missing, [i for i, m in enumerate(missing) if not m]


def order_ideals(parents, limit):
    """Yield every order ideal of at most `limit` elements, each exactly once.

    Elements are 0..n-1 in a linear-extension order, and `parents[i]` lists
    the elements directly below i.  Each ideal is yielded as the list of its
    elements in the order they were added.  The list is reused: it is valid
    only until the next step, and an ideal of k elements extends the last
    one yielded of k - 1.
    """
    children, missing, frontier = _links(parents)
    ideal = []
    yield ideal
    if limit <= 0:
        return
    pos = 0
    stack = []  # (frontier, position) of each ideal below the current one
    while True:
        if pos < len(frontier):
            j = frontier[pos]
            pos += 1
            ideal.append(j)
            yield ideal
            if len(ideal) < limit:
                nxt = frontier[pos:]
                for c in children[j]:
                    missing[c] -= 1
                    if not missing[c]:
                        nxt.append(c)
                stack.append((frontier, pos))
                frontier, pos = nxt, 0
            else:
                ideal.pop()
        elif stack:
            for c in children[ideal.pop()]:
                missing[c] += 1
            frontier, pos = stack.pop()
        else:
            return


def key_series(parents, step, limit):
    """Count the order ideals of at most `limit` elements by their step sums.

    `parents` is as for `order_ideals`, and element i adds the integer
    `step[i]` to the key of every ideal that holds it.  Returns
    {key: number of ideals with that key}, the empty ideal at key 0.

    The walk is `order_ideals`' with the key in place of the element list.
    It stops one level short: an ideal of limit - 1 elements, reached by
    adding j at position p of its parent's frontier, extends by that
    frontier's elements after p and by the children of j whose last missing
    parent is j, so its extensions are counted there and then, leaving the
    stack and the parent counts alone.
    """
    children, missing, frontier = _links(parents)
    counts = {0: 1}
    get = counts.get
    if limit <= 1:
        if limit == 1:
            # the empty ideal's extensions are already the leaves
            for e in frontier:
                counts[step[e]] = get(step[e], 0) + 1
        return counts
    last = limit - 2  # at this size the next two sizes are counted without descending
    key = 0
    pos = 0
    stack = []  # (frontier, position, key, element added) of each ideal below the current one
    while True:
        if pos < len(frontier):
            j = frontier[pos]
            pos += 1
            k = key + step[j]
            counts[k] = get(k, 0) + 1
            if len(stack) == last:
                for e in frontier[pos:]:
                    s = k + step[e]
                    counts[s] = get(s, 0) + 1
                for c in children[j]:
                    if missing[c] == 1:
                        s = k + step[c]
                        counts[s] = get(s, 0) + 1
                continue
            nxt = frontier[pos:]
            for c in children[j]:
                missing[c] -= 1
                if not missing[c]:
                    nxt.append(c)
            stack.append((frontier, pos, key, j))
            frontier, pos, key = nxt, 0, k
        elif stack:
            frontier, pos, key, j = stack.pop()
            for c in children[j]:
                missing[c] += 1
        else:
            return counts
