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
"""

from __future__ import annotations


def order_ideals(parents, limit):
    """Yield every order ideal of at most `limit` elements, each exactly once.

    Elements are 0..n-1 in a linear-extension order, and `parents[i]` lists
    the elements directly below i.  Each ideal is yielded as the list of its
    elements in the order they were added.  The list is reused: it is valid
    only until the next step, and an ideal of k elements extends the last
    one yielded of k - 1.
    """
    n = len(parents)
    children = [[] for _ in range(n)]
    for i, ps in enumerate(parents):
        for p in ps:
            children[p].append(i)
    missing = [len(ps) for ps in parents]
    ideal = []
    yield ideal
    if limit <= 0:
        return
    frontier = [i for i in range(n) if not missing[i]]
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
