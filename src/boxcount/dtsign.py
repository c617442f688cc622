"""Box-counting signs from equivariant vertex characters.

The sign attached to a box pile is computed from the character of its boxes:
with the third torus weight eliminated against the first two, the pile gives
a Laurent character Q in two exponents, the vertex combination

    V = Q + Q * conj(Q) * F,   F = (1 - t1)(1 - t2) conjugated and reduced,

and the sign is the parity of the multiplicity of the trivial weight in V
after restricting the torus weights to the acting group.  Only that parity
is needed, and mod 2 it is a pair count: restricted to the group, Q is the
pile's colour counts, and the trivial weight of Q * conj(Q) * F counts the
pairs (g, f) with g in Q, f in F and g * f in Q.  So the sign depends only
on the bitmask of colours that occur an odd number of times, an integer
over group-element indices.  `sign_map` reads it from one table of 2^|G|
parities and multiplies each coefficient of a coloured series by it,
whichever route computed that series.  `sign_of` is the same parity taken
per pile; it and the exact Laurent route are the references the tests hold
the table to.

Each action also admits a closed sign rule in the colour counts alone; the
tests check the routes agree on every pile.
"""

from __future__ import annotations

from boxcount import colouring

# (1 - t1^-1)(1 - t2^-1) with the third weight eliminated: exponent -> coeff
F_LAURENT = {(0, 0): 1, (-1, 0): -1, (0, -1): -1, (-1, -1): 1}


# -- exact Laurent characters in two exponents -------------------------------


def laurent_char(boxes):
    """The two-exponent character of a box set: (i, j, k) -> (i-k, j-k)."""
    out = {}
    for i, j, k in boxes:
        e = (i - k, j - k)
        out[e] = out.get(e, 0) + 1
        if not out[e]:
            del out[e]
    return out


def laurent_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = (ea[0] + eb[0], ea[1] + eb[1])
            c = out.get(e, 0) + ca * cb
            if c:
                out[e] = c
            elif e in out:
                del out[e]
    return out


def laurent_conj(a):
    return {(-e1, -e2): c for (e1, e2), c in a.items()}


def laurent_add(a, b):
    out = dict(a)
    for e, c in b.items():
        nc = out.get(e, 0) + c
        if nc:
            out[e] = nc
        elif e in out:
            del out[e]
    return out


def vertex_char(boxes):
    """V = Q + Q * conj(Q) * F, as an exact Laurent character."""
    q = laurent_char(boxes)
    return laurent_add(q, laurent_mul(laurent_mul(q, laurent_conj(q)), dict(F_LAURENT)))


def restrict_laurent(group, char):
    """Push a Laurent character down to multiplicities per group element."""
    out = [0] * group.order
    for (e1, e2), c in char.items():
        # the action preserves t1 * t2 * t3, so the third weight is fixed by the
        # first two and the exponents (e1, e2) restrict as the box (e1, e2, 0)
        out[colouring.colour_index(group, e1, e2, 0)] += c
    return out


# -- the parity as a pair count ----------------------------------------------


def restrict_boxes_mod2(group, boxes):
    out = 0
    for x, y, z in boxes:
        out ^= 1 << colouring.colour_index(group, x, y, z)
    return out


def _f_mod2(group):
    out = 0
    for e1, e2 in F_LAURENT:
        # as in restrict_laurent: the third weight is fixed by the first two
        out ^= 1 << colouring.colour_index(group, e1, e2, 0)
    return out


def _elements(group, mask):
    return [i for i in range(group.order) if mask >> i & 1]


def _pair_parity(group, q, f):
    # q's bit 0 plus the pairs (g, h), g in q and h in F's elements f, with g * h in q
    return (q + sum(q >> colouring.compose(group, g, h) & 1 for g in _elements(group, q) for h in f)) & 1


def mask_parity(group, q):
    """Parity of the trivial weight of V for colour counts whose mod-2 bitmask is q."""
    return _pair_parity(group, q, _elements(group, _f_mod2(group)))


def invariant_parity(group, boxes):
    """Parity of the trivial-weight multiplicity of V restricted to the group."""
    return mask_parity(group, restrict_boxes_mod2(group, boxes))


def sign_of(group, boxes):
    return -1 if invariant_parity(group, boxes) else 1


# -- closed sign rules ---------------------------------------------------------


def colour_counts(group, boxes):
    out = [0] * group.order
    for x, y, z in boxes:
        out[colouring.colour_index(group, x, y, z)] += 1
    return out


def closed_sign(group, boxes):
    """The sign as a closed function of the colour counts."""
    c = colour_counts(group, boxes)
    if group.kind == "zn":
        return -1 if c[0] % 2 else 1
    if group.kind == "klein":
        return -1 if (c[1] + c[2] + c[3]) % 2 else 1
    if group.kind == "z3diag":
        sigma = c[1] + c[2] + c[0] * c[1] + c[0] * c[2] + c[1] * c[2]
        return -1 if sigma % 2 else 1
    raise ValueError(f"no closed sign rule for group {group}")


def sign_map(group, series):
    """A coloured series with each coefficient times the vertex sign of its monomial."""
    if series.vars != group.variables:
        raise ValueError(f"series variables {series.vars} are not those of {group}")
    # the bitmask of a monomial's odd colour counts is the q of mask_parity
    f = _elements(group, _f_mod2(group))
    return series.sign_by_parities([_pair_parity(group, q, f) for q in range(1 << group.order)])
