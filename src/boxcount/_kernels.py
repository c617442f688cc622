"""Hot loops shared by the series ring and the Fock-space states.

Terms live in plain dicts mapping a packed integer key to an arbitrary
precision integer coefficient.  `boxcount.series` lays the keys out: the
total half-degree sits above bit `shift`, which every kernel takes as an
argument, so a degree test is a shift and a compare, and multiplying
monomials is integer addition of keys.
"""

# which implementation of the kernels is loaded; benchmark runs record it
BACKEND = "python"


def mul_terms(a, b, cap, shift):
    """Multiply two term dicts, dropping products above half-degree `cap`."""
    out = {}
    if not a or not b:
        return out
    if len(a) > len(b):
        a, b = b, a
    # bucket the larger operand by half-degree so the inner loop is flat
    buckets = {}
    for k, c in b.items():
        buckets.setdefault(k >> shift, []).append((k, c))
    degrees = sorted(buckets)
    get = out.get
    for ka, ca in a.items():
        lim = cap - (ka >> shift)
        for d in degrees:
            if d > lim:
                break
            for kb, cb in buckets[d]:
                k = ka + kb
                out[k] = get(k, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def scale_accumulate(dst, src, key_add, coef, cap, shift):
    """dst += coef * x^key_add * src, in place, skipping terms above `cap`."""
    dadd = key_add >> shift
    get = dst.get
    for k, v in src.items():
        if (k >> shift) + dadd > cap:
            continue
        kk = k + key_add
        nv = get(kk, 0) + coef * v
        if nv:
            dst[kk] = nv
        elif kk in dst:
            del dst[kk]
