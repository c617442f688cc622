"""Hot loops shared by the series ring and the Fock-space states.

Terms live in plain dicts mapping a packed integer key to an arbitrary
precision integer coefficient.  `boxcount.series` lays the keys out: the
total degree sits above bit `shift`, which every kernel with a degree test
takes as an argument, so a degree test is a shift and a compare, and
multiplying monomials is integer addition of keys.

Each lane of a key is at most the key's degree, so the sum of two keys
whose degrees add up to at most cap <= 63 has every lane at most
63 < 256: no lane carries, and the sum is below (cap + 1) << shift.
A sum whose degrees add up to more than `cap` is at least that
total shifted into the top lane, so at least (cap + 1) << shift.  Hence
`scale_accumulate` drops a term with the one comparison
k >= ((cap + 1) << shift) - key_add, its limit formed once per call.
`add_shifted`, the kernel of the passes of `series._pass`, drops none: a
pass shifts a part only by keys that keep every term within the cap.
"""

# a constant that benchmark runs record with their results
BACKEND = "python"


def mul_terms(a, b, cap, shift):
    """Multiply two term dicts, dropping products above degree `cap`."""
    out = {}
    if not a or not b:
        return out
    if len(a) > len(b):
        a, b = b, a
    # the buckets pay: one scale_accumulate per term of a measured 5x slower on klein(30)*pyramid(30), 12x on zn(5,16)^2
    # bucket the larger operand by degree so the inner loop is flat
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
    lim = ((cap + 1) << shift) - key_add
    get = dst.get
    for k, v in src.items():
        if k >= lim:
            continue
        kk = k + key_add
        nv = get(kk, 0) + coef * v
        if nv:
            dst[kk] = nv
        elif kk in dst:
            del dst[kk]


def add_shifted(dst, src, key, coef):
    """dst += coef * x^key * src, in place, for the passes of `series._pass`.

    It makes neither of `scale_accumulate`'s tests, for two facts of those
    passes.  Every shifted term is within the cap: each term of src has one
    degree D, and a pass shifts it by a key of degree dk only when
    D + dk <= cap.  And coef and every coefficient of src are non-zero, so
    a zero sum means dst held the key, and it is deleted directly.
    """
    get = dst.get
    for k, v in src.items():
        k += key
        v = get(k, 0) + coef * v
        if v:
            dst[k] = v
        else:
            del dst[k]
