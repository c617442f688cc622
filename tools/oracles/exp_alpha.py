"""Oracle for the half-vertex operators, built from first principles.

Computes matrix entries of the raising half-vertex operators as genuine
exponentials of power-sum operators with Fraction coefficients:

    G(x)  = exp( sum_n  x^n / n * A_n )          plain
    G'(x) = exp( sum_n (-1)^(n-1) x^n / n * A_n )  primed
    E(x)  = exp( sum_m  x^(2m) / m * A_2m )        even part

where A_n adds border strips of length n with sign (-1)^(rows spanned - 1).
Border strips are found by a direct skew-shape scan (containment +
connectivity + no 2x2 block), not by any bead/abacus encoding, so this is
independent of the package implementation.

Run:  python3 tools/oracles/exp_alpha.py > /tmp/fock_oracle.txt
"""

from fractions import Fraction
from itertools import count


def partitions_of(n, max_part=None):
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def partitions_up_to(n):
    out = []
    for k in range(n + 1):
        out.extend(partitions_of(k))
    return out


def cells(p):
    return {(i, j) for i, r in enumerate(p) for j in range(r)}


def contains(lam, mu):
    return len(lam) >= len(mu) and all(lam[i] >= mu[i] for i in range(len(mu)))


def is_border_strip(skew):
    # connected through edges, and no 2x2 square
    if not skew:
        return False
    for (i, j) in skew:
        if {(i + 1, j), (i, j + 1), (i + 1, j + 1)} <= skew:
            return False
    seen = {next(iter(skew))}
    frontier = list(seen)
    while frontier:
        i, j = frontier.pop()
        for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if nb in skew and nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return seen == skew


def strip_additions(mu, length):
    """All (lam, sign) with lam/mu a border strip of the given length."""
    out = []
    for lam in partitions_of(sum(mu) + length):
        if not contains(lam, mu):
            continue
        skew = cells(lam) - cells(mu)
        if is_border_strip(skew):
            rows = len({i for i, _ in skew})
            out.append((lam, 1 if rows % 2 else -1))
    return out


# states: partition -> {x-degree: Fraction}


def apply_A(state, n):
    out = {}
    for mu, poly in state.items():
        for lam, sign in strip_additions(mu, n):
            dst = out.setdefault(lam, {})
            for d, c in poly.items():
                dst[d] = dst.get(d, Fraction(0)) + sign * c
    return {lam: {d: c for d, c in poly.items() if c} for lam, poly in out.items()}


def apply_T(state, coeffs, cap):
    """One application of sum_n coeffs[n] * x^n * A_n, truncated at size cap."""
    out = {}
    for n, cn in coeffs.items():
        if not cn:
            continue
        moved = apply_A(state, n)
        for lam, poly in moved.items():
            if sum(lam) > cap:
                continue
            dst = out.setdefault(lam, {})
            for d, c in poly.items():
                dst[d + n] = dst.get(d + n, Fraction(0)) + cn * c
    return out


def exp_T(coeffs, cap):
    """Matrix of exp(sum_n coeffs[n] x^n A_n) on partitions of size <= cap."""
    table = {}
    for mu in partitions_up_to(cap):
        state = {mu: {0: Fraction(1)}}
        total = {mu: dict(state[mu])}
        term = state
        for k in count(1):
            term = apply_T(term, coeffs, cap)
            if not term:
                break
            for lam, poly in term.items():
                dst = total.setdefault(lam, {})
                for d, c in poly.items():
                    dst[d] = dst.get(d, Fraction(0)) + c / _factorial(k)
        for lam, poly in total.items():
            poly = {d: c for d, c in poly.items() if c}
            if poly:
                table[(lam, mu)] = poly
    return table


def _factorial(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def entry_table(table):
    """Collapse {(lam,mu): {deg: coef}} checking each entry is c * x^(|lam|-|mu|)."""
    out = {}
    for (lam, mu), poly in sorted(table.items()):
        want = sum(lam) - sum(mu)
        assert set(poly) == {want}, (lam, mu, poly)
        c = poly[want]
        assert c.denominator == 1, (lam, mu, c)
        out[(lam, mu)] = int(c)
    return out


def main():
    cap = 4
    plain = entry_table(exp_T({n: Fraction(1, n) for n in range(1, cap + 1)}, cap))
    primed = entry_table(exp_T({n: Fraction((-1) ** (n - 1), n) for n in range(1, cap + 1)}, cap))
    even = entry_table(exp_T({n: Fraction(2, n) if n % 2 == 0 else Fraction(0) for n in range(1, cap + 1)}, cap))

    # every entry of the plain and primed tables must be 0 or 1
    assert set(plain.values()) == {1}, sorted(set(plain.values()))
    assert set(primed.values()) == {1}
    print("# pairs (lam, mu) with <lam|G(x)|mu> = x^(|lam|-|mu|), |lam|,|mu| <= 4")
    print(f"GAMMA_PAIRS = {sorted(plain)!r}")
    print()
    print("# the same for the primed operator G'(x)")
    print(f"GAMMA_PRIMED_PAIRS = {sorted(primed)!r}")
    print()
    print("# (lam, mu) -> c with <lam|E(x)|mu> = c * x^(|lam|-|mu|)")
    print(f"EVEN_MINUS_ENTRIES = {even!r}")


if __name__ == "__main__":
    main()
