"""Truncated multivariate power series with exact integer coefficients.

Exponents are tracked in half-units so that operator arguments like the
square root of a product of two variables stay exact; a series itself only
ever holds whole-unit (even half-count) exponents once it is serialized.

Terms are stored sparsely in a dict keyed by a packed integer: one 8-bit
lane per variable holding the half-unit exponent, plus the total
half-degree in the lane above them.  Adding keys multiplies monomials, and
the truncation test is a shift.  Only this module knows the layout; others
use `degree_shift`, `var_key` and `Monomial.packed`.  No lane may carry
into the next, which is why truncation order is at most 63: a kept term's
half-exponents and half-degree are at most 126 < 256, and the kernels drop
a product above the cap before adding its key.  MAX_VARS = 7 is not needed
by the layout; it is the colour count of zn:7, the largest group built.

Every infinite product in the package is evaluated by one function,
`euler_product(vars, trunc, factors)`: the product of (1 - u)**(-e) over a
list of (signed monomial u of positive degree, integer e) pairs, built by
changing its parts by half-degree in place, one merged factor at a time.
Each factor is one pass (`_pass`) over the terms of (1 - u)**|e| cut at
the cap: walked from the top down it multiplies by that polynomial (e < 0),
walked upward it divides by it (e > 0), exactly, since every part already
holds its quotient when it is read.  `Series.inverse` is the same upward pass.
The MacMahon products `macmahon` and `macmahon_tilde` only build their
factor lists and call `euler_product`.  They, `Series.inverse` and
`Series.__pow__` remain only for the tests and the perfbench harness's
probes.
"""

from __future__ import annotations

import json
from math import comb

from boxcount import _kernels

MAX_VARS = 7
MAX_TRUNC = 63
# bits per exponent lane of a packed key: one byte, so `int.to_bytes` unpacks
# a key with the half-degree lane as its last byte
_LANE = 8


def _check_vars(vars):
    if not isinstance(vars, tuple) or not vars:
        raise ValueError("vars must be a non-empty tuple of names")
    if len(vars) > MAX_VARS:
        raise ValueError(f"at most {MAX_VARS} variables supported")
    if len(set(vars)) != len(vars):
        raise ValueError("variable names must be distinct")
    for v in vars:
        if not isinstance(v, str) or not v or "," in v or any(c.isspace() for c in v):
            raise ValueError(f"bad variable name {v!r}")


def degree_shift(nvars):
    """Bit offset of the half-degree lane in a key on `nvars` variables."""
    return _LANE * nvars


def _pack(halves):
    key = 0
    total = 0
    for i, h in enumerate(halves):
        key |= h << (_LANE * i)
        total += h
    return key | (total << degree_shift(len(halves)))


def var_key(nvars, i):
    """The key of variable i to the power 1 on `nvars` variables."""
    return _pack([2 if j == i else 0 for j in range(nvars)])


def _half_units(nvars):
    """The mask of every lane's half-unit bit."""
    return sum(1 << (_LANE * i) for i in range(nvars))


def _unpack(key, nvars):
    return tuple(key.to_bytes(nvars + 1, "little")[:nvars])


class Monomial:
    """A signed monomial with half-unit exponents in a fixed variable set."""

    __slots__ = ("vars", "halves", "sign")

    def __init__(self, vars, halves, sign=1):
        _check_vars(vars)
        halves = tuple(halves)
        if len(halves) != len(vars):
            raise ValueError("exponent count does not match variable count")
        for h in halves:
            if not isinstance(h, int) or h < 0:
                raise ValueError("exponents must be non-negative integers (in half-units)")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "halves", halves)
        object.__setattr__(self, "sign", sign)

    def __setattr__(self, name, value):
        raise AttributeError("Monomial is immutable")

    @classmethod
    def one(cls, vars):
        return cls(vars, (0,) * len(vars))

    @classmethod
    def var(cls, vars, name, power=1):
        """The monomial name**power (power in whole units)."""
        return cls.from_exponents(vars, {name: power})

    @classmethod
    def from_exponents(cls, vars, exps, sign=1):
        """Build from a mapping of variable name to whole-unit exponent."""
        return cls.from_half_exponents(vars, {k: 2 * v for k, v in exps.items()}, sign)

    @classmethod
    def from_half_exponents(cls, vars, half_exps, sign=1):
        halves = [0] * len(vars)
        for name, h in half_exps.items():
            try:
                halves[vars.index(name)] = h
            except ValueError:
                raise ValueError(f"unknown variable {name!r}") from None
        return cls(vars, halves, sign)

    @property
    def degree_halves(self):
        return sum(self.halves)

    def is_integral(self):
        return all(h % 2 == 0 for h in self.halves)

    def packed(self):
        return _pack(self.halves)

    def __mul__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        if other.vars != self.vars:
            raise ValueError("variable sets differ")
        return Monomial(
            self.vars,
            tuple(a + b for a, b in zip(self.halves, other.halves)),
            self.sign * other.sign,
        )

    def __truediv__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        if other.vars != self.vars:
            raise ValueError("variable sets differ")
        halves = tuple(a - b for a, b in zip(self.halves, other.halves))
        if any(h < 0 for h in halves):
            raise ValueError("division would produce a negative exponent")
        return Monomial(self.vars, halves, self.sign * other.sign)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("power must be a non-negative integer")
        return Monomial(self.vars, tuple(h * k for h in self.halves), self.sign if k % 2 else 1)

    def __neg__(self):
        return Monomial(self.vars, self.halves, -self.sign)

    def __eq__(self, other):
        return (
            isinstance(other, Monomial)
            and self.vars == other.vars
            and self.halves == other.halves
            and self.sign == other.sign
        )

    def __hash__(self):
        return hash((self.vars, self.halves, self.sign))

    def __repr__(self):
        return ("-" if self.sign < 0 else "") + _render_monomial(self.vars, self.halves)


def _render_monomial(vars, halves):
    parts = []
    for name, h in zip(vars, halves):
        if h == 0:
            continue
        if h == 2:
            parts.append(name)
        elif h % 2 == 0:
            parts.append(f"{name}^{h // 2}")
        else:
            parts.append(f"{name}^({h}/2)")
    return "*".join(parts) if parts else "1"


class Series:
    """A power series truncated at total whole-unit degree `trunc`.

    Instances are immutable; every operation returns a new series.  Binary
    operations require identical variable tuples and truncate the result to
    the smaller of the two truncation orders.
    """

    __slots__ = ("vars", "trunc", "_terms")

    def __init__(self, vars, trunc, terms=None, _trusted=False):
        _check_vars(vars)
        if not isinstance(trunc, int) or not 0 <= trunc <= MAX_TRUNC:
            raise ValueError(f"trunc must be an integer in [0, {MAX_TRUNC}]")
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "trunc", trunc)
        if terms is None:
            terms = {}
        elif not _trusted:
            cap = 2 * trunc
            shift = degree_shift(len(vars))
            clean = {}
            for k, c in terms.items():
                if not isinstance(c, int):
                    raise ValueError("coefficients must be ints")
                if c and (k >> shift) <= cap:
                    clean[k] = c
            terms = clean
        object.__setattr__(self, "_terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, vars, trunc):
        return cls(vars, trunc, {}, _trusted=True)

    @classmethod
    def one(cls, vars, trunc):
        return cls(vars, trunc, {0: 1}, _trusted=True)

    @classmethod
    def from_monomial(cls, mono, trunc, coef=1):
        if coef == 0 or mono.degree_halves > 2 * trunc:
            return cls.zero(mono.vars, trunc)
        return cls(mono.vars, trunc, {mono.packed(): coef * mono.sign}, _trusted=True)

    @classmethod
    def from_terms(cls, vars, trunc, terms):
        """Build from a mapping of whole-unit exponent tuples to coefficients."""
        _check_vars(vars)
        packed = {}
        for exps, coef in terms.items():
            if len(exps) != len(vars):
                raise ValueError("exponent tuple length does not match variables")
            if any(not isinstance(e, int) or e < 0 for e in exps):
                raise ValueError("exponents must be non-negative integers")
            key = _pack(tuple(2 * e for e in exps))
            if coef:
                packed[key] = packed.get(key, 0) + coef
        return cls(vars, trunc, {k: c for k, c in packed.items() if c})

    # -- inspection ------------------------------------------------------

    @property
    def _shift(self):
        return degree_shift(len(self.vars))

    def is_zero(self):
        return not self._terms

    def is_one(self):
        return self._terms == {0: 1}

    def coefficient(self, exps):
        """Coefficient of the whole-unit exponent tuple `exps`."""
        if len(exps) != len(self.vars):
            raise ValueError("exponent tuple length does not match variables")
        return self._terms.get(_pack(tuple(2 * e for e in exps)), 0)

    def _rows(self, whole=False):
        """Sorted (half-degree, exponent bytes, coefficient) rows, which is
        canonical order; exponents in whole units if `whole`, else halves."""
        m = len(self.vars)
        half = _half_units(m)
        if whole and any(k & half for k in self._terms):
            raise ValueError("series has half-integer exponents")
        # with no half-unit bit set, one shift halves every lane at once
        w, shift = int(whole), self._shift
        rows = [(k >> shift, (k >> w).to_bytes(m + 1, "little")[:m], c) for k, c in self._terms.items()]
        return sorted(rows)

    def items(self):
        """Yield (half-exponent tuple, coefficient) in canonical order."""
        for _, halves, coef in self._rows():
            yield tuple(halves), coef

    def iter_whole(self):
        """Yield (whole-unit exponent tuple, coefficient) in canonical order."""
        for _, exps, coef in self._rows(whole=True):
            yield tuple(exps), coef

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        return (
            isinstance(other, Series)
            and self.vars == other.vars
            and self.trunc == other.trunc
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.vars, self.trunc, frozenset(self._terms.items())))

    def diff(self, other):
        """First differing term against `other` up to the common truncation.

        Returns None if the two agree, else (half-exponents, self coefficient,
        other coefficient) for the canonically first mismatch.
        """
        if self.vars != other.vars:
            raise ValueError("variable sets differ")
        m = len(self.vars)
        cap = 2 * min(self.trunc, other.trunc)
        shift = self._shift
        a, b = self._terms, other._terms
        differ = [k for k in a.keys() | b.keys() if (k >> shift) <= cap and a.get(k, 0) != b.get(k, 0)]
        if not differ:
            return None
        key = min(differ, key=lambda k: (k >> shift, _unpack(k, m)))
        return _unpack(key, m), a.get(key, 0), b.get(key, 0)

    def pretty(self, max_terms=None):
        parts = []
        for halves, coef in self.items():
            if max_terms is not None and len(parts) >= max_terms:
                parts.append("...")
                break
            mono = _render_monomial(self.vars, halves)
            mag = abs(coef)
            if mono == "1":
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not parts:
                parts.append(body if coef > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coef > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"

    def __repr__(self):
        return f"Series({', '.join(self.vars)}; N={self.trunc}; {len(self._terms)} terms)"

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, int):
            return Series(self.vars, self.trunc, {0: other} if other else {}, _trusted=True)
        if isinstance(other, Monomial):
            return Series.from_monomial(other, self.trunc)
        if isinstance(other, Series):
            if other.vars != self.vars:
                raise ValueError("variable sets differ")
            return other
        return None

    def truncate(self, trunc):
        if trunc >= self.trunc:
            if trunc == self.trunc:
                return self
            raise ValueError("cannot raise the truncation order")
        cap = 2 * trunc
        shift = self._shift
        return Series(
            self.vars,
            trunc,
            {k: c for k, c in self._terms.items() if (k >> shift) <= cap},
            _trusted=True,
        )

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        trunc = min(self.trunc, rhs.trunc)
        cap = 2 * trunc
        shift = self._shift
        out = {}
        _kernels.scale_accumulate(out, self._terms, 0, 1, cap, shift)
        _kernels.scale_accumulate(out, rhs._terms, 0, 1, cap, shift)
        return Series(self.vars, trunc, out, _trusted=True)

    __radd__ = __add__

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __neg__(self):
        return Series(
            self.vars, self.trunc, {k: -c for k, c in self._terms.items()}, _trusted=True
        )

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return Series.zero(self.vars, self.trunc)
            return Series(
                self.vars,
                self.trunc,
                {k: other * c for k, c in self._terms.items()},
                _trusted=True,
            )
        if isinstance(other, Monomial):
            return self.mul_monomial(other)
        if isinstance(other, Series):
            if other.vars != self.vars:
                raise ValueError("variable sets differ")
            trunc = min(self.trunc, other.trunc)
            terms = _kernels.mul_terms(self._terms, other._terms, 2 * trunc, self._shift)
            return Series(self.vars, trunc, terms, _trusted=True)
        return NotImplemented

    __rmul__ = __mul__

    def mul_monomial(self, mono, coef=1):
        if mono.vars != self.vars:
            raise ValueError("variable sets differ")
        out = {}
        _kernels.scale_accumulate(
            out, self._terms, mono.packed(), coef * mono.sign, 2 * self.trunc, self._shift
        )
        return Series(self.vars, self.trunc, out, _trusted=True)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result = Series.one(self.vars, self.trunc)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def inverse(self):
        """Multiplicative inverse; the constant term must be +1 or -1.

        With s = c0 + a, g = 1/s solves g = c0 - c0*a*g, one upward `_pass`
        from the constant c0 over the terms of a.
        """
        c0 = self._terms.get(0, 0)
        if c0 not in (1, -1):
            raise ValueError("inverse requires constant term +1 or -1")
        shift = self._shift
        cap = 2 * self.trunc
        parts = [{0: c0}] + [{} for _ in range(cap)]
        steps = sorted((k >> shift, k, -c0 * c) for k, c in self._terms.items() if k)
        if steps:
            _pass(parts, steps, True, cap, shift)
        for part in parts[1:]:
            parts[0].update(part)
        return Series(self.vars, self.trunc, parts[0], _trusted=True)

    def substitute_signs(self, names):
        """Substitute q -> -q for each variable named in `names`."""
        mask = 0
        for name in names:
            try:
                mask |= 1 << self.vars.index(name)
            except ValueError:
                raise ValueError(f"unknown variable {name!r}") from None
        return self.sign_by_parities([(q & mask).bit_count() % 2 for q in range(1 << len(self.vars))])

    def sign_by_parities(self, odd):
        """Negate each coefficient whose monomial's odd-exponent bitmask q
        (bit i for variable i) has odd[q] true."""
        m = len(self.vars)
        # bit 0 of a lane is its half-unit; bit 1 is its whole exponent mod 2
        halves = _half_units(m)
        out = {}
        for key, c in self._terms.items():
            if key & halves:
                raise ValueError("sign substitution on a half-integer exponent")
            q = sum(((key >> (_LANE * i + 1)) & 1) << i for i in range(m))
            out[key] = -c if odd[q] else c
        return Series(self.vars, self.trunc, out, _trusted=True)

    # -- serialization ---------------------------------------------------

    def to_json_dict(self):
        terms = [{"exp": list(exps), "coef": str(coef)} for exps, coef in self.iter_whole()]
        return {"vars": list(self.vars), "trunc": self.trunc, "terms": terms}

    def to_json(self):
        """The text of json.dumps(self.to_json_dict()), written in one pass."""
        head = json.dumps({"vars": list(self.vars), "trunc": self.trunc})
        term = '{"exp": [' + ", ".join(["%d"] * len(self.vars)) + '], "coef": "%s"}'
        body = ", ".join([term % (*exps, coef) for _, exps, coef in self._rows(whole=True)])
        return head[:-1] + ', "terms": [' + body + "]}"

    @classmethod
    def from_json_dict(cls, data):
        vars = tuple(data["vars"])
        terms = {}
        for item in data["terms"]:
            exps = tuple(item["exp"])
            terms[exps] = terms.get(exps, 0) + int(item["coef"])
        return cls.from_terms(vars, int(data["trunc"]), terms)

    @classmethod
    def from_json(cls, text):
        return cls.from_json_dict(json.loads(text))

    def to_csv(self):
        header = "degree," + ",".join(f"exponent_{v}" for v in self.vars) + ",coefficient"
        line = "%d," + ",".join(["%d"] * len(self.vars)) + ",%s"
        rows = self._rows(whole=True)
        return "\n".join([header] + [line % (d // 2, *exps, coef) for d, exps, coef in rows]) + "\n"


# -- product formulas ------------------------------------------------------


def _pass(parts, steps, divide, cap, shift):
    """Multiply the parts by 1 + S, or divide them by 1 - S if `divide`, in
    place, where S is the sum of `steps`.

    `parts[D]` holds the half-degree-D terms, and each step is a term
    (half-degree dk > 0, packed monomial, coefficient) of S, sorted by dk.
    The pass adds each step times part D into part D + dk.  Walked from the
    top down, each part is read before any lower part adds into it, so the
    parts are multiplied by 1 + S.  Walked upward, g = f / (1 - S) solves
    g = f + S*g, and each part already holds its quotient when it is read.
    """
    top = cap - steps[0][0]
    for D in range(top + 1) if divide else range(top, -1, -1):
        src = parts[D]
        if not src:
            continue
        for dk, key, coef in steps:
            if D + dk > cap:
                break
            _kernels.scale_accumulate(parts[D + dk], src, key, coef, cap, shift)


def euler_product(vars, trunc, factors):
    """The product of (1 - u)**(-e) over the (u, e) pairs in `factors`.

    Each u is a signed monomial of positive degree on `vars` and each e an
    integer of either sign.  Equal signed u are merged by summing their e.
    The product is kept as its parts by half-degree and changed in place by
    one factor at a time, highest degree first, in one `_pass` over the
    terms C(n, j) * (-u)**j, 1 <= j <= n, of (1 - u)**n with n = |e|, cut
    at the cap: for e < 0 the pass multiplies by (1 - u)**n, for e > 0 it
    divides by it.  Every coefficient is an exact integer.
    """
    _check_vars(vars)
    if not isinstance(trunc, int) or not 0 <= trunc <= MAX_TRUNC:
        raise ValueError(f"trunc must be an integer in [0, {MAX_TRUNC}]")
    cap = 2 * trunc
    shift = degree_shift(len(vars))
    merged = {}  # (half-degree of u, packed u, sign of u) -> summed e
    for u, e in factors:
        if u.vars != vars:
            raise ValueError("variable sets differ")
        if u.degree_halves == 0:
            raise ValueError("factor argument must have positive degree")
        key = (u.degree_halves, u.packed(), u.sign)
        merged[key] = merged.get(key, 0) + e
    parts = [{0: 1}] + [{} for _ in range(cap)]  # parts[D] is the half-degree-D part
    for (d, key, sign), e in sorted(merged.items(), reverse=True):
        if not e or d > cap:
            continue  # the factor is 1
        n = abs(e)
        # dividing by 1 + S is dividing by 1 - (-S)
        steps = [
            (j * d, j * key, (-1 if e > 0 else 1) * comb(n, j) * (-sign) ** j)
            for j in range(1, min(n, cap // d) + 1)
        ]
        _pass(parts, steps, e > 0, cap, shift)
    for part in parts[1:]:
        parts[0].update(part)
    return Series(vars, trunc, parts[0], _trusted=True)


def macmahon_factors(x, q, trunc, two_sided=False):
    """The (u, e) pairs of macmahon(x, q), or of macmahon_tilde(x, q) if
    `two_sided`, up to the last factor of degree at most `trunc`."""
    if x.vars != q.vars:
        raise ValueError("variable sets differ")
    if q.degree_halves == 0:
        raise ValueError("q must have positive degree")
    cap = 2 * trunc
    factors = []
    m = 1
    while x.degree_halves + m * q.degree_halves <= cap:
        factors.append((x * q**m, m))
        m += 1
    m = 1
    while two_sided:
        # the mirror factors (1 - x**(-1) * q**m)**(-m)
        u = q**m / x  # raises if x does not divide q**m
        if u.degree_halves > cap:
            break
        if u.degree_halves == 0:
            raise ValueError("mirror factor has degree 0; truncation is not well defined")
        factors.append((u, m))
        m += 1
    return factors


def macmahon(x, q, trunc):
    """The generalized MacMahon product over m >= 1 of (1 - x*q**m)**(-m).

    `x` and `q` are monomials on the same variables; `q` must have positive
    degree.  A negative sign on either is folded into the coefficients, so
    passing -q evaluates the function at a sign-flipped argument.
    """
    return euler_product(q.vars, trunc, macmahon_factors(x, q, trunc))


def macmahon_tilde(x, q, trunc):
    """The two-sided MacMahon product: macmahon(x, q) times the product over
    m >= 1 of (1 - x**(-1) * q**m)**(-m).

    The unsigned part of `x` must divide that of `q`, so all stored exponents
    stay non-negative; the sign of x**(-1) equals the sign of x.
    """
    return euler_product(q.vars, trunc, macmahon_factors(x, q, trunc, two_sided=True))
