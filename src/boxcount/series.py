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
list of (signed monomial u of positive degree, integer e) pairs, computed
degree by degree from the logarithmic derivative (the Euler transform).
The MacMahon products `macmahon` and `macmahon_tilde` only build their
factor lists and call it.  They, `Series.inverse` and `Series.__pow__`
remain only for the tests and the perfbench harness's probes.
"""

from __future__ import annotations

import json

from boxcount import _kernels

MAX_VARS = 7
MAX_TRUNC = 63
# bits per exponent lane of a packed key
_LANE = 8
_LANE_MASK = (1 << _LANE) - 1


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


def _unpack(key, nvars):
    return tuple((key >> (_LANE * i)) & _LANE_MASK for i in range(nvars))


def _sort_key(key, nvars):
    return (key >> (_LANE * nvars), _unpack(key, nvars))


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

    def items(self):
        """Yield (half-exponent tuple, coefficient) in canonical order."""
        m = len(self.vars)
        for key in sorted(self._terms, key=lambda k: _sort_key(k, m)):
            yield _unpack(key, m), self._terms[key]

    def iter_whole(self):
        """Yield (whole-unit exponent tuple, coefficient) in canonical order."""
        for halves, coef in self.items():
            if any(h % 2 for h in halves):
                raise ValueError("series has half-integer exponents")
            yield tuple(h // 2 for h in halves), coef

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
        keys = set()
        for s in (self, other):
            keys.update(k for k in s._terms if (k >> self._shift) <= cap)
        for key in sorted(keys, key=lambda k: _sort_key(k, m)):
            ca = self._terms.get(key, 0)
            cb = other._terms.get(key, 0)
            if ca != cb:
                return _unpack(key, m), ca, cb
        return None

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
        out = {k: c for k, c in self._terms.items() if (k >> shift) <= cap}
        for k, c in rhs._terms.items():
            if (k >> shift) > cap:
                continue
            nc = out.get(k, 0) + c
            if nc:
                out[k] = nc
            elif k in out:
                del out[k]
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
        """Multiplicative inverse; the constant term must be +1 or -1."""
        c0 = self._terms.get(0, 0)
        if c0 not in (1, -1):
            raise ValueError("inverse requires constant term +1 or -1")
        shift = self._shift
        cap = 2 * self.trunc
        a_buckets = {}
        for k, c in self._terms.items():
            d = k >> shift
            if d:
                a_buckets.setdefault(d, {})[k] = c
        b_buckets = {0: {0: c0}}
        for d in range(1, cap + 1):
            acc = {}
            for j in a_buckets:
                if j > d:
                    continue
                prev = b_buckets.get(d - j)
                if not prev:
                    continue
                prod = _kernels.mul_terms(a_buckets[j], prev, cap, shift)
                for k, c in prod.items():
                    nc = acc.get(k, 0) + c
                    if nc:
                        acc[k] = nc
                    elif k in acc:
                        del acc[k]
            if acc:
                b_buckets[d] = {k: -c0 * c for k, c in acc.items()}
        out = {}
        for bucket in b_buckets.values():
            out.update(bucket)
        return Series(self.vars, self.trunc, out, _trusted=True)

    def substitute_signs(self, names):
        """Substitute q -> -q for each variable named in `names`."""
        idxs = []
        for name in names:
            try:
                idxs.append(self.vars.index(name))
            except ValueError:
                raise ValueError(f"unknown variable {name!r}") from None
        out = {}
        for k, c in self._terms.items():
            parity = 0
            for i in idxs:
                h = (k >> (_LANE * i)) & _LANE_MASK
                if h % 2:
                    raise ValueError("sign substitution on a half-integer exponent")
                parity += h // 2
            out[k] = -c if parity % 2 else c
        return Series(self.vars, self.trunc, out, _trusted=True)

    def sign_by_parities(self, odd):
        """Negate each coefficient whose monomial's odd-exponent bitmask q
        (bit i for variable i) has odd[q] true."""
        m = len(self.vars)
        out = {}
        for key, c in self._terms.items():
            # bit 1 of a lane is its whole exponent mod 2
            q = sum(((key >> (_LANE * i + 1)) & 1) << i for i in range(m))
            out[key] = -c if odd[q] else c
        return Series(self.vars, self.trunc, out, _trusted=True)

    # -- serialization ---------------------------------------------------

    def to_json_dict(self):
        return {
            "vars": list(self.vars),
            "trunc": self.trunc,
            "terms": [
                {"exp": list(exps), "coef": str(coef)} for exps, coef in self.iter_whole()
            ],
        }

    def to_json(self, indent=None):
        return json.dumps(self.to_json_dict(), indent=indent)

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
        lines = [header]
        for exps, coef in self.iter_whole():
            lines.append(f"{sum(exps)}," + ",".join(str(e) for e in exps) + f",{coef}")
        return "\n".join(lines) + "\n"


# -- product formulas ------------------------------------------------------


def euler_product(vars, trunc, factors):
    """The product of (1 - u)**(-e) over the (u, e) pairs in `factors`.

    Each u is a signed monomial of positive degree on `vars` and each e an
    integer of either sign; a u may appear more than once.  The product F is
    built by the graded Euler transform.  Let E multiply a term by its total
    half-degree.  Then E log F = sum of e * deg(u) * sum_k sign(u)**k * u**k
    over the factors, a series L with integer coefficients, and E F = F * L
    gives, for the half-degree-D part a_D of F,

        D * a_D = sum over j >= 1 of L_j * a_(D-j),    a_0 = 1.

    The division by D is exact: every factor has integer coefficients (a
    binomial series for e > 0, a polynomial for e < 0), so F does too, and
    the recurrence fixes each a_D from the lower parts, so its integer
    solution is F.  A remainder would mean a broken kernel, and raises.
    """
    _check_vars(vars)
    if not isinstance(trunc, int) or not 0 <= trunc <= MAX_TRUNC:
        raise ValueError(f"trunc must be an integer in [0, {MAX_TRUNC}]")
    cap = 2 * trunc
    shift = degree_shift(len(vars))
    log_terms = {}  # L, by packed monomial
    for u, e in factors:
        if u.vars != vars:
            raise ValueError("variable sets differ")
        d = u.degree_halves
        if d == 0:
            raise ValueError("factor argument must have positive degree")
        key = u.packed()
        c = e * d
        for k in range(1, cap // d + 1):
            log_terms[k * key] = log_terms.get(k * key, 0) + (-c if u.sign < 0 and k % 2 else c)
    log_parts = {}
    for key, c in log_terms.items():
        if c:
            log_parts.setdefault(key >> shift, []).append((key, c))
    parts = [{0: 1}]  # parts[D] is a_D
    for D in range(1, cap + 1):
        acc = {}
        for j, terms in log_parts.items():
            if j <= D and parts[D - j]:
                for key, c in terms:
                    _kernels.scale_accumulate(acc, parts[D - j], key, c, cap, shift)
        part = {}
        for key, c in acc.items():
            a, r = divmod(c, D)
            if r:
                raise ArithmeticError(f"Euler transform: {c} is not divisible by degree {D}")
            part[key] = a
        parts.append(part)
    out = {}
    for part in parts:
        out.update(part)
    return Series(vars, trunc, out, _trusted=True)


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
