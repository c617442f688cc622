"""Truncated multivariate power series with exact integer coefficients.

Every exponent is a whole number: the operator arguments of the transfer
machines and the closed forms are all whole monomials, as each colour
weight is carried by a weight operator rather than by a square root.

Terms are stored sparsely in a dict keyed by a packed integer: one 8-bit
lane per variable holding its exponent, plus the total degree in the lane
above them.  Adding keys multiplies monomials, and the truncation test is
a shift.  Variable 0 sits in the highest lane below the degree and the
last variable in lane 0, so a key's bytes, most significant first, read
(degree, exponent of variable 0, ..., of the last): integer order of the
keys is the canonical term order, by degree and then by exponents from the
first variable.  The writers therefore sort plain ints, and `diff` takes
the least differing key.  Only this module knows the layout; others use
`degree_shift`, `var_key` and `Monomial.packed`.  No lane may carry into
the next: a kept term's exponents and degree are at most its truncation
order, and the kernels drop a product above the cap before adding its key,
so any order up to 255 would fit the lanes.  MAX_TRUNC = 63 is the range
the package accepts, not a layout limit, as MAX_VARS = 7 is the colour
count of zn:7, the largest group built.

`Series(vars, trunc, terms)` is the one constructor, and every series
passes its checks: it keeps the packed-term dict it is given and raises
ValueError for a coefficient that is not a non-zero int (bools refused), a
key of degree above `trunc` or a negative key, each check one pass at C
speed over the dict.  Arithmetic takes ints but not bools as constants.
`Series.from_terms` takes exponent tuples, sums equal ones and drops zero
sums and terms above `trunc`.

`Series.to_json` and `Series.to_csv` make their text WRITE_BLOCK terms at a
time and can hand each block to a stream as soon as it is made, so printing
a series never holds its whole text.  A block is one `%` of the term form
repeated, on the flat list of the block's values.  The module does not
import json: `to_json` writes the header itself unless a variable name
needs escaping, and `from_json` imports it when called.  `from_json_dict`
reads only what `to_json_dict` writes, terms in canonical order.

Every infinite product in the package is evaluated by one function,
`euler_records(vars, trunc, records)`: the product of (1 - u)**(-e) over a
list of factor records (degree of u, packed u, sign of u, e), u a signed
monomial of positive degree and e an int, built by changing its parts by
degree in place, one merged factor at a time.  The records are data:
`macmahon_records` reads those of a MacMahon row off the packed keys of
its x and q, as `_pack` is linear, and `euler_product(vars, trunc,
factors)` checks a list of (Monomial u, e) pairs and turns it into records.
Each factor is one pass (`_pass`) over the terms of (1 - u)**|e| cut at
the cap: walked from the top down it multiplies by that polynomial (e < 0),
walked upward it divides by it (e > 0), exactly, since every part already
holds its quotient when it is read.  `Series.inverse` is the same upward pass.
A pass shifts a part only by the terms that keep it within the cap, so
its kernel, `_kernels.add_shifted`, makes no degree test.
Since every pass is exact, the order of the factors only sets the work: a
pass reads every part in reach once per term, so the factors with the most
terms, the largest |e|, go first, while the product is still short.  Among
equal |e| the polynomials go before the divisions: a downward pass reads
the product it is given, an upward pass the product it makes.
The MacMahon products `macmahon` and `macmahon_tilde` only build their
factor records and call `euler_records`.  They, `Series.inverse` and
`Series.__pow__` remain only for the tests and the perfbench harness's
probes.
"""

from math import comb
from operator import add, gt, sub

from boxcount import _kernels

MAX_VARS = 7
MAX_TRUNC = 63
# bits per exponent lane of a packed key: one byte, so `int.to_bytes(m + 1, "big")`
# unpacks a key on m variables to (degree, exponents...)
_LANE = 8
# terms per block of text that the writers make and write at once
WRITE_BLOCK = 128


def check_vars(vars):
    if not isinstance(vars, tuple) or not vars:
        raise ValueError("vars must be a non-empty tuple of names")
    if len(vars) > MAX_VARS:
        raise ValueError(f"at most {MAX_VARS} variables supported")
    if len(set(vars)) != len(vars):
        raise ValueError("variable names must be distinct")
    for v in vars:
        if not isinstance(v, str) or not v or "," in v or any(c.isspace() for c in v):
            raise ValueError(f"bad variable name {v!r}")


def check_trunc(trunc):
    if type(trunc) is not int or not 0 <= trunc <= MAX_TRUNC:
        raise ValueError(f"trunc must be an integer in [0, {MAX_TRUNC}]")


def _check_exps(exps, nvars):
    """`exps` as a tuple, if it is `nvars` non-negative ints; else ValueError."""
    exps = tuple(exps)
    if len(exps) != nvars:
        raise ValueError("exponent count does not match variable count")
    if any(type(e) is not int or e < 0 for e in exps):
        raise ValueError("exponents must be non-negative integers")
    return exps


def degree_shift(nvars):
    """Bit offset of the degree lane in a key on `nvars` variables."""
    return _LANE * nvars


def _pack(exps):
    # sums rather than ors, so that the key is linear in the exponents
    # even where a lane overflows, as `macmahon_records` needs
    key = 0
    for e in exps:
        key = (key << _LANE) + e
    return key + (sum(exps) << degree_shift(len(exps)))


def var_key(nvars, i):
    """The key of variable i to the power 1 on `nvars` variables."""
    if type(i) is not int or not 0 <= i < nvars:
        raise ValueError(f"variable index {i} is not in 0..{nvars - 1}")
    return _pack([1 if j == i else 0 for j in range(nvars)])


def _unpack(key, nvars):
    return tuple(key.to_bytes(nvars + 1, "big")[1:])


class Monomial:
    """A signed monomial in a fixed variable set."""

    __slots__ = ("vars", "exps", "sign")

    def __init__(self, vars, exps, sign=1):
        check_vars(vars)
        exps = _check_exps(exps, len(vars))
        if type(sign) is not int or sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "exps", exps)
        object.__setattr__(self, "sign", sign)

    def __setattr__(self, name, value):
        raise AttributeError("Monomial is immutable")

    @classmethod
    def one(cls, vars):
        return cls(vars, (0,) * len(vars))

    @classmethod
    def var(cls, vars, name, power=1):
        """The monomial name**power."""
        return cls.from_exponents(vars, {name: power})

    @classmethod
    def from_exponents(cls, vars, exps, sign=1):
        """Build from a mapping of variable name to exponent."""
        full = [0] * len(vars)
        for name, e in exps.items():
            try:
                full[vars.index(name)] = e
            except ValueError:
                raise ValueError(f"unknown variable {name!r}") from None
        return cls(vars, full, sign)

    @property
    def degree(self):
        return sum(self.exps)

    def packed(self):
        return _pack(self.exps)

    def __mul__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        if other.vars != self.vars:
            raise ValueError("variable sets differ")
        return Monomial(self.vars, map(add, self.exps, other.exps), self.sign * other.sign)

    def __truediv__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        if other.vars != self.vars:
            raise ValueError("variable sets differ")
        exps = tuple(map(sub, self.exps, other.exps))
        if min(exps) < 0:
            raise ValueError("division would produce a negative exponent")
        return Monomial(self.vars, exps, self.sign * other.sign)

    def __pow__(self, k):
        if type(k) is not int or k < 0:
            raise ValueError("power must be a non-negative integer")
        return Monomial(self.vars, [e * k for e in self.exps], self.sign if k % 2 else 1)

    def __neg__(self):
        return Monomial(self.vars, self.exps, -self.sign)

    def __eq__(self, other):
        return (
            isinstance(other, Monomial)
            and self.vars == other.vars
            and self.exps == other.exps
            and self.sign == other.sign
        )

    def __hash__(self):
        return hash((self.vars, self.exps, self.sign))

    def __repr__(self):
        return ("-" if self.sign < 0 else "") + _render_monomial(self.vars, self.exps)


def _render_monomial(vars, exps):
    parts = [name if e == 1 else f"{name}^{e}" for name, e in zip(vars, exps) if e]
    return "*".join(parts) if parts else "1"


class Series:
    """A power series truncated at total degree `trunc`, its `terms` a dict
    of packed keys to coefficients that the constructor checks and keeps.

    Instances are immutable; every operation returns a new series.  Binary
    operations require identical variable tuples and truncate the result to
    the smaller of the two truncation orders.
    """

    __slots__ = ("vars", "trunc", "_terms")

    def __init__(self, vars, trunc, terms=None):
        check_vars(vars)
        check_trunc(trunc)
        if not terms:
            terms = {}
        elif set(map(type, terms.values())) != {int}:
            raise ValueError("coefficients must be ints")
        elif 0 in terms.values():
            raise ValueError("a stored coefficient is zero")
        elif max(terms) >> degree_shift(len(vars)) > trunc:
            raise ValueError("a term lies above the truncation order")
        elif min(terms) < 0:
            raise ValueError("a packed key is negative")
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "_terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, vars, trunc):
        return cls(vars, trunc)

    @classmethod
    def one(cls, vars, trunc):
        return cls(vars, trunc, {0: 1})

    @classmethod
    def from_monomial(cls, mono, trunc):
        return cls(mono.vars, trunc, {mono.packed(): mono.sign} if mono.degree <= trunc else None)

    @classmethod
    def from_terms(cls, vars, trunc, terms):
        """Build from a mapping of exponent tuples to coefficients, summing
        equal exponents and dropping zero sums and terms above `trunc`."""
        check_vars(vars)
        check_trunc(trunc)
        shift = degree_shift(len(vars))
        packed = {}
        for exps, coef in terms.items():
            key = _pack(_check_exps(exps, len(vars)))
            if type(coef) is not int:
                raise ValueError("coefficients must be ints")
            if key >> shift <= trunc:
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
        """Coefficient of the exponent tuple `exps`."""
        return self._terms.get(_pack(_check_exps(exps, len(self.vars))), 0)

    def items(self):
        """Yield (exponent tuple, coefficient) in canonical order."""
        m = len(self.vars)
        for k in sorted(self._terms):
            yield _unpack(k, m), self._terms[k]

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

        Returns None if the two agree, else (exponents, self coefficient,
        other coefficient) for the canonically first mismatch.
        """
        if self.vars != other.vars:
            raise ValueError("variable sets differ")
        m = len(self.vars)
        cap = min(self.trunc, other.trunc)
        shift = self._shift
        a, b = self._terms, other._terms
        differ = [k for k in a.keys() | b.keys() if (k >> shift) <= cap and a.get(k, 0) != b.get(k, 0)]
        if not differ:
            return None
        key = min(differ)
        return _unpack(key, m), a.get(key, 0), b.get(key, 0)

    def pretty(self, max_terms=None):
        parts = []
        for exps, coef in self.items():
            if max_terms is not None and len(parts) >= max_terms:
                parts.append("...")
                break
            mono = _render_monomial(self.vars, exps)
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
        if type(other) is int:
            return Series(self.vars, self.trunc, {0: other} if other else {})
        if isinstance(other, Monomial):
            other = Series.from_monomial(other, self.trunc)
        elif not isinstance(other, Series):
            return None
        if other.vars != self.vars:
            raise ValueError("variable sets differ")
        return other

    def truncate(self, trunc):
        if trunc >= self.trunc:
            if trunc == self.trunc:
                return self
            raise ValueError("cannot raise the truncation order")
        shift = self._shift
        return Series(self.vars, trunc, {k: c for k, c in self._terms.items() if (k >> shift) <= trunc})

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        trunc = min(self.trunc, rhs.trunc)
        shift = self._shift
        out = {}
        _kernels.scale_accumulate(out, self._terms, 0, 1, trunc, shift)
        _kernels.scale_accumulate(out, rhs._terms, 0, 1, trunc, shift)
        return Series(self.vars, trunc, out)

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
        return Series(self.vars, self.trunc, {k: -c for k, c in self._terms.items()})

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        trunc = min(self.trunc, rhs.trunc)
        terms = _kernels.mul_terms(self._terms, rhs._terms, trunc, self._shift)
        return Series(self.vars, trunc, terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        if type(k) is not int:
            raise ValueError("power must be an integer")
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
        parts = [{0: c0}] + [{} for _ in range(self.trunc)]
        steps = sorted((k >> shift, k, -c0 * c) for k, c in self._terms.items() if k)
        if steps:
            _pass(parts, steps, True, self.trunc)
        return Series(self.vars, self.trunc, _merge(parts))

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
        out = {}
        for key, c in self._terms.items():
            # bit 0 of a lane is its exponent mod 2
            q = sum(((key >> (_LANE * (m - 1 - i))) & 1) << i for i in range(m))
            out[key] = -c if odd[q] else c
        return Series(self.vars, self.trunc, out)

    # -- serialization ---------------------------------------------------

    def to_json_dict(self):
        terms = [{"exp": list(exps), "coef": str(coef)} for exps, coef in self.items()]
        return {"vars": list(self.vars), "trunc": self.trunc, "terms": terms}

    def to_json(self, out=None):
        """The text of json.dumps(self.to_json_dict()), written in one pass.

        With `out`, a text stream, the text is written to it WRITE_BLOCK
        terms at a time and None is returned; without it, it is returned.
        """
        if all(v.isascii() and v.isprintable() and '"' not in v and "\\" not in v for v in self.vars):
            # json.dumps leaves these names as they are
            names = ", ".join(f'"{v}"' for v in self.vars)
        else:
            import json

            names = json.dumps(list(self.vars))[1:-1]
        head = f'{{"vars": [{names}], "trunc": {self.trunc}, "terms": ['
        term = '{"exp": [' + ", ".join(["%d"] * len(self.vars)) + '], "coef": "%s"}'
        return self._write(head, term, ", ", "]}", False, out)

    @classmethod
    def from_json_dict(cls, data):
        """The series of a document as `to_json_dict` makes it; ValueError
        for anything else: not an object with vars, trunc and a list of
        terms each with exp and coef, non-int trunc or exponents, a
        coefficient that is not a non-zero canonical decimal string, a term
        above trunc, or terms not in strictly increasing canonical order."""
        if not (
            isinstance(data, dict)
            and {"vars", "trunc", "terms"} <= data.keys()
            and isinstance(data["terms"], list)
            and all(isinstance(t, dict) and isinstance(t.get("exp"), list) and "coef" in t for t in data["terms"])
        ):
            raise ValueError("not a series document")
        vars, trunc = data["vars"], data["trunc"]
        if not isinstance(vars, list) or not all(isinstance(v, str) for v in vars):
            raise ValueError("vars must be a list of names")
        vars = tuple(vars)
        check_trunc(trunc)
        terms = {}
        last = -1
        for item in data["terms"]:
            coef = item["coef"]
            # the constructor refuses a zero coefficient and a term above trunc
            if not isinstance(coef, str) or str(int(coef)) != coef:
                raise ValueError(f"coefficient {coef!r} is not a canonical decimal string")
            key = _pack(_check_exps(item["exp"], len(vars)))
            if key <= last:
                raise ValueError("terms are not in strictly increasing canonical order")
            terms[key] = int(coef)
            last = key
        return cls(vars, trunc, terms)

    @classmethod
    def from_json(cls, text):
        import json

        return cls.from_json_dict(json.loads(text))

    def to_csv(self, out=None):
        """One header line, then one line of degree, exponents and
        coefficient per term.  With `out`, a text stream, the text is
        written to it WRITE_BLOCK terms at a time and None is returned;
        without it, it is returned."""
        header = "degree," + ",".join(f"exponent_{v}" for v in self.vars) + ",coefficient\n"
        line = "%d," + ",".join(["%d"] * len(self.vars)) + ",%s\n"
        return self._write(header, line, "", "", True, out)

    def _write(self, head, form, sep, tail, degree, out):
        """Write `head`, then each term as `form` % (degree if `degree`,
        *exponents, coefficient) with `sep` between terms, then
        `tail`, in canonical order, to `out` one block at a time; with no
        `out`, return the text.  Each block is one `%` of its terms' forms
        joined by `sep` on the block's values in one flat list."""
        keys = sorted(self._terms)
        terms = self._terms
        m = len(self.vars) + degree
        # the key's low m bytes: the exponents, after the degree if `degree`
        low = (1 << (_LANE * m)) - 1
        chunks = []
        write = chunks.append if out is None else out.write
        write(head)
        for i in range(0, len(keys), WRITE_BLOCK):
            block = keys[i : i + WRITE_BLOCK]
            values = []
            for k in block:
                values += (k & low).to_bytes(m, "big")
                values.append(terms[k])
            write(((sep if i else "") + sep.join([form] * len(block))) % tuple(values))
        write(tail)
        return "".join(chunks) if out is None else None


# -- product formulas ------------------------------------------------------


def _pass(parts, steps, divide, cap):
    """Multiply the parts by 1 + S, or divide them by 1 - S if `divide`, in
    place, where S is the sum of `steps`.

    `parts[D]` holds the degree-D terms, and each step is a term
    (degree dk > 0, packed monomial, coefficient) of S, sorted by dk.
    The pass adds each step times part D into part D + dk, and only while
    D + dk <= cap, so it needs no cap test per term.  Walked from the
    top down, each part is read before any lower part adds into it, so the
    parts are multiplied by 1 + S.  Walked upward, g = f / (1 - S) solves
    g = f + S*g, and each part already holds its quotient when it is read.
    """
    add_shifted = _kernels.add_shifted
    top = cap - steps[0][0]
    for D in range(top + 1) if divide else range(top, -1, -1):
        src = parts[D]
        if not src:
            continue
        room = cap - D
        for dk, key, coef in steps:
            if dk > room:
                break
            add_shifted(parts[D + dk], src, key, coef)


def _merge(parts):
    """The union of the disjoint dicts `parts`, as one of them; each other
    part is dropped from the list as soon as it is merged, so the terms are
    never held twice."""
    whole = parts[0]
    for D in range(1, len(parts)):
        whole.update(parts[D])
        parts[D] = None
    return whole


def euler_product(vars, trunc, factors):
    """The product of (1 - u)**(-e) over the (u, e) pairs in `factors`.

    Each u is a signed monomial of positive degree on `vars` and each e an
    integer of either sign; ValueError otherwise.  The checked pairs become
    factor records for `euler_records`.
    """
    records = []
    for u, e in factors:
        if u.vars != vars:
            raise ValueError("variable sets differ")
        if u.degree == 0:
            raise ValueError("factor argument must have positive degree")
        if type(e) is not int:
            raise ValueError("factor exponent must be an integer")
        records.append((u.degree, u.packed(), u.sign, e))
    return euler_records(vars, trunc, records)


def euler_records(vars, trunc, records):
    """The product of (1 - u)**(-e) over the factor records
    (degree of u, packed u, sign of u, e) in `records`.

    Each u has positive degree and each e is an int, as `euler_product` and
    `macmahon_records` make them.  Records of equal signed u are merged by
    summing their e.  The product is kept as its parts by degree and changed
    in place by one factor at a time, in one `_pass` over the terms
    C(n, j) * (-u)**j, 1 <= j <= min(n, trunc // deg u), of (1 - u)**n with
    n = |e|: for e < 0 the pass multiplies by (1 - u)**n, for e > 0 it
    divides by it.  Every coefficient is an exact integer, so the order of
    the factors does not change the product.  It sets the work, as each pass
    reads every part in reach once per term: the factors are taken in
    decreasing |e|, so those with the most terms (on the resolution side,
    the box factors (-q)**m with e = |G| * m) run while the product is
    still short.  Among equal |e| the polynomials (e < 0) go first, as the
    downward pass reads the product before it is multiplied and the upward
    pass reads it after it is divided; then decreasing degree of u, packed
    u and its sign break the remaining ties.
    """
    check_vars(vars)
    check_trunc(trunc)
    merged = {}  # (degree of u, packed u, sign of u) -> summed e
    for d, key, sign, e in records:
        merged[d, key, sign] = merged.get((d, key, sign), 0) + e
    parts = [{0: 1}] + [{} for _ in range(trunc)]  # parts[D] is the degree-D part
    order = sorted(merged.items(), key=lambda item: (abs(item[1]), item[1] < 0, item[0]), reverse=True)
    for (d, key, sign), e in order:
        if not e or d > trunc:
            continue  # the factor is 1
        n = abs(e)
        # dividing by 1 + S is dividing by 1 - (-S)
        steps = [
            (j * d, j * key, (-1 if e > 0 else 1) * comb(n, j) * (-sign) ** j)
            for j in range(1, min(n, trunc // d) + 1)
        ]
        _pass(parts, steps, e > 0, trunc)
    return Series(vars, trunc, _merge(parts))


def macmahon_records(x, q, trunc, two_sided=False, power=1):
    """The factor records of macmahon(x, q)**power, or of
    macmahon_tilde(x, q)**power if `two_sided`, up to the last factor of
    degree at most `trunc`: (degree of u, packed u, sign of u, m * power)
    for each factor (1 - u)**(-m * power).

    The records are read off the packed keys of x and q, as the key of a
    product of monomials is the sum of their keys: u = x * q**m has key
    key(x) + m * key(q) and sign sign(x) * sign(q)**m, and the mirror
    u = q**m / x has key m * key(q) - key(x) and the same sign.  ValueError
    if x and q are on different variables, if q has degree 0, or, for a
    two-sided row, if x does not divide q, so that a mirror factor would
    have a negative exponent, or if the first mirror factor has degree 0.
    """
    if x.vars != q.vars:
        raise ValueError("variable sets differ")
    dq = q.degree
    if dq == 0:
        raise ValueError("q must have positive degree")
    dx, kx, kq, sx, sq = x.degree, x.packed(), q.packed(), x.sign, q.sign
    records = []
    m = 1
    while dx + m * dq <= trunc:
        records.append((dx + m * dq, kx + m * kq, sx * sq**m, m * power))
        m += 1
    if not two_sided:
        return records
    if any(map(gt, x.exps, q.exps)):
        raise ValueError("x does not divide q, so a mirror factor would have a negative exponent")
    if dq == dx:
        raise ValueError("mirror factor has degree 0; truncation is not well defined")
    m = 1
    while m * dq - dx <= trunc:
        records.append((m * dq - dx, m * kq - kx, sx * sq**m, m * power))
        m += 1
    return records


def macmahon(x, q, trunc):
    """The generalized MacMahon product over m >= 1 of (1 - x*q**m)**(-m).

    `x` and `q` are monomials on the same variables; `q` must have positive
    degree.  A negative sign on either is folded into the coefficients, so
    passing -q evaluates the function at a sign-flipped argument.
    """
    return euler_records(q.vars, trunc, macmahon_records(x, q, trunc))


def macmahon_tilde(x, q, trunc):
    """The two-sided MacMahon product: macmahon(x, q) times the product over
    m >= 1 of (1 - x**(-1) * q**m)**(-m).

    The unsigned part of `x` must divide that of `q`, so all stored exponents
    stay non-negative; the sign of x**(-1) equals the sign of x.
    """
    return euler_records(q.vars, trunc, macmahon_records(x, q, trunc, two_sided=True))
