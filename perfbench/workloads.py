"""Benchmark workloads and the checks applied to every operation's output.

Each operation is one ``boxcount`` CLI invocation printing its series as
JSON.  Its wall time adds to the end-to-end metric named by ``route``.
Every workload runs one operation of each route so that every end-to-end
metric exists on every workload; the routes a workload is not about run at
a small N and serve as its controls.  README.md gives the reasons for each
choice.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

ROUTES = ("enum_s", "enum_t2_s", "sign_s", "pyramid_s", "transfer_s", "formula_s", "dt_s")


@dataclass(frozen=True)
class Op:
    route: str
    args: tuple
    # (kind, *arguments): the reference the output must equal; see Checker
    reference: tuple

    @property
    def label(self):
        return " ".join(self.args)


def _op(route, text, *reference):
    return Op(route, tuple(text.split()), reference)


CONTROLS = {
    "enum_s": _op("enum_s", "enum klein -N 10", "closed", "klein", 10),
    "enum_t2_s": _op("enum_t2_s", "enum klein -N 10 --threads 2", "closed", "klein", 10),
    "sign_s": _op("sign_s", "sign zn:3 -N 8", "signed", "zn:3", 8),
    "pyramid_s": _op("pyramid_s", "pyramid -N 10", "closed", "pyramid", 10),
    "transfer_s": _op("transfer_s", "transfer z2z2 -N 8", "closed", "klein", 8),
    "formula_s": _op("formula_s", "formula klein -N 12", "pair", 12),
    "dt_s": _op("dt_s", "dt klein -N 12 --side paired", "pairing", "klein", 12),
}


def _with_controls(*ops):
    covered = {op.route for op in ops}
    return tuple(ops) + tuple(CONTROLS[r] for r in ROUTES if r not in covered)


WORKLOADS = {
    "enumerate": _with_controls(
        _op("enum_s", "enum klein -N 15", "closed", "klein", 15),
        # twice: how the two threads share the cores varies from run to run
        _op("enum_t2_s", "enum klein -N 15 --threads 2", "closed", "klein", 15),
        _op("enum_t2_s", "enum klein -N 15 --threads 2", "closed", "klein", 15),
        _op("sign_s", "sign zn:3 -N 14", "signed", "zn:3", 14),
        _op("pyramid_s", "pyramid -N 13", "closed", "pyramid", 13),
    ),
    "transfer": _with_controls(
        _op("transfer_s", "transfer z2z2 -N 15", "closed", "klein", 15),
        _op("transfer_s", "transfer pyramid -N 15", "closed", "pyramid", 15),
        _op("transfer_s", "transfer zn:3 -N 15", "closed", "zn:3", 15),
    ),
    "closed": _with_controls(
        _op("formula_s", "formula klein -N 30", "pair", 30),
        _op("formula_s", "formula pyramid -N 30", "digest", "formula pyramid -N 30", "closed", "pyramid", 30),
        _op("dt_s", "dt klein -N 28 --side resolution", "digest", "dt klein -N 28 --side resolution", "resolution", "klein", 28),
        _op("dt_s", "dt klein -N 28 --side paired", "pairing", "klein", 28),
    ),
}

DIGESTS = Path(__file__).with_name("reference_digests.json")


def canonical_digest(data):
    """sha256 of a series JSON document with its terms in sorted order."""
    terms = sorted((tuple(t["exp"]), int(t["coef"])) for t in data["terms"])
    canon = {"vars": data["vars"], "trunc": data["trunc"], "terms": [[list(e), str(c)] for e, c in terms]}
    return hashlib.sha256(json.dumps(canon, separators=(",", ":")).encode()).hexdigest()


class Checker:
    """Computes each reference once and compares operation outputs with it.

    References come from a route other than the one under test: enumeration
    and transfer outputs against the closed form at the same N, the signed
    enumeration against the signed closed form, ``formula klein`` by the
    pair identity and paired ``dt`` by the pairing identity (both as
    ``boxcount verify`` computes them), and two closed forms against
    canonical digests recorded from the seed commit.
    """

    def __init__(self):
        self._refs = {}
        self._digests = json.loads(DIGESTS.read_text())

    def series(self, kind, *args):
        key = (kind, *args)
        if key not in self._refs:
            self._refs[key] = _REFERENCES[kind](*args)
        return self._refs[key]

    def prepare(self, ops):
        """Compute the references of `ops` ahead of the timed region."""
        for op in ops:
            if op.reference[0] != "digest":
                self.series(*op.reference)

    def check(self, op, stdout):
        """None if `stdout` is the right output of `op`, else a reason."""
        from boxcount.series import Monomial, Series

        try:
            data = json.loads(stdout)
            got = Series.from_json_dict(data)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unparsable output ({exc.__class__.__name__}: {exc})"
        kind, *args = op.reference
        if kind == "digest":
            name, *recompute = args
            if canonical_digest(data) == self._digests[name]:
                return None
            ref = self.series(*recompute)
            prefix = "digest differs from the seed commit's"
        else:
            ref = self.series(kind, *args)
            if got == ref:
                return None
            prefix = f"differs from {kind} reference"
        if got.vars != ref.vars or got.trunc != ref.trunc:
            return f"{prefix}: vars/trunc {got.vars}/{got.trunc}, expected {ref.vars}/{ref.trunc}"
        d = got.diff(ref)
        if d is None:
            return f"{prefix}; equal to the in-process recomputation"
        halves, ca, cb = d
        return f"{prefix}: first mismatch at {Monomial(got.vars, halves, 1)}: output {ca}, reference {cb}"


def _closed(which, n):
    from boxcount import formulas

    if which == "pyramid":
        return formulas.closed_pyramid(n)
    from boxcount.colouring import parse_group

    return formulas.closed_orbifold(parse_group(which), n)


def _signed(group, n):
    from boxcount import formulas
    from boxcount.colouring import parse_group

    return formulas.dt_orbifold(parse_group(group), n)


def _pair(n):
    from boxcount import formulas
    from boxcount.series import Monomial, macmahon_tilde

    V = ("q0", "qa", "qb", "qc")
    factor = macmahon_tilde(
        Monomial.from_exponents(V, {"qa": 1, "qb": 1}),
        Monomial.from_exponents(V, {"q0": 1, "qa": 1, "qb": 1, "qc": 1}),
        n,
    )
    return factor * formulas.closed_pyramid(n)


def _resolution(group, n):
    from boxcount import formulas
    from boxcount.colouring import parse_group

    return formulas.dt_resolution(parse_group(group), n)


_REFERENCES = {
    "closed": _closed,
    "signed": _signed,
    "pair": _pair,
    "pairing": _signed,
    "resolution": _resolution,
}
