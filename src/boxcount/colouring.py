"""Finite abelian groups acting on box coordinates, and the induced colours.

Three actions are supported:

* ``zn:<n>`` -- the cyclic group whose colour of a box is (x - y) mod n;
* ``klein`` -- the four-group acting through coordinate parities, with
  elements 1, a, b, c indexed 0..3 so composition is bitwise xor;
* ``z3diag`` -- the cyclic group of order three colouring by (x+y+z) mod 3.

Each group carries one series variable per element, identity first.
"""

from __future__ import annotations

from dataclasses import dataclass

from boxcount.series import MAX_VARS


@dataclass(frozen=True)
class Group:
    kind: str
    order: int
    variables: tuple

    def __str__(self):
        return f"zn:{self.order}" if self.kind == "zn" else self.kind


def zn_group(n):
    if not 1 <= n <= MAX_VARS:
        raise ValueError(f"cyclic order must be between 1 and {MAX_VARS} (one series variable per element)")
    return Group("zn", n, tuple(f"q{i}" for i in range(n)))


def klein_group():
    return Group("klein", 4, ("q0", "qa", "qb", "qc"))


def z3diag_group():
    return Group("z3diag", 3, ("q0", "q1", "q2"))


def parse_group(text):
    """Parse a group name: 'zn:<order>', 'klein', or 'z3diag'."""
    if text == "klein":
        return klein_group()
    if text == "z3diag":
        return z3diag_group()
    if text.startswith("zn:"):
        try:
            order = int(text[3:])
        except ValueError:
            pass
        else:
            return zn_group(order)
    raise ValueError(f"unknown group {text!r} (expected zn:<order>, klein, or z3diag)")


def colour_index(group, x, y, z):
    """Element index of the weight of a box at (x, y, z)."""
    if group.kind == "zn":
        return (x - y) % group.order
    if group.kind == "klein":
        return (x % 2) * 1 ^ (y % 2) * 2 ^ (z % 2) * 3
    if group.kind == "z3diag":
        return (x + y + z) % 3
    raise ValueError(f"unknown group kind {group.kind!r}")


def compose(group, i, j):
    if group.kind == "klein":
        return i ^ j
    return (i + j) % group.order


def inverse(group, i):
    if group.kind == "klein":
        return i
    return (-i) % group.order


def laurent_restriction(group, e1, e2):
    """Element index of the first two coordinate weights raised to e1, e2.

    The third weight is determined by the first two (the action preserves
    the product of all three), so characters in two exponents restrict
    through this single map; it agrees with colour_index(e1, e2, 0).
    """
    return colour_index(group, e1, e2, 0)
