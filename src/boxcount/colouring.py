"""Finite abelian groups acting on box coordinates, and the induced colours.

A group is its characters: a tuple of (n, (a, b, c)) with a + b + c = 0
mod n, so that it acts inside SL(3).  Each character colours the box
(x, y, z) by the digit (a*x + b*y + c*z) mod n, and a box's element index
is the mixed-radix number of its digits, first character least
significant.  Three actions are supported:

* ``zn:<n>`` -- ((n, (1, -1, 0)),): the colour of a box is (x - y) mod n;
* ``klein`` -- ((2, (1, 0, 1)), (2, (0, 1, 1))): elements 1, a, b, c are
  indexed 0..3, so a box of coordinate parities (x, y, z) has index
  x ^ 2y ^ 3z and composition is bitwise xor;
* ``z3diag`` -- ((3, (1, 1, 1)),): colouring by (x + y + z) mod 3.

`colour_index` and `compose` read the characters alone, through
`Group.digits`, the one place that knows the element layout; every other
module, the transfer machines' slice colours too, reads colours through
them.  A group's `kind` (its name up to the first colon) keys the
closed-form records in `boxcount.formulas`, and nothing here.  Each group
carries one series variable per element, identity first.

`Group` is a plain immutable record, a named tuple of (name, variables,
characters) like the other records of the package; `order`, `kind` and
`digits` are read off those three fields.
"""

from collections import namedtuple

from boxcount.series import MAX_VARS


class Group(namedtuple("Group", "name variables characters")):
    __slots__ = ()

    @property
    def order(self):
        return len(self.variables)

    @property
    def kind(self):
        return self.name.partition(":")[0]

    @property
    def digits(self):
        """(n, a, b, c, place value) per character: the mixed-radix digits of an element index."""
        digits, place = [], 1
        for n, (a, b, c) in self.characters:
            digits.append((n, a, b, c, place))
            place *= n
        return tuple(digits)

    def __str__(self):
        return self.name


def zn_group(n):
    if type(n) is not int or not 1 <= n <= MAX_VARS:
        raise ValueError(f"cyclic order must be an integer between 1 and {MAX_VARS} (one series variable per element)")
    return Group(f"zn:{n}", tuple(f"q{i}" for i in range(n)), ((n, (1, -1, 0)),))


KLEIN_VARS = ("q0", "qa", "qb", "qc")
# pyramid brick colours: diagonal slice index mod 4 -> index into KLEIN_VARS
SLICE_COLOUR = (0, 2, 3, 1)


def klein_group():
    return Group("klein", KLEIN_VARS, ((2, (1, 0, 1)), (2, (0, 1, 1))))


def z3diag_group():
    return Group("z3diag", ("q0", "q1", "q2"), ((3, (1, 1, 1)),))


def parse_group(text):
    """Parse a group name: 'zn:<order>', 'klein', or 'z3diag', each only as the group prints it."""
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
            # int() also reads '+3', ' 3', '1_0', '03' and non-ASCII digits
            if text == f"zn:{order}":
                return zn_group(order)
    raise ValueError(f"unknown group {text!r} (expected zn:<order>, klein, or z3diag)")


def colour_index(group, x, y, z):
    """Element index of the weight of a box at (x, y, z)."""
    return sum((a * x + b * y + c * z) % n * place for n, a, b, c, place in group.digits)


def compose(group, i, j):
    """Element index of the product of elements i and j: their digits add mod n."""
    return sum((i // place + j // place) % n * place for n, _, _, _, place in group.digits)
