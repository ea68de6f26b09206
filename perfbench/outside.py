"""Reference computations made apart from locale-forge.

Nothing here imports the program.  The benchmark checks the program's
outputs against these: the finite topology that a grid of open intervals
generates, the subset lattice of an antichain, and brute-force recomputation
of joins and closure laws from a bare order relation.
"""

from __future__ import annotations

import re
from fractions import Fraction

NEG_INF = (-1, Fraction(0))
POS_INF = (1, Fraction(0))


def endpoint(text: str) -> tuple[int, Fraction]:
    """A sortable endpoint: (-1, 0) for -inf, (1, 0) for +inf, (0, q) else."""
    if text == "-inf":
        return NEG_INF
    if text == "+inf":
        return POS_INF
    return (0, Fraction(text))


def grid_values(points) -> list[tuple[int, Fraction]]:
    """The grid points with both infinities, in order."""
    return [NEG_INF] + sorted((0, Fraction(p)) for p in set(points)) + [POS_INF]


# The cells of a grid p1 < ... < pk on the extended line are the k points
# and the k+1 open gaps between consecutive values, numbered left to right:
# gap i is cell 2i, point p_j is cell 2j-1.  An open interval (v_a, v_b)
# holds exactly the cells strictly inside it, i.e. cells 2a .. 2b-2.


def interval_cells(a: int, b: int) -> int:
    """Cell mask of the interval between extended values a < b (indices)."""
    return ((1 << (2 * b - 1)) - 1) & ~((1 << (2 * a)) - 1)


_KEY = re.compile(r"OI\(([^,()]+),([^,()]+)\)\Z")


def key_cells(key: str, values) -> int:
    """Cell mask of a generator key ``OI(p,q)``; ``OI()`` is empty."""
    if key == "OI()":
        return 0
    m = _KEY.match(key)
    if not m:
        raise ValueError(f"not an interval key: {key!r}")
    return interval_cells(values.index(endpoint(m.group(1))), values.index(endpoint(m.group(2))))


def label_cells(label: str, values) -> int:
    """Cell mask of a frame element printed as a join ``g | h | ...``."""
    if label == "0":
        return 0
    mask = 0
    for part in label.split(" | "):
        mask |= key_cells(part, values)
    return mask


def topology_opens(k: int) -> set[int]:
    """Open sets of the topology generated by the open intervals with
    endpoints among k grid points and the infinities, as cell masks: every
    union of basic intervals, the empty union included."""
    m = k + 2
    opens = {0}
    for a in range(m):
        for b in range(a + 1, m):
            cells = interval_cells(a, b)
            opens |= {u | cells for u in opens}
    return opens


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


# ---------------------------------------------------------------------------
# subset lattices


def subset_label_mask(label: str, names: list[str]) -> int:
    """Member mask of a downset printed as ``{a,b}``."""
    inner = label[1:-1]
    mask = 0
    for part in inner.split(",") if inner else ():
        mask |= 1 << names.index(part)
    return mask


# ---------------------------------------------------------------------------
# order relations given as up-masks (bit j of up[i] says i <= j)


def least_upper_bounds(up: list[int]) -> list[list[int]]:
    """Join table recomputed from the order alone; raises if a join is missing."""
    n = len(up)
    table = []
    for a in range(n):
        row = []
        for b in range(n):
            ub = up[a] & up[b]
            least = [c for c in range(n) if (ub >> c) & 1 and ub & ~up[c] == 0]
            if len(least) != 1:
                raise ValueError("order has no join for some pair")
            row.append(least[0])
        table.append(row)
    return table


def closure_law_failures(up: list[int], j: list[int], c: list[int]) -> list[str]:
    """Brute-force check that c is the Kleene closure of j: inflationary,
    idempotent, preserving the empty and binary joins, with fixed points
    equal to the pre-fixed points of j."""
    n = len(up)
    join = least_upper_bounds(up)
    full = (1 << n) - 1
    bottom = next(i for i in range(n) if up[i] == full)
    out = []
    if any(not (up[x] >> c[x]) & 1 for x in range(n)):
        out.append("not inflationary")
    if any(c[c[x]] != c[x] for x in range(n)):
        out.append("not idempotent")
    if c[bottom] != bottom:
        out.append("moves the bottom")
    if any(c[join[a][b]] != join[c[a]][c[b]] for a in range(n) for b in range(a, n)):
        out.append("does not preserve binary joins")
    fixed = {x for x in range(n) if c[x] == x}
    prefixed = {x for x in range(n) if (up[j[x]] >> x) & 1}
    if fixed != prefixed:
        out.append("fixed points differ from the pre-fixed points of j")
    return out
