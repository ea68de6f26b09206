"""Finite posets, lattices and monotone maps.

This is the exact kernel every symbolic construction is checked against:
downset frames, Galois adjoints, open/proper map classification, Kleene
closures, interior operators, quotient-operator law suites and fixed-point
subframes.  Everything is verified exhaustively on the finite carrier; no
law is ever assumed, and a map carries no tag saying it was checked: each
construction checks the laws it needs on the map it is given.

Each law is one entry of one table, ``_LAWS``: a generator expression of
the index tuples where the law fails, in index order, of which
``check_laws`` reports the first four.  The law lists that recur (join- and
meet-preserving, closure, interior) are named once.  Each order-dual pair
is written once, as one body that takes the side: ``left_adjoint`` and
``right_adjoint`` call ``_adjoint``, ``classify_open`` and
``classify_proper`` call ``_classify``, and ``recheck_witness`` replays the
Frobenius and co-Frobenius laws through the same ``_frobenius_failures``.

Order relations are stored as integer bitmasks (bit ``j`` of ``up[i]`` says
``i <= j``, bit ``j`` of ``down[i]`` says ``j <= i``), and so are subsets of
a poset's elements; ``unions``, ``maximal``, ``missing_bound`` and
``subset_poset`` are the one vocabulary for them.  A lattice keeps no
per-pair table: each meet or join is one lookup of a mask.  Birkhoff's test
(``is_distributive_lattice``) recognises a bounded distributive lattice in
O(n·|J|) mask operations, J its join-irreducibles, and ``subset_poset``
builds the order of n subsets of k points in O(n·k), so no frame is built
with O(n²) work; only a poset that fails the test takes an O(n²) pass.
Both take each element's masks as one direct AND, over the elements holding
each of its points or over the up-masks of its join-irreducibles.  The
large frames the package builds skip both (below), and no benchmark
workload hands them more than 29 elements.  A frame that is known as the
downsets of a small poset Q (by Birkhoff's representation theorem every
finite one is, Q its join-irreducibles) skips both:
``FiniteLattice.of_downsets`` holds it as the downsets themselves, masks
over Q's |Q| points, with meet ``&`` and join ``|``, checks it by counting
Q's downsets, and builds the n-bit order only when it is read.
``downsets`` and ``evaluate.eval_frame`` build their frames so.
``downsets`` of a 12-, 13- and 14-element antichain (4096, 8192 and 16384
elements, the last with ``cap`` raised) takes 5.4, 11.6 and 24.1 ms, and
``eval_frame`` of the real line without roundedness, plus ``OI() = 0``, on
the grids 0..6, 0..7 and 0..8 (1597, 4181 and 10946 elements,
``max_carrier`` raised to 2**14) 7.5, 19.0 and 52.5 ms.  Best of five or
seven runs in one process on a 2-core Intel Xeon; another spell read 7.8,
16.9 and 36.5 ms and 6.2, 17.0 and 49.8 ms.

``poset_isomorphism`` searches nothing.  Its source must be a distributive
lattice generated by the pinned elements (every oracle comparison pins the
generator images of a presented frame), and then the pins fix the map: each
join-irreducible goes to the meet of the images of the pins above it, every
other element to the join of the images of the join-irreducibles below it.
That is O(n·|J|) mask operations, plus |J| per pin; a source the pins do
not generate raises ``LatticeError``.

Every enumeration is capped at oracle scale and fails with
"... exceeds oracle scale" past its cap:

* ``downsets``: 2**13 downsets (its ``cap`` argument);
* ``evaluate.eval_frame``: 2**15 formal meets of generators, and a
  presented frame of 2**12 elements (its ``max_carrier`` argument);
* ``evaluate.eval_suplattice`` / ``eval_preframe``: 16 generators and
  2**12 downsets / upsets; ``eval_dcpo``: 16 generators;
* the completions of ``presentation.saturate``: 2**12 elements.

An input just under its cap is built in seconds at most.  ``saturate`` of
a k-antichain to sup takes about 0.08, 0.28 and 0.9 s at k = 10, 11 and
12, nearly all of it renumbering the completion's masks into sort order
(``FiniteGeneratorDomain.sorted_poset``), and to preframe and dcpo 1.4 and
3.5 s at k = 12; a 13-antichain fails at once.  Best of one or two runs
on a 2-core Intel Xeon.
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations_with_replacement, islice
from typing import Iterable, Optional, Sequence

from .records import Record


class LatticeError(Exception):
    """Base class for kernel errors."""


class InvalidPosetError(LatticeError):
    pass


class NotALatticeError(LatticeError):
    pass


class OperatorLawError(LatticeError):
    """An operator violated a law required by the requested construction."""

    def __init__(self, report: "OperatorReport"):
        super().__init__(f"operator law failure: {report.witnesses}")
        self.report = report


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# mask vocabulary: subsets of a poset's elements as bitmasks


def _union_set(seeds: Iterable[int], cap: int) -> Optional[set[int]]:
    """Every union of the seed masks, the empty union included, by set
    doubling; ``None`` as soon as there are more than ``cap`` of them."""
    out = {0}
    for s in seeds:
        out |= {m | s for m in out}
        if len(out) > cap:
            return None
    return out


def unions(seeds: Iterable[int], cap: int, what: str) -> list[int]:
    """Every union of the seed masks, the empty union included, sorted by
    size then mask.  Over the principal downsets (upsets) of a poset these
    are exactly its downsets (upsets).  More than ``cap`` of them is an
    oracle-scale overrun, reported with ``what``."""
    out = _union_set(seeds, cap)
    if out is None:
        raise LatticeError(f"{what} exceeds oracle scale")
    return sorted(out, key=lambda m: (m.bit_count(), m))


def maximal(mask: int, down: Sequence[int]) -> int:
    """The maximal elements of ``mask``, given each element's down-mask:
    those strictly below no other element of ``mask``.  Given up-masks
    instead, the minimal elements."""
    below, rest = 0, mask
    while rest:
        low = rest & -rest
        below |= down[low.bit_length() - 1] ^ low
        rest ^= low
    return mask & ~below


def missing_bound(masks: Sequence[int], index: dict[int, int]) -> Optional[int]:
    """The least ``i`` for which some ``masks[i] & masks[j]`` is no
    element's mask (``index`` maps each mask to its element), or ``None``
    when every pair has one.  Over down-masks that is the first element
    lacking a glb with some other, over up-masks a lub.  An O(n²) pass."""
    for i, a in enumerate(masks):
        for b in masks[i + 1 :]:
            if a & b not in index:
                return i
    return None


def _labels(masks: Sequence[int], label) -> tuple[str, ...]:
    """``label(mask)`` for each mask, with primes appended to a name that
    is already taken."""
    labels = []
    taken: set[str] = set()
    for m in masks:
        lab = label(m)
        while lab in taken:
            lab += "'"
        taken.add(lab)
        labels.append(lab)
    return tuple(labels)


def subset_poset(masks: Sequence[int], label, reverse: bool = False) -> "FinitePoset":
    """The distinct subsets, given as bitmasks in element order, under
    inclusion (reverse inclusion when ``reverse``).  ``label(mask)`` names
    each element; a repeated name gets primes appended.

    The order comes straight from the subsets.  With ``has[e]`` the
    elements whose subset contains the point ``e``, the elements above
    ``m`` are the AND of ``has[e]`` over ``e`` in ``m``, and those below
    it are the ones in no ``has[e]`` with ``e`` outside ``m``: O(k) mask
    operations per subset of a ground set of k points.  Reverse inclusion
    is inclusion of the complements."""
    if len(set(masks)) != len(masks):
        raise InvalidPosetError("repeated subset")
    labels = _labels(masks, label)
    ground = 0
    for m in masks:
        ground |= m
    if reverse:
        masks = [ground & ~m for m in masks]
    has = [0] * ground.bit_length()
    for i, m in enumerate(masks):
        while m:
            low = m & -m
            has[low.bit_length() - 1] |= 1 << i
            m ^= low
    everything = (1 << len(masks)) - 1
    up, down = [], []
    for m in masks:
        above, outside, rest = everything, 0, ground & ~m
        while m:
            low = m & -m
            above &= has[low.bit_length() - 1]
            m ^= low
        while rest:
            low = rest & -rest
            outside |= has[low.bit_length() - 1]
            rest ^= low
        up.append(above)
        down.append(everything & ~outside)
    return FinitePoset(labels, tuple(up), tuple(down))


class FinitePoset(Record, compare=("elements", "up")):
    """A finite partial order on string labels."""

    __slots__ = ("elements", "up", "down", "by_down", "by_up")

    def __init__(self, elements: tuple[str, ...], up: tuple[int, ...], down: Optional[tuple[int, ...]] = None):
        n = len(elements)
        for i in range(n):
            if not (up[i] >> i) & 1:
                raise InvalidPosetError(f"not reflexive at {elements[i]!r}")
        if down is None:
            masks = [0] * n
            for i in range(n):
                for j in _bits(up[i]):
                    masks[j] |= 1 << i
            down = tuple(masks)
        init = object.__setattr__
        init(self, "elements", elements)
        init(self, "up", up)  # up[i] = bitmask of {j : i <= j}
        # down[i] = bitmask of {j : j <= i}; read off ``up`` when not given
        init(self, "down", down)
        # the element of each mask: ``by_down[down[i] & down[j]]`` is the glb
        # of i and j and ``by_up[up[i] & up[j]]`` their lub, when they exist
        init(self, "by_down", {m: i for i, m in enumerate(down)})
        init(self, "by_up", {m: i for i, m in enumerate(up)})

    @staticmethod
    def from_pairs(elements: Sequence[str], pairs: Iterable[tuple[int, int]]) -> "FinitePoset":
        """Build from a relation given as index pairs; reflexive-transitive
        closure is taken, antisymmetry is checked.  The closure is
        Warshall's, on rows: for each ``k`` in turn, every row holding
        ``k`` takes in row ``k``."""
        n = len(elements)
        if len(set(elements)) != n:
            raise InvalidPosetError("duplicate element labels")
        up = [1 << i for i in range(n)]
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise InvalidPosetError(f"index pair ({i},{j}) out of range")
            up[i] |= 1 << j
        for k in range(n):
            bit, row = 1 << k, up[k]
            for i in range(n):
                if up[i] & bit:
                    up[i] |= row
        for i in range(n):
            for j in _bits(up[i]):
                if i != j and (up[j] >> i) & 1:
                    raise InvalidPosetError(
                        f"antisymmetry fails: {elements[i]!r} and {elements[j]!r}"
                    )
        return FinitePoset(tuple(elements), tuple(up))

    @property
    def n(self) -> int:
        return len(self.elements)

    def index(self, label: str) -> int:
        return self.elements.index(label)

    def leq(self, i: int, j: int) -> bool:
        return bool((self.up[i] >> j) & 1)


def join_irreducibles(poset: FinitePoset) -> list[int]:
    """The elements of a lattice that are not the join of the elements
    strictly below them, ascending.  In a lattice these are exactly the
    elements whose strict downset has a greatest element, so the bottom
    is not one."""
    down, by_down = poset.down, poset.by_down
    return [x for x in range(poset.n) if down[x] ^ (1 << x) in by_down]


def is_distributive_lattice(poset: FinitePoset) -> bool:
    """Whether the poset is a bounded distributive lattice, decided exactly
    by Birkhoff's representation theorem in O(n·|J|) mask operations.

    Let ``J`` be the elements whose strict downset is principal and
    ``φ(x) = J ∩ ↓x``, a downset of ``J``.  The poset is a bounded
    distributive lattice iff ``φ`` is injective, reflects the order
    (``x <= y`` iff ``φ(x) ⊆ φ(y)``, i.e. ``up[x]`` is the AND of ``up[j]``
    over ``j`` in ``φ(x)``) and ``J`` has exactly ``n`` downsets: then
    ``φ`` is an isomorphism onto the downset lattice of ``J``.  Conversely,
    in a distributive lattice ``J`` is the set of join-irreducibles and
    ``φ`` is that isomorphism.  Reflecting the order implies injectivity,
    which is tested first because it is cheaper.  The downsets are
    counted by set doubling, which stops at ``n + 1``; here ``φ`` is held
    as masks over all elements, with the bits of ``J`` only."""
    n, up, down = poset.n, poset.up, poset.down
    irreducible = join_irreducibles(poset)
    in_j = 0
    for j in irreducible:
        in_j |= 1 << j
    phi = [d & in_j for d in down]
    if len(set(phi)) != n:
        return False
    everything = (1 << n) - 1
    for f, u in zip(phi, up):
        acc = everything
        while f:
            low = f & -f
            acc &= up[low.bit_length() - 1]
            f ^= low
        if acc != u:
            return False
    downsets_of_j = _union_set((phi[j] for j in irreducible), n)
    return downsets_of_j is not None and len(downsets_of_j) == n


class Role(str, Enum):
    CLOSURE_OP = "closureOp"
    INTERIOR_OP = "interiorOp"
    DCPO_IDEMPOTENT = "dcpoIdempotent"


class FiniteLattice(Record, compare=("poset", "distributive", "top", "bottom")):
    """A finite lattice, held as one mask per element with ``leq`` as
    inclusion and ``meet`` as ``&``, and no per-pair table.

    Built from its order (``from_poset``), the masks are the poset's
    down-masks, and ``join(i, j)`` is the element whose up-mask is
    ``up[i] & up[j]``.  A lattice of downsets (``of_downsets``) is held as
    the downsets of a small poset Q, masks over Q's points, with ``join``
    as ``|``; its n-bit ``poset`` is built from the same masks and labels
    only when something reads it.  Either way it equals, hashes and
    pickles as the lattice of its ``poset``.  The ``frame`` flag means:
    bounded, all binary meets/joins exist and binary meet distributes over
    binary join (which in the finite case is full frame distributivity).
    """

    __slots__ = ("_poset", "distributive", "top", "bottom", "elements", "_masks", "_index")

    def __init__(self, poset: FinitePoset, distributive: bool, top: int = 0, bottom: int = 0):
        init = object.__setattr__
        init(self, "_poset", poset)
        init(self, "distributive", distributive)
        init(self, "top", top)
        init(self, "bottom", bottom)
        init(self, "elements", poset.elements)
        init(self, "_masks", poset.down)
        init(self, "_index", poset.by_down)

    @staticmethod
    def from_poset(poset: FinitePoset) -> "FiniteLattice":
        """Check that the poset is a bounded lattice and decide
        distributivity exactly.

        Birkhoff's test (``is_distributive_lattice``) settles a bounded
        distributive lattice in O(n·|J|) mask operations, with every meet
        and join then existing.  Only a poset that fails it takes the O(n²)
        existence pass (``missing_bound``), which raises
        ``NotALatticeError`` for a missing meet or join or a missing bound
        and otherwise yields a lattice that is not distributive.
        """
        n = poset.n
        full = (1 << n) - 1
        distributive = is_distributive_lattice(poset)
        if not distributive:
            missing = [
                i
                for i in (missing_bound(poset.down, poset.by_down), missing_bound(poset.up, poset.by_up))
                if i is not None
            ]
            if missing:
                raise NotALatticeError(f"missing meet or join involving {poset.elements[min(missing)]!r}")
            if full not in poset.by_down:
                raise NotALatticeError("lattice must be bounded")
        return FiniteLattice(poset, distributive, poset.by_down[full], poset.by_up[full])

    @staticmethod
    def of_downsets(q_down: Sequence[int], masks: Sequence[int], label) -> "FiniteLattice":
        """The lattice of all downsets of a poset Q, given each point's
        principal downset ``q_down`` and the downsets ``masks`` in element
        order, all as masks over Q's points.  ``label(mask)`` names each
        element, as ``subset_poset`` does.

        The frame check is Birkhoff's test read off the representation:
        ``q_down`` is reflexive and transitive, the masks are distinct,
        and they are exactly the unions of ``q_down``, that is Q's
        downsets.  A family of sets closed under union and intersection is
        a distributive lattice under inclusion, so this is at least as
        strong as ``from_poset``'s test on the order the masks give; a
        family that fails it raises ``LatticeError``."""
        n, k = len(masks), len(q_down)
        index = {m: i for i, m in enumerate(masks)}
        if (
            len(index) != n
            or any(q >> k or not q >> x & 1 for x, q in enumerate(q_down))
            or any(q_down[y] & ~q for q in q_down for y in _bits(q))
            or _union_set(q_down, n) != index.keys()
        ):
            raise LatticeError("downset lattice failed the frame check")
        lat = FiniteLattice.__new__(FiniteLattice)
        values = (None, True, index[(1 << k) - 1], index[0], _labels(masks, label), masks, index)
        for name, value in zip(FiniteLattice.__slots__, values):
            object.__setattr__(lat, name, value)
        return lat

    @property
    def poset(self) -> FinitePoset:
        p = self._poset
        if p is None:
            p = subset_poset(self._masks, dict(zip(self._masks, self.elements)).__getitem__)
            object.__setattr__(self, "_poset", p)
        return p

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def frame(self) -> bool:
        return self.distributive

    def leq(self, i: int, j: int) -> bool:
        m = self._masks
        return not m[i] & ~m[j]

    def meet(self, i: int, j: int) -> int:
        m = self._masks
        return self._index[m[i] & m[j]]

    def join(self, i: int, j: int) -> int:
        p = self._poset
        if p is None:  # held as downsets, whose join is their union
            m = self._masks
            return self._index[m[i] | m[j]]
        return p.by_up[p.up[i] & p.up[j]]

    def meet_all(self, idxs: Iterable[int]) -> int:
        acc = self.top
        for i in idxs:
            acc = self.meet(acc, i)
        return acc

    def join_all(self, idxs: Iterable[int]) -> int:
        acc = self.bottom
        for i in idxs:
            acc = self.join(acc, i)
        return acc

    def label(self, i: int) -> str:
        return self.elements[i]


class MonotoneMap(Record):
    """A monotone map between finite lattices, given by its value table;
    the constructor checks only that it is monotone."""

    __slots__ = ("source", "target", "table")

    def __init__(self, source: FiniteLattice, target: FiniteLattice, table: tuple[int, ...]):
        n = source.n
        if len(table) != n:
            raise LatticeError("table length mismatch")
        for x in table:
            if not (0 <= x < target.n):
                raise LatticeError("table value out of range")
        for i, up in enumerate(source.poset.up):
            for j in _bits(up):
                if not target.leq(table[i], table[j]):
                    raise LatticeError(
                        "not monotone at "
                        f"{source.label(i)!r} <= {source.label(j)!r}"
                    )
        init = object.__setattr__
        init(self, "source", source)
        init(self, "target", target)
        init(self, "table", table)

    def __call__(self, i: int) -> int:
        return self.table[i]


def compose(outer: MonotoneMap, inner: MonotoneMap) -> MonotoneMap:
    """outer after inner."""
    if inner.target.elements != outer.source.elements:
        raise LatticeError("maps not composable")
    return MonotoneMap(inner.source, outer.target, tuple(outer.table[x] for x in inner.table))


class OperatorReport(Record):
    """Outcome of an exhaustive law check.

    Each witness is ``(law_name, labels)`` and can be re-evaluated with
    ``recheck_witness``.
    """

    __slots__ = ("verdict", "witnesses", "notes")

    def __init__(
        self, verdict: bool, witnesses: tuple[tuple[str, tuple[str, ...]], ...] = (), notes: tuple[str, ...] = ()
    ):
        init = object.__setattr__
        init(self, "verdict", verdict)
        init(self, "witnesses", witnesses)
        init(self, "notes", notes)

    def __bool__(self) -> bool:
        return self.verdict

    def require(self) -> None:
        """Raise ``OperatorLawError`` unless the verdict holds."""
        if not self.verdict:
            raise OperatorLawError(self)


# ---------------------------------------------------------------------------
# law primitives

# Each law as the failures of a map with value table ``t`` from ``L`` to
# ``T``, as index tuples of ``L`` in index order: the bottom or the top,
# single elements, or pairs ``(a, b)`` with ``a <= b`` as indices
# (``_pairs``).  The laws past the preservation ones are stated for
# endomorphisms.
_LAWS = {
    "preserves-empty-join": lambda t, L, T: ((L.bottom,),) if t[L.bottom] != T.bottom else (),
    "preserves-empty-meet": lambda t, L, T: ((L.top,),) if t[L.top] != T.top else (),
    "inflationary": lambda t, L, T: ((a,) for a in range(L.n) if not L.leq(a, t[a])),
    "deflationary": lambda t, L, T: ((a,) for a in range(L.n) if not L.leq(t[a], a)),
    "idempotent": lambda t, L, T: ((a,) for a in range(L.n) if t[t[a]] != t[a]),
    "preserves-binary-join": lambda t, L, T: ((a, b) for a, b in _pairs(L.n) if t[L.join(a, b)] != T.join(t[a], t[b])),
    "preserves-binary-meet": lambda t, L, T: ((a, b) for a, b in _pairs(L.n) if t[L.meet(a, b)] != T.meet(t[a], t[b])),
    "open-meet-law": lambda t, L, T: (
        (a, b)
        for a, b in _pairs(L.n)
        if not (L.leq(L.meet(t[a], t[b]), t[L.meet(a, t[b])]) and L.leq(L.meet(t[b], t[a]), t[L.meet(b, t[a])]))
    ),
    "proper-join-law": lambda t, L, T: (
        (a, b)
        for a, b in _pairs(L.n)
        if not (L.leq(t[L.join(a, t[b])], L.join(t[a], t[b])) and L.leq(t[L.join(b, t[a])], L.join(t[b], t[a])))
    ),
    "weak-meet-law": lambda t, L, T: (
        (a, b) for a, b in _pairs(L.n) if not L.leq(L.meet(t[a], t[b]), t[L.meet(t[a], t[b])])
    ),
    "weak-join-law": lambda t, L, T: (
        (a, b) for a, b in _pairs(L.n) if not L.leq(t[L.join(t[a], t[b])], L.join(t[a], t[b]))
    ),
}


def _pairs(n: int):
    """The index pairs ``(a, b)`` with ``a <= b < n``, ``a`` major."""
    return combinations_with_replacement(range(n), 2)


# the law lists of the recurring roles, each in the order its witnesses
# are reported
JOIN_PRESERVING = ("preserves-empty-join", "preserves-binary-join")
MEET_PRESERVING = ("preserves-empty-meet", "preserves-binary-meet")
CLOSURE_LAWS = ("inflationary", "idempotent") + JOIN_PRESERVING
INTERIOR_LAWS = ("deflationary", "idempotent") + MEET_PRESERVING


def _law_failures(f: MonotoneMap, law: str, limit: int = 4) -> list[tuple[str, ...]]:
    """The first ``limit`` witness tuples (element labels) violating the
    named law."""
    failures = _LAWS.get(law)
    if failures is None:
        raise LatticeError(f"unknown law {law!r}")
    lab = f.source.elements
    return [tuple(lab[i] for i in w) for w in islice(failures(f.table, f.source, f.target), limit)]


def check_laws(f: MonotoneMap, laws: Sequence[str]) -> OperatorReport:
    witnesses = tuple((law, w) for law in laws for w in _law_failures(f, law))
    return OperatorReport(not witnesses, witnesses)


def recheck_witness(f: MonotoneMap, witness: tuple[str, tuple[str, ...]]) -> bool:
    """True when the witness still violates its law (i.e. it is genuine).

    For the map-classification laws ``f`` is the frame homomorphism that
    was classified; for operator laws it is the endomorphism."""
    law, labels = witness
    if law in ("left-adjoint-exists", "right-adjoint-exists"):
        return _adjoint(f, law == "left-adjoint-exists") is None
    if law in ("frobenius", "co-frobenius"):
        left = law == "frobenius"
        pair = f.target.elements.index(labels[0]), f.source.elements.index(labels[1])
        adj = _adjoint(f, left)
        return adj is not None and pair in _frobenius_failures(f, adj, left)
    failures = _law_failures(f, law, limit=f.source.n * f.source.n + 1)
    return tuple(labels) in set(failures)


def as_frame_hom(f: MonotoneMap) -> MonotoneMap:
    """``f``, once it is checked to preserve finite joins and meets;
    ``OperatorLawError`` names the first laws it breaks."""
    check_laws(f, JOIN_PRESERVING + MEET_PRESERVING).require()
    return f


def subset_lattice(masks: Sequence[int], label, reverse: bool = False) -> FiniteLattice:
    """The lattice of ``subset_poset(masks, label, reverse)``."""
    return FiniteLattice.from_poset(subset_poset(masks, label, reverse))


# ---------------------------------------------------------------------------
# downset frames


def downsets(poset: FinitePoset, cap: int = 1 << 13) -> FiniteLattice:
    """The frame of down-closed subsets of a poset, ordered by inclusion,
    held as the downsets themselves (``FiniteLattice.of_downsets``)."""
    masks = unions(poset.down, cap, "downset lattice")
    return FiniteLattice.of_downsets(
        poset.down, masks, lambda mask: "{" + ",".join(poset.elements[i] for i in _bits(mask)) + "}"
    )


# ---------------------------------------------------------------------------
# adjoints


def _adjoint(f: MonotoneMap, left: bool) -> Optional[MonotoneMap]:
    """The left Galois adjoint of ``f`` (``left``) or its right one, when
    it exists, as the order duals of one construction.

    The left candidate sends ``b`` to the meet of ``over = {a : b <= f(a)}``
    and is the adjoint iff ``l(b) <= a`` exactly for the ``a`` in ``over``:
    iff the up-mask of ``l(b)`` is ``over``.  The right candidate sends
    ``b`` to the join of ``{a : f(a) <= b}``, whose down-mask must be that
    set.  A candidate that passes is monotone, as every adjoint is."""
    src, tgt = f.source, f.target
    if left:
        src_masks, tgt_masks, bound = src.poset.up, tgt.poset.up, src.meet_all
    else:
        src_masks, tgt_masks, bound = src.poset.down, tgt.poset.down, src.join_all
    t = f.table
    table = []
    for b in range(tgt.n):
        over = [a for a in range(src.n) if tgt_masks[b] >> t[a] & 1]
        adj = bound(over)
        if src_masks[adj] != sum(1 << a for a in over):
            return None
        table.append(adj)
    return MonotoneMap(tgt, src, tuple(table))


def left_adjoint(f: MonotoneMap) -> Optional[MonotoneMap]:
    """The left Galois adjoint of ``f`` when it exists.

    Candidate: l(b) = meet of {a : b <= f(a)}; returned only when the full
    adjunction l(b) <= a iff b <= f(a) holds.
    """
    return _adjoint(f, True)


def right_adjoint(f: MonotoneMap) -> Optional[MonotoneMap]:
    """Dual of ``left_adjoint``: r(b) = join of {a : f(a) <= b}."""
    return _adjoint(f, False)


def _frobenius_failures(fstar: MonotoneMap, adj: MonotoneMap, left: bool):
    """The pairs ``(a, b)``, ``a`` in the target of ``fstar`` and ``b`` in
    its source, where its left adjoint ``adj`` (``left``) breaks the
    Frobenius law adj(a ^ f*(b)) = adj(a) ^ b, or its right adjoint the
    dual law adj(a v f*(b)) = adj(a) v b."""
    X, Y = fstar.target, fstar.source
    op_x, op_y = (X.meet, Y.meet) if left else (X.join, Y.join)
    return ((a, b) for a in range(X.n) for b in range(Y.n) if adj(op_x(a, fstar(b))) != op_y(adj(a), b))


def _classify(fstar: MonotoneMap, left: bool) -> OperatorReport:
    """``classify_open`` (``left``) or ``classify_proper``: the adjoint on
    that side exists and satisfies its Frobenius law; at most four failing
    pairs are reported.  ``fstar`` must be a frame homomorphism
    (``as_frame_hom``)."""
    side, law = ("left", "frobenius") if left else ("right", "co-frobenius")
    as_frame_hom(fstar)
    adj = _adjoint(fstar, left)
    if adj is None:
        return OperatorReport(False, ((f"{side}-adjoint-exists", ()),))
    X, Y = fstar.target, fstar.source
    witnesses = tuple(
        (law, (X.label(a), Y.label(b))) for a, b in islice(_frobenius_failures(fstar, adj, left), 4)
    )
    return OperatorReport(not witnesses, witnesses)


def classify_open(fstar: MonotoneMap) -> OperatorReport:
    """Open-map check: a left adjoint exists and f_!(a ^ f*(b)) = f_!(a) ^ b."""
    return _classify(fstar, True)


def classify_proper(fstar: MonotoneMap) -> OperatorReport:
    """Proper-map check: f_*(a v f*(b)) = f_*(a) v b for the right adjoint.

    Scott-continuity of the right adjoint is automatic here: directed
    subsets of a finite lattice have greatest elements.
    """
    return _classify(fstar, False)


# ---------------------------------------------------------------------------
# operator constructions


def _require_endo(j: MonotoneMap, what: str) -> FiniteLattice:
    if j.source.elements != j.target.elements or j.source.poset.up != j.target.poset.up:
        raise LatticeError(f"{what} needs an endomorphism")
    return j.source


def kleene_closure(j: MonotoneMap) -> MonotoneMap:
    """Least join-preserving closure operator above the identity whose
    pre-fixed points agree with those of ``j``: iterate (id v j) to
    stability."""
    L = _require_endo(j, "kleene_closure")
    check_laws(j, JOIN_PRESERVING).require()
    cur = [L.join(x, j(x)) for x in range(L.n)]
    while True:
        nxt = [L.join(x, j(cur[x])) for x in range(L.n)]
        if nxt == cur:
            break
        cur = nxt
    out = MonotoneMap(L, L, tuple(cur))
    check_laws(out, CLOSURE_LAWS).require()
    return out


def interior_from_pair(
    gstar_radj: MonotoneMap, fstar: MonotoneMap
) -> tuple[MonotoneMap, OperatorReport]:
    """Form (g_* . f*) ^ id and report whether it is an interior operator.

    Idempotence is verified directly on the carrier instead of checking any
    side condition on maps into a pullback.  ``gstar_radj`` must preserve
    meets, as a right adjoint does (``OperatorLawError`` otherwise).
    """
    if fstar.target.elements != gstar_radj.source.elements:
        raise LatticeError("maps not composable")
    if fstar.source.elements != gstar_radj.target.elements:
        raise LatticeError("g_* must land back in the domain of f*")
    check_laws(gstar_radj, MEET_PRESERVING).require()
    X = fstar.source
    table = tuple(X.meet(gstar_radj(fstar(x)), x) for x in range(X.n))
    cand = MonotoneMap(X, X, table)
    return cand, check_laws(cand, INTERIOR_LAWS)


def coequaliser_closure(
    f_shriek: MonotoneMap,
    gstar: MonotoneMap,
    g_shriek: MonotoneMap,
    fstar: MonotoneMap,
) -> MonotoneMap:
    """Kleene closure of (f_! . g*) v (g_! . f*)."""
    a = compose(f_shriek, gstar)
    b = compose(g_shriek, fstar)
    X = a.source
    j = MonotoneMap(X, X, tuple(X.join(a(x), b(x)) for x in range(X.n)))
    return kleene_closure(j)


class QuotientMode(str, Enum):
    SEMI_OPEN = "semiOpen"
    OPEN = "open"
    SEMI_PROPER = "semiProper"
    PROPER = "proper"
    SEMI_TRIQUOTIENT = "semiTriquotient"
    TRIQUOTIENT = "triquotient"

    @property
    def info(self) -> "ModeInfo":
        return _MODE_INFO[self]

    @property
    def cli_name(self) -> str:
        return ("semi-" if self.info.semi else "") + self.info.family.name

    @property
    def semi_variant(self) -> "QuotientMode":
        """The semi mode of this mode's family (the mode itself if semi)."""
        return next(m for m in QuotientMode if m.info.semi and m.info.family is self.info.family)

    @staticmethod
    def parse(text: str) -> "QuotientMode":
        for m in QuotientMode:
            if text in (m.value, m.cli_name):
                return m
        raise ValueError(f"unknown quotient mode {text!r}")


class QuotientFamily(Record):
    """What the strict mode and the semi variant of a family share.

    ``tag`` prefixes the quotient's generators.  ``role`` is the type of
    the operator: a closure (open), an interior (proper) or a bare
    idempotent (triquotient).  It fixes the shape of the generator images
    (joins of generators, joins of finite meets, single generators), how
    they are read back off an operator, how an operator is derived from
    coinserter data and how random ones are drawn.
    ``ops`` are the lattice operations the pair relations are stated for,
    and the generator operations of the kind the parent presentation must
    have (``PresentationKind.with_ops``); a family with meet relations also
    gets the unit relation ``tag top = 1``, one with join relations the
    zero relation ``tag bottom = 0``.
    """

    __slots__ = ("name", "tag", "role", "ops")

    def __init__(self, name: str, tag: str, role: Role, ops: tuple[str, ...]):
        init = object.__setattr__
        init(self, "name", name)
        init(self, "tag", tag)
        init(self, "role", role)
        init(self, "ops", ops)


class ModeInfo(Record):
    """Every fact that sets one quotient mode apart.

    A semi mode relates the images of both generators of a pair, once per
    unordered pair; a strict mode relates one generator with the image of
    the other, in both orders.  ``laws`` is the law suite of the mode's
    operator."""

    __slots__ = ("family", "semi", "laws")

    def __init__(self, family: QuotientFamily, semi: bool, laws: tuple[str, ...]):
        init = object.__setattr__
        init(self, "family", family)
        init(self, "semi", semi)
        init(self, "laws", laws)


_OPEN = QuotientFamily("open", "dia", Role.CLOSURE_OP, ("meet",))
_PROPER = QuotientFamily("proper", "box", Role.INTERIOR_OP, ("join",))
_TRIQUOTIENT = QuotientFamily("triquotient", "boxtimes", Role.DCPO_IDEMPOTENT, ("meet", "join"))
# an idempotent fixing the bottom and the top: what both triquotient modes ask
_IDEMPOTENT = ("idempotent", "preserves-empty-join", "preserves-empty-meet")

_MODE_INFO = {
    QuotientMode.SEMI_OPEN: ModeInfo(_OPEN, True, CLOSURE_LAWS),
    QuotientMode.OPEN: ModeInfo(_OPEN, False, CLOSURE_LAWS + ("open-meet-law",)),
    QuotientMode.SEMI_PROPER: ModeInfo(_PROPER, True, INTERIOR_LAWS),
    QuotientMode.PROPER: ModeInfo(_PROPER, False, INTERIOR_LAWS + ("proper-join-law",)),
    QuotientMode.SEMI_TRIQUOTIENT: ModeInfo(_TRIQUOTIENT, True, _IDEMPOTENT + ("weak-meet-law", "weak-join-law")),
    QuotientMode.TRIQUOTIENT: ModeInfo(_TRIQUOTIENT, False, _IDEMPOTENT + ("open-meet-law", "proper-join-law")),
}


def check_quotient_operator(e: MonotoneMap, mode: QuotientMode) -> OperatorReport:
    """Exhaustive law suite for the operator encoding a quotient of the
    given mode.  e(1)=1 / e(0)=0 are phrased as empty meet/join
    preservation."""
    _require_endo(e, "check_quotient_operator")
    return check_laws(e, mode.info.laws)


def fixed_points(e: MonotoneMap) -> tuple[FiniteLattice, MonotoneMap]:
    """The fixed-point sub-poset of an idempotent endomorphism, with the
    corestricted retraction.  The carrier is rebuilt as a lattice (which
    also certifies the frame flag when the order is distributive)."""
    L = _require_endo(e, "fixed_points")
    check_laws(e, ["idempotent"]).require()
    keep = [u for u in range(L.n) if e(u) == u]
    # inclusion of ``L``'s masks is its order, in either lattice form
    masks = [L._masks[u] for u in keep]
    sub = subset_lattice(masks, dict(zip(masks, map(L.label, keep))).__getitem__)
    pos = {u: k for k, u in enumerate(keep)}
    retr = MonotoneMap(L, sub, tuple(pos[e(u)] for u in range(L.n)))
    return sub, retr


# ---------------------------------------------------------------------------
# order isomorphism fixed by generator images


def poset_isomorphism(
    a: FinitePoset, b: FinitePoset, pinned: Sequence[tuple[int, int]]
) -> Optional[tuple[int, ...]]:
    """The order isomorphism a -> b sending each pinned ``x`` to its ``y``,
    as an index table, or None when there is none.

    The pins must generate ``a``: each ``j`` in J, the join-irreducibles,
    is the meet of the pins above it, and every other ``x`` is the join of
    ``J ∩ ↓x``.  Both hold in a finite distributive lattice generated by
    the pins under finite meets and joins (write ``j`` as a join of meets
    of pins); a source where either fails raises ``LatticeError``.  Then
    the map is forced: ``j`` goes to the meet in ``b`` of the images of the
    pins above it, and ``x`` to the join in ``b`` of the images of
    ``J ∩ ↓x``.  It is an isomorphism iff it is a bijection that respects
    the pins and sends each ``↑j`` onto the upset of ``j``'s image, as
    ``x <= y`` iff every ``j`` in ``J ∩ ↓x`` is below ``y``.
    O(|J|·(n + p)) mask operations for p pins."""
    n = a.n
    if b.n != n:
        return None
    full = (1 << n) - 1
    irreducible = join_irreducibles(a)
    in_j = 0
    img: list[Optional[int]] = [None] * n
    for j in irreducible:
        in_j |= 1 << j
        meet_a, meet_b = full, full
        for x, y in pinned:
            if a.up[j] >> x & 1:
                meet_a &= a.down[x]
                meet_b &= b.down[y]
        if meet_a != a.down[j]:
            raise LatticeError("pins do not generate the source")
        img[j] = b.by_down.get(meet_b)
    for x in range(n):
        if not in_j >> x & 1:
            join_a, join_b = full, full
            for j in _bits(a.down[x] & in_j):
                join_a &= a.up[j]
                if img[j] is not None:  # else the None is caught below
                    join_b &= b.up[img[j]]
            # every element of a finite lattice is the join of the
            # join-irreducibles below it, so only a source that is no
            # lattice fails here
            if join_a != a.up[x]:
                raise LatticeError("pins do not generate the source")
            img[x] = b.by_up.get(join_b)
    if None in img or len(set(img)) != n:
        return None
    for j in irreducible:
        if sum(1 << img[y] for y in _bits(a.up[j])) != b.up[img[j]]:
            return None
    if any(img[x] != y for x, y in pinned):
        return None
    return tuple(img)
