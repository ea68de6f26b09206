"""Finite posets, lattices and monotone maps.

This is the exact kernel every symbolic construction is checked against:
downset frames, Galois adjoints, open/proper map classification, Kleene
closures, interior operators, quotient-operator law suites and fixed-point
subframes.  Everything is verified exhaustively on the finite carrier; no
law is ever assumed.

Order relations are stored as integer bitmasks (bit ``j`` of ``up[i]`` says
``i <= j``, bit ``j`` of ``down[i]`` says ``j <= i``), and so are subsets of
a poset's elements; ``unions``, ``maximal``, ``missing_bound`` and
``subset_poset`` are the one vocabulary for them.  A lattice keeps no
per-pair table: each meet or join is one lookup of a mask.  Birkhoff's test
(``is_distributive_lattice``) recognises a bounded distributive lattice in
O(n·|J|) mask operations, J its join-irreducibles, and ``subset_poset``
builds the order of n subsets of k points in O(n·k), so no frame is built
with O(n²) work; only a poset that fails the test takes an O(n²) pass.
``downsets`` of a 12-element antichain (4096 elements) takes about 0.04 s
and of a 14-element antichain (16384 elements, ``cap`` raised) about 0.3 s;
``eval_frame`` of the 8-point real-line grid without roundedness (4181
elements, ``max_carrier`` raised) takes about 0.15 s; best of three on a
2-core Intel Xeon.

Every enumeration is capped at oracle scale and fails with
"... exceeds oracle scale" past its cap:

* ``downsets``: 2**13 downsets (its ``cap`` argument);
* ``evaluate.eval_frame``: 2**15 formal meets of generators, and a
  presented frame of 2**12 elements (its ``max_carrier`` argument);
* ``evaluate.eval_suplattice`` / ``eval_preframe``: 16 generators and
  2**12 downsets / upsets; ``eval_dcpo``: 16 generators;
* the completions of ``presentation.saturate``: 2**15 elements.

An input just under its cap is built in seconds at most: ``eval_suplattice``
of a 12-antichain takes about 0.05 s, and ``saturate`` of a 15-antichain
(its 2**15-element completion) about 2.4 s and 0.6 GB.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Optional, Sequence


class LatticeError(Exception):
    """Base class for kernel errors."""


class InvalidPosetError(LatticeError):
    pass


class NotALatticeError(LatticeError):
    pass


class RoleError(LatticeError):
    """A map was used in a role it has not been verified for."""


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
    below = 0
    for f in _bits(mask):
        below |= down[f] ^ (1 << f)
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


def subset_poset(masks: Sequence[int], label, reverse: bool = False) -> "FinitePoset":
    """The distinct subsets, given as bitmasks in element order, under
    inclusion (reverse inclusion when ``reverse``).  ``label(mask)`` names
    each element; a repeated name gets primes appended.

    The order comes straight from the subsets, in O(n·k) mask operations
    over a ground set of k points: with ``has[e]`` the elements whose
    subset contains ``e``, the elements above ``m`` are the intersection of
    ``has[e]`` over ``e`` in ``m``, and those below it are the ones in no
    ``has[e]`` with ``e`` outside ``m``.  Reverse inclusion is inclusion of
    the complements."""
    if len(set(masks)) != len(masks):
        raise InvalidPosetError("repeated subset")
    labels = []
    taken: set[str] = set()
    for m in masks:
        lab = label(m)
        while lab in taken:
            lab += "'"
        taken.add(lab)
        labels.append(lab)
    if reverse:
        full = 0
        for m in masks:
            full |= m
        masks = [full & ~m for m in masks]
    has: dict[int, int] = {}
    for i, m in enumerate(masks):
        for e in _bits(m):
            has[e] = has.get(e, 0) | 1 << i
    everything = (1 << len(masks)) - 1
    up, down = [], []
    for m in masks:
        above, outside = everything, 0
        for e, h in has.items():
            if m >> e & 1:
                above &= h
            else:
                outside |= h
        up.append(above)
        down.append(everything & ~outside)
    return FinitePoset(tuple(labels), tuple(up), tuple(down))


@dataclass(frozen=True)
class FinitePoset:
    """A finite partial order on string labels."""

    elements: tuple[str, ...]
    up: tuple[int, ...]  # up[i] = bitmask of {j : i <= j}
    # down[i] = bitmask of {j : j <= i}; read off ``up`` when not given
    down: tuple[int, ...] = field(default=None, compare=False, repr=False)
    # the element of each mask: ``by_down[down[i] & down[j]]`` is the glb
    # of i and j and ``by_up[up[i] & up[j]]`` their lub, when they exist
    by_down: dict[int, int] = field(init=False, compare=False, repr=False)
    by_up: dict[int, int] = field(init=False, compare=False, repr=False)

    @staticmethod
    def from_pairs(elements: Sequence[str], pairs: Iterable[tuple[int, int]]) -> "FinitePoset":
        """Build from a relation given as index pairs; reflexive-transitive
        closure is taken, antisymmetry is checked."""
        n = len(elements)
        if len(set(elements)) != n:
            raise InvalidPosetError("duplicate element labels")
        up = [1 << i for i in range(n)]
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise InvalidPosetError(f"index pair ({i},{j}) out of range")
            up[i] |= 1 << j
        changed = True
        while changed:
            changed = False
            for i in range(n):
                acc = up[i]
                for j in _bits(up[i]):
                    acc |= up[j]
                if acc != up[i]:
                    up[i] = acc
                    changed = True
        for i in range(n):
            for j in _bits(up[i]):
                if i != j and (up[j] >> i) & 1:
                    raise InvalidPosetError(
                        f"antisymmetry fails: {elements[i]!r} and {elements[j]!r}"
                    )
        return FinitePoset(tuple(elements), tuple(up))

    def __post_init__(self):
        n = len(self.elements)
        for i in range(n):
            if not (self.up[i] >> i) & 1:
                raise InvalidPosetError(f"not reflexive at {self.elements[i]!r}")
        if self.down is None:
            masks = [0] * n
            for i in range(n):
                for j in _bits(self.up[i]):
                    masks[j] |= 1 << i
            object.__setattr__(self, "down", tuple(masks))
        object.__setattr__(self, "by_down", {m: i for i, m in enumerate(self.down)})
        object.__setattr__(self, "by_up", {m: i for i, m in enumerate(self.up)})

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
    which is tested first because it is cheaper.  The downsets are counted
    by set doubling, which stops at ``n + 1``; here ``φ`` is held as masks
    over all elements, with the bits of ``J`` only."""
    n, up, down = poset.n, poset.up, poset.down
    irreducible = join_irreducibles(poset)
    in_j = 0
    for j in irreducible:
        in_j |= 1 << j
    phi = [d & in_j for d in down]
    if len(set(phi)) != n:
        return False
    everything = (1 << n) - 1
    for x in range(n):
        acc = everything
        for j in _bits(phi[x]):
            acc &= up[j]
        if acc != up[x]:
            return False
    downsets_of_j = _union_set((phi[j] for j in irreducible), n)
    return downsets_of_j is not None and len(downsets_of_j) == n


class Role(str, Enum):
    PLAIN = "plain"
    SUPLATTICE_HOM = "suplatticeHom"
    PREFRAME_HOM = "preframeHom"
    FRAME_HOM = "frameHom"
    CLOSURE_OP = "closureOp"
    INTERIOR_OP = "interiorOp"
    DCPO_IDEMPOTENT = "dcpoIdempotent"


@dataclass(frozen=True)
class FiniteLattice:
    """A finite lattice presented by its order relation.

    It keeps no per-pair table: ``meet(i, j)`` is the element whose
    down-mask is ``down[i] & down[j]`` and ``join(i, j)`` the one whose
    up-mask is ``up[i] & up[j]``, one lookup each in the poset's mask
    index (``FinitePoset.by_down`` / ``by_up``).
    The ``frame`` flag means: bounded, all binary meets/joins exist and
    binary meet distributes over binary join (which in the finite case is
    full frame distributivity).
    """

    poset: FinitePoset
    distributive: bool
    top: int = 0
    bottom: int = 0

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

    @property
    def n(self) -> int:
        return self.poset.n

    @property
    def elements(self) -> tuple[str, ...]:
        return self.poset.elements

    @property
    def frame(self) -> bool:
        return self.distributive

    def leq(self, i: int, j: int) -> bool:
        return self.poset.leq(i, j)

    def meet(self, i: int, j: int) -> int:
        p = self.poset
        return p.by_down[p.down[i] & p.down[j]]

    def join(self, i: int, j: int) -> int:
        p = self.poset
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
        return self.poset.elements[i]


@dataclass(frozen=True)
class MonotoneMap:
    """A monotone map between finite lattices, given by its value table.

    The ``role`` tag is only ever set by the verification helpers below;
    constructing a map directly leaves it at PLAIN.
    """

    source: FiniteLattice
    target: FiniteLattice
    table: tuple[int, ...]
    role: Role = Role.PLAIN

    def __post_init__(self):
        n = self.source.n
        if len(self.table) != n:
            raise LatticeError("table length mismatch")
        for x in self.table:
            if not (0 <= x < self.target.n):
                raise LatticeError("table value out of range")
        for i in range(n):
            for j in _bits(self.source.poset.up[i]):
                if not self.target.leq(self.table[i], self.table[j]):
                    raise LatticeError(
                        "not monotone at "
                        f"{self.source.label(i)!r} <= {self.source.label(j)!r}"
                    )

    def __call__(self, i: int) -> int:
        return self.table[i]

    def with_role(self, role: Role) -> "MonotoneMap":
        return replace(self, role=role)


def compose(outer: MonotoneMap, inner: MonotoneMap) -> MonotoneMap:
    """outer after inner."""
    if inner.target.poset.elements != outer.source.poset.elements:
        raise LatticeError("maps not composable")
    return MonotoneMap(inner.source, outer.target, tuple(outer.table[x] for x in inner.table))


@dataclass(frozen=True)
class OperatorReport:
    """Outcome of an exhaustive law check.

    Each witness is ``(law_name, labels)`` and can be re-evaluated with
    ``recheck_witness``.
    """

    verdict: bool
    witnesses: tuple[tuple[str, tuple[str, ...]], ...] = ()
    notes: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.verdict


# ---------------------------------------------------------------------------
# law primitives


def _law_failures(f: MonotoneMap, law: str, limit: int = 4):
    """Yield witness tuples (element labels) violating the named law."""
    L, T = f.source, f.target
    n = L.n
    lab = L.label
    count = 0

    def emit(*idxs):
        nonlocal count
        count += 1
        return tuple(lab(i) for i in idxs)

    if law == "preserves-empty-join":
        if f(L.bottom) != T.bottom:
            yield emit(L.bottom)
        return
    if law == "preserves-empty-meet":
        if f(L.top) != T.top:
            yield emit(L.top)
        return
    if law == "inflationary":
        for a in range(n):
            if not L.leq(a, f(a)):
                yield emit(a)
                if count >= limit:
                    return
        return
    if law == "deflationary":
        for a in range(n):
            if not L.leq(f(a), a):
                yield emit(a)
                if count >= limit:
                    return
        return
    if law == "idempotent":
        for a in range(n):
            if f(f(a)) != f(a):
                yield emit(a)
                if count >= limit:
                    return
        return
    for a in range(n):
        for b in range(a, n):
            ok = True
            if law == "preserves-binary-join":
                ok = f(L.join(a, b)) == T.join(f(a), f(b))
            elif law == "preserves-binary-meet":
                ok = f(L.meet(a, b)) == T.meet(f(a), f(b))
            elif law == "open-meet-law":
                ok = L.leq(L.meet(f(a), f(b)), f(L.meet(a, f(b)))) and L.leq(
                    L.meet(f(b), f(a)), f(L.meet(b, f(a)))
                )
            elif law == "proper-join-law":
                ok = L.leq(f(L.join(a, f(b))), L.join(f(a), f(b))) and L.leq(
                    f(L.join(b, f(a))), L.join(f(b), f(a))
                )
            elif law == "weak-meet-law":
                ok = L.leq(L.meet(f(a), f(b)), f(L.meet(f(a), f(b))))
            elif law == "weak-join-law":
                ok = L.leq(f(L.join(f(a), f(b))), L.join(f(a), f(b)))
            else:
                raise LatticeError(f"unknown law {law!r}")
            if not ok:
                yield emit(a, b)
                if count >= limit:
                    return


def check_laws(f: MonotoneMap, laws: Sequence[str]) -> OperatorReport:
    witnesses = []
    for law in laws:
        for w in _law_failures(f, law):
            witnesses.append((law, w))
    return OperatorReport(not witnesses, tuple(witnesses))


_CLOSURE_LAWS = ("inflationary", "idempotent", "preserves-empty-join", "preserves-binary-join")
_INTERIOR_LAWS = ("deflationary", "idempotent", "preserves-empty-meet", "preserves-binary-meet")


def recheck_witness(f: MonotoneMap, witness: tuple[str, tuple[str, ...]]) -> bool:
    """True when the witness still violates its law (i.e. it is genuine).

    For the map-classification laws ``f`` is the frame homomorphism that
    was classified; for operator laws it is the endomorphism."""
    law, labels = witness
    if law in ("left-adjoint-exists", "right-adjoint-exists"):
        adj = left_adjoint(f) if law.startswith("left") else right_adjoint(f)
        return adj is None
    if law in ("frobenius", "co-frobenius"):
        X, Y = f.target, f.source
        a, b = X.poset.index(labels[0]), Y.poset.index(labels[1])
        if law == "frobenius":
            l = left_adjoint(f)
            return l is not None and l(X.meet(a, f(b))) != Y.meet(l(a), b)
        r = right_adjoint(f)
        return r is not None and r(X.join(a, f(b))) != Y.join(r(a), b)
    failures = _law_failures(f, law, limit=f.source.n * f.source.n + 1)
    return tuple(labels) in {tuple(w) for w in failures}


def preserves_all_meets(f: MonotoneMap) -> bool:
    return check_laws(f, ["preserves-empty-meet", "preserves-binary-meet"]).verdict


def as_frame_hom(f: MonotoneMap) -> MonotoneMap:
    rep = check_laws(
        f,
        [
            "preserves-empty-join",
            "preserves-binary-join",
            "preserves-empty-meet",
            "preserves-binary-meet",
        ],
    )
    if not rep:
        raise OperatorLawError(rep)
    return f.with_role(Role.FRAME_HOM)


def subset_lattice(masks: Sequence[int], label, reverse: bool = False) -> FiniteLattice:
    """The lattice of ``subset_poset(masks, label, reverse)``."""
    return FiniteLattice.from_poset(subset_poset(masks, label, reverse))


# ---------------------------------------------------------------------------
# downset frames


def downsets(poset: FinitePoset, cap: int = 1 << 13) -> FiniteLattice:
    """The frame of down-closed subsets of a poset, ordered by inclusion."""
    masks = unions(poset.down, cap, "downset lattice")
    lat = subset_lattice(
        masks, lambda mask: "{" + ",".join(poset.elements[i] for i in _bits(mask)) + "}"
    )
    if not lat.frame:
        raise LatticeError("downset lattice failed the frame check")
    return lat


# ---------------------------------------------------------------------------
# adjoints


def left_adjoint(f: MonotoneMap) -> Optional[MonotoneMap]:
    """The left Galois adjoint of ``f`` when it exists.

    Candidate: l(b) = meet of {a : b <= f(a)}; returned only when the full
    adjunction l(b) <= a iff b <= f(a) holds.
    """
    src, tgt = f.source, f.target
    table = []
    for b in range(tgt.n):
        table.append(src.meet_all(a for a in range(src.n) if tgt.leq(b, f(a))))
    try:
        cand = MonotoneMap(tgt, src, tuple(table))
    except LatticeError:
        return None
    for b in range(tgt.n):
        for a in range(src.n):
            if src.leq(cand(b), a) != tgt.leq(b, f(a)):
                return None
    return cand.with_role(Role.SUPLATTICE_HOM)


def right_adjoint(f: MonotoneMap) -> Optional[MonotoneMap]:
    """Dual of ``left_adjoint``: r(b) = join of {a : f(a) <= b}."""
    src, tgt = f.source, f.target
    table = []
    for b in range(tgt.n):
        table.append(src.join_all(a for a in range(src.n) if tgt.leq(f(a), b)))
    try:
        cand = MonotoneMap(tgt, src, tuple(table))
    except LatticeError:
        return None
    for b in range(tgt.n):
        for a in range(src.n):
            if src.leq(a, cand(b)) != tgt.leq(f(a), b):
                return None
    return cand.with_role(Role.PREFRAME_HOM)


def classify_open(fstar: MonotoneMap) -> OperatorReport:
    """Open-map check: a left adjoint exists and f_!(a ^ f*(b)) = f_!(a) ^ b."""
    if fstar.role != Role.FRAME_HOM:
        raise RoleError("classify_open needs a verified frame homomorphism")
    shriek = left_adjoint(fstar)
    if shriek is None:
        return OperatorReport(False, (("left-adjoint-exists", ()),))
    X, Y = fstar.target, fstar.source
    witnesses = []
    for a in range(X.n):
        for b in range(Y.n):
            if shriek(X.meet(a, fstar(b))) != Y.meet(shriek(a), b):
                witnesses.append(("frobenius", (X.label(a), Y.label(b))))
                if len(witnesses) >= 4:
                    return OperatorReport(False, tuple(witnesses))
    return OperatorReport(not witnesses, tuple(witnesses))


def classify_proper(fstar: MonotoneMap) -> OperatorReport:
    """Proper-map check: f_*(a v f*(b)) = f_*(a) v b for the right adjoint.

    Scott-continuity of the right adjoint is automatic here: directed
    subsets of a finite lattice have greatest elements.
    """
    if fstar.role != Role.FRAME_HOM:
        raise RoleError("classify_proper needs a verified frame homomorphism")
    star = right_adjoint(fstar)
    if star is None:
        return OperatorReport(False, (("right-adjoint-exists", ()),))
    X, Y = fstar.target, fstar.source
    witnesses = []
    for a in range(X.n):
        for b in range(Y.n):
            if star(X.join(a, fstar(b))) != Y.join(star(a), b):
                witnesses.append(("co-frobenius", (X.label(a), Y.label(b))))
                if len(witnesses) >= 4:
                    return OperatorReport(False, tuple(witnesses))
    return OperatorReport(not witnesses, tuple(witnesses))


# ---------------------------------------------------------------------------
# operator constructions


def _require_endo(j: MonotoneMap, what: str) -> FiniteLattice:
    if j.source.poset.elements != j.target.poset.elements or j.source.poset.up != j.target.poset.up:
        raise LatticeError(f"{what} needs an endomorphism")
    return j.source


def kleene_closure(j: MonotoneMap) -> MonotoneMap:
    """Least join-preserving closure operator above the identity whose
    pre-fixed points agree with those of ``j``: iterate (id v j) to
    stability."""
    L = _require_endo(j, "kleene_closure")
    rep = check_laws(j, ["preserves-empty-join", "preserves-binary-join"])
    if not rep:
        raise OperatorLawError(rep)
    cur = [L.join(x, j(x)) for x in range(L.n)]
    while True:
        nxt = [L.join(x, j(cur[x])) for x in range(L.n)]
        if nxt == cur:
            break
        cur = nxt
    out = MonotoneMap(L, L, tuple(cur))
    rep = check_laws(out, _CLOSURE_LAWS)
    if not rep:
        raise OperatorLawError(rep)
    return out.with_role(Role.CLOSURE_OP)


def prefixed_subframe(j: MonotoneMap) -> tuple[FiniteLattice, MonotoneMap]:
    """The elements with j(u) <= u, verified to be a subframe, with its
    inclusion (a frame homomorphism that has a left adjoint)."""
    L = _require_endo(j, "prefixed_subframe")
    rep = check_laws(j, ["preserves-empty-join", "preserves-binary-join"])
    if not rep:
        raise OperatorLawError(rep)
    keep = [u for u in range(L.n) if L.leq(j(u), u)]
    for a in keep:
        for b in keep:
            if L.meet(a, b) not in keep or L.join(a, b) not in keep:
                raise LatticeError("pre-fixed points not closed under meet/join")
    sub = sublattice(L, keep)
    incl = MonotoneMap(sub, L, tuple(keep))
    incl = as_frame_hom(incl)
    if left_adjoint(incl) is None:
        raise LatticeError("inclusion of pre-fixed points lost its left adjoint")
    return sub, incl


def sublattice(L: FiniteLattice, indices: Sequence[str] | Sequence[int]) -> FiniteLattice:
    idxs = [L.poset.index(i) if isinstance(i, str) else i for i in indices]
    pos = {i: a for a, i in enumerate(idxs)}
    up = [sum(1 << pos[k] for k in _bits(L.poset.up[i]) if k in pos) for i in idxs]
    return FiniteLattice.from_poset(FinitePoset(tuple(L.label(i) for i in idxs), tuple(up)))


def interior_from_pair(
    gstar_radj: MonotoneMap, fstar: MonotoneMap
) -> tuple[MonotoneMap, OperatorReport]:
    """Form (g_* . f*) ^ id and grant the interior role iff it is idempotent.

    Idempotence is verified directly on the carrier instead of checking any
    side condition on maps into a pullback; see
    ``coinserter_transitivity_check`` for the optional witness route.
    """
    if fstar.target.poset.elements != gstar_radj.source.poset.elements:
        raise LatticeError("maps not composable")
    if fstar.source.poset.elements != gstar_radj.target.poset.elements:
        raise LatticeError("g_* must land back in the domain of f*")
    if not preserves_all_meets(gstar_radj):
        raise RoleError("gstar_radj is not a right adjoint (fails meet preservation)")
    X = fstar.source
    table = tuple(X.meet(gstar_radj(fstar(x)), x) for x in range(X.n))
    cand = MonotoneMap(X, X, table)
    rep = check_laws(cand, _INTERIOR_LAWS)
    if rep:
        cand = cand.with_role(Role.INTERIOR_OP)
    return cand, rep


def coinserter_transitivity_check(
    gstar: MonotoneMap,
    fstar: MonotoneMap,
    tstar: MonotoneMap,
    pi1star: MonotoneMap,
    pi2star: MonotoneMap,
) -> OperatorReport:
    """Optional witness route: caller supplies the frame maps of t, pi1, pi2
    and we verify pi2*.g* <= t*.g* and t*.f* <= pi1*.f* pointwise."""
    lhs1, rhs1 = compose(pi2star, gstar), compose(tstar, gstar)
    lhs2, rhs2 = compose(tstar, fstar), compose(pi1star, fstar)
    W = tstar.target
    witnesses = []
    for x in range(lhs1.source.n):
        if not W.leq(lhs1(x), rhs1(x)):
            witnesses.append(("g.pi2 <= g.t", (lhs1.source.label(x),)))
        if not W.leq(lhs2(x), rhs2(x)):
            witnesses.append(("f.t <= f.pi1", (lhs2.source.label(x),)))
    return OperatorReport(not witnesses, tuple(witnesses))


def check_reflexive_section(
    rstar: MonotoneMap, fstar: MonotoneMap, gstar: MonotoneMap
) -> OperatorReport:
    """Verify r*.f* = id and r*.g* = id for a caller-supplied common section."""
    witnesses = []
    for name, star in (("r.f = id", fstar), ("r.g = id", gstar)):
        comp = compose(rstar, star)
        for x in range(comp.source.n):
            if comp(x) != x:
                witnesses.append((name, (comp.source.label(x),)))
    return OperatorReport(not witnesses, tuple(witnesses))


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


@dataclass(frozen=True)
class QuotientFamily:
    """What the strict mode and the semi variant of a family share.

    ``tag`` prefixes the quotient's generators and ``kind`` is the value of
    the ``PresentationKind`` the parent presentation must have.  ``role``
    is the type of the operator: a closure (open), an interior (proper) or
    a bare idempotent (triquotient).  It fixes the shape of the generator
    images (joins of generators, joins of finite meets, single
    generators), how they are read back off an operator, how an operator
    is derived from coinserter data and how random ones are drawn.
    ``ops`` are the lattice operations the pair relations are stated for;
    a family with meet relations also gets the unit relation
    ``tag top = 1``, one with join relations the zero relation
    ``tag bottom = 0``.
    """

    name: str
    tag: str
    kind: str
    role: Role
    ops: tuple[str, ...]


@dataclass(frozen=True)
class ModeInfo:
    """Every fact that sets one quotient mode apart.

    A semi mode relates the images of both generators of a pair, once per
    unordered pair; a strict mode relates one generator with the image of
    the other, in both orders.  ``laws`` is the law suite of the mode's
    operator."""

    family: QuotientFamily
    semi: bool
    laws: tuple[str, ...]


_OPEN = QuotientFamily("open", "dia", "sup", Role.CLOSURE_OP, ("meet",))
_PROPER = QuotientFamily("proper", "box", "preframe", Role.INTERIOR_OP, ("join",))
_TRIQUOTIENT = QuotientFamily(
    "triquotient", "boxtimes", "dcpo", Role.DCPO_IDEMPOTENT, ("meet", "join")
)

_MODE_INFO = {
    QuotientMode.SEMI_OPEN: ModeInfo(_OPEN, True, _CLOSURE_LAWS),
    QuotientMode.OPEN: ModeInfo(_OPEN, False, _CLOSURE_LAWS + ("open-meet-law",)),
    QuotientMode.SEMI_PROPER: ModeInfo(_PROPER, True, _INTERIOR_LAWS),
    QuotientMode.PROPER: ModeInfo(_PROPER, False, _INTERIOR_LAWS + ("proper-join-law",)),
    QuotientMode.SEMI_TRIQUOTIENT: ModeInfo(
        _TRIQUOTIENT,
        True,
        ("idempotent", "preserves-empty-join", "preserves-empty-meet", "weak-meet-law", "weak-join-law"),
    ),
    QuotientMode.TRIQUOTIENT: ModeInfo(
        _TRIQUOTIENT,
        False,
        ("idempotent", "preserves-empty-join", "preserves-empty-meet", "open-meet-law", "proper-join-law"),
    ),
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
    rep = check_laws(e, ["idempotent"])
    if not rep:
        raise OperatorLawError(rep)
    keep = [u for u in range(L.n) if e(u) == u]
    sub = sublattice(L, keep)
    pos = {u: k for k, u in enumerate(keep)}
    retr = MonotoneMap(L, sub, tuple(pos[e(u)] for u in range(L.n)))
    return sub, retr


# ---------------------------------------------------------------------------
# order isomorphism search


def _joint_colors(a: FinitePoset, b: FinitePoset) -> tuple[list[int], list[int]]:
    """Partition refinement by up/down neighbourhood signatures, run jointly
    so that equal signatures get equal colors in both posets."""

    def start(p: FinitePoset):
        down = p.down
        return [
            (bin(p.up[i]).count("1"), bin(down[i]).count("1")) for i in range(p.n)
        ]

    table: dict = {}
    ca = [table.setdefault(s, len(table)) for s in start(a)]
    cb = [table.setdefault(s, len(table)) for s in start(b)]
    da, db = a.down, b.down
    for _ in range(a.n + b.n):
        table = {}

        def step(p: FinitePoset, down, colors):
            out = []
            for i in range(p.n):
                sig = (
                    colors[i],
                    tuple(sorted(colors[j] for j in _bits(p.up[i]))),
                    tuple(sorted(colors[j] for j in _bits(down[i]))),
                )
                out.append(table.setdefault(sig, len(table)))
            return out

        na, nb = step(a, da, ca), step(b, db, cb)
        if na == ca and nb == cb:
            break
        ca, cb = na, nb
    return ca, cb


def poset_isomorphism(
    a: FinitePoset,
    b: FinitePoset,
    pinned: Sequence[tuple[int, int]] = (),
) -> Optional[tuple[int, ...]]:
    """Order isomorphism a -> b as an index table, or None.  Deterministic
    for fixed inputs; ``pinned`` forces images of given indices."""
    if a.n != b.n:
        return None
    ca, cb = _joint_colors(a, b)
    if sorted(ca) != sorted(cb):
        return None
    n = a.n
    img = [-1] * n
    used = [False] * n

    def compatible(x: int, y: int) -> bool:
        if cb[y] != ca[x]:
            return False
        for z in range(n):
            w = img[z]
            if w >= 0 and (
                a.leq(x, z) != b.leq(y, w) or a.leq(z, x) != b.leq(w, y)
            ):
                return False
        return True

    for x, y in pinned:
        if img[x] == y:
            continue
        if img[x] >= 0 or used[y] or not compatible(x, y):
            return None
        img[x] = y
        used[y] = True

    order = sorted(
        (i for i in range(n) if img[i] < 0),
        key=lambda i: (ca.count(ca[i]), i),
    )

    def search(k: int) -> bool:
        if k == len(order):
            return True
        x = order[k]
        for y in range(n):
            if used[y]:
                continue
            if compatible(x, y):
                img[x] = y
                used[y] = True
                if search(k + 1):
                    return True
                img[x] = -1
                used[y] = False
        return False

    if not search(0):
        return None
    return tuple(img)


def order_isomorphic(
    a: FiniteLattice,
    b: FiniteLattice,
    pinned: Sequence[tuple[int, int]] = (),
) -> Optional[MonotoneMap]:
    """Order isomorphism between lattices, as a MonotoneMap, or None."""
    table = poset_isomorphism(a.poset, b.poset, pinned)
    if table is None:
        return None
    return MonotoneMap(a, b, table)
