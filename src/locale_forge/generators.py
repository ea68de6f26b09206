"""Generator domains: the carriers that presentations are written over.

A domain knows its generators by canonical string keys, their order, and
whatever semilattice/lattice structure it declares.  Finite domains derive
structure from their poset (declared meets/joins are verified against
greatest lower / least upper bounds); the symbolic interval domains live in
``intervals`` and register themselves in ``DOMAIN_REGISTRY``, which
``builtin_domain`` reads.

Meets of generators written inside terms always mean the domain's meet
(they fold when the domain has one); joins of generators are formal frame
joins and never fold.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

from .lattice import (
    FinitePoset,
    QuotientMode,
    _bits,
    is_distributive_lattice,
    missing_bound,
)
from .rationals import ExtRat
from .terms import GenPattern, TermError


class DomainError(Exception):
    pass


class UnknownDomainError(DomainError):
    """A domain descriptor whose type names no domain."""


# the generator tags of the quotient families, read off the modes
QUOTIENT_TAGS = tuple(dict.fromkeys(mode.info.family.tag for mode in QuotientMode))


class GeneratorDomain:
    """Interface; see FiniteGeneratorDomain and the interval domains."""

    name: str = "abstract"
    finite: bool = False
    has_meet: bool = False
    has_join: bool = False
    # the constructor of pattern generators ``ctor(...)``, if the domain has one
    ctor: Optional[str] = None

    # -- structure flags -------------------------------------------------
    @property
    def meet_semilattice(self) -> bool:
        return self.has_meet and self.top() is not None

    @property
    def join_semilattice(self) -> bool:
        return self.has_join and self.bottom() is not None

    @property
    def distributive_lattice(self) -> bool:
        return self.meet_semilattice and self.join_semilattice and self._distributive

    _distributive: bool = False

    @cached_property
    def memo(self) -> dict:
        """Facts derived from this domain object alone: normal forms
        (``terms.normalize``), the stability-instance kernel of a finite
        domain with its polynomial image tables
        (``presentation.instance_kernel``) and, on the interval domains,
        the parsed endpoints of each generator key (under the key string
        itself).  Created on first use; it belongs to the object, never to
        an equal domain, and dies with it."""
        return {}

    # -- generator algebra ------------------------------------------------
    def contains(self, key: str) -> bool:
        raise NotImplementedError

    def leq(self, a: str, b: str) -> bool:
        raise NotImplementedError

    def up_masks(self, keys: Sequence[str]) -> list[int]:
        """For each of ``keys``, the mask of the positions of the keys
        above it: here one ``leq`` per pair."""
        return [sum(1 << j for j, b in enumerate(keys) if self.leq(a, b)) for a in keys]

    def meet(self, a: str, b: str) -> str:
        raise DomainError(f"domain {self.name!r} has no meet operation")

    def join(self, a: str, b: str) -> str:
        raise DomainError(f"domain {self.name!r} has no join operation")

    def top(self) -> Optional[str]:
        return None

    def bottom(self) -> Optional[str]:
        return None

    def enumerate_gens(self) -> list[str]:
        """The generators of a finite domain, in the order of its poset."""
        raise DomainError(f"domain {self.name!r} is not finite")

    def sort_key(self, key: str):
        return key

    def key_endpoints(self, key: str) -> Optional[tuple[ExtRat, ExtRat]]:
        """The two endpoints written in a generator key, on a domain whose
        keys have them; None otherwise, and for a key without any."""
        return None

    @property
    def sorted_poset(self) -> FinitePoset:
        """The generators in ``sort_key`` order under their order, on
        finite domains: the one order the evaluators index them by."""
        raise DomainError(f"domain {self.name!r} is not finite")

    # -- schematic support --------------------------------------------------
    def instantiate_pattern(self, pat: GenPattern, env: dict[str, ExtRat], n: Optional[int] = None) -> str:
        return self.ends_key(self.pattern_ends(pat, env, n))

    def pattern_ends(self, pat: GenPattern, env: dict[str, ExtRat], n: Optional[int] = None):
        """The values of ``pat`` at ``(env, n)`` that its key is built
        from (``ends_key``): equal ends give one key, and unequal ones two."""
        raise DomainError(f"domain {self.name!r} has no pattern constructors")

    def ends_key(self, ends) -> str:
        raise NotImplementedError

    def meet_patterns(self, a: GenPattern, b: GenPattern) -> GenPattern:
        raise DomainError(f"domain {self.name!r} cannot meet patterns symbolically")

    def join_patterns(self, a: GenPattern, b: GenPattern) -> GenPattern:
        raise DomainError(f"domain {self.name!r} cannot join patterns symbolically")

    def grid_values(self, grid: Sequence[ExtRat]) -> list[ExtRat]:
        """Values a schema parameter ranges over when instantiated."""
        raise DomainError(f"domain {self.name!r} is not parametric")

    def descriptor(self) -> dict:
        """The JSON form that ``domain_from_descriptor`` reads back."""
        return {"type": self.name}

    # equality by descriptor keeps records that hold a domain comparable
    def __eq__(self, other) -> bool:
        return other is self or (isinstance(other, GeneratorDomain) and self.descriptor() == other.descriptor())

    def __hash__(self) -> int:
        import json

        return hash(json.dumps(self.descriptor(), sort_keys=True))


class FiniteGeneratorDomain(GeneratorDomain):
    """An explicit finite poset of generators.

    Meets and joins are the glb/lub of the poset when these are total, read
    off the order by one lookup of a mask (``FinitePoset.by_down`` /
    ``by_up``), so they obey the semilattice laws by construction; declared
    operations (from the DSL) are verified against them.
    Distributivity is Birkhoff's exact test
    (``lattice.is_distributive_lattice``), decided once per object; a
    distributive lattice has every glb and lub, so only a poset that fails
    it takes the O(n²) pass for their existence.
    """

    def __init__(
        self,
        poset: FinitePoset,
        verify_decls: Iterable[tuple[str, str, str, str]] = (),
        use_meet: Optional[bool] = None,
        use_join: Optional[bool] = None,
    ):
        self.poset = poset
        self.name = "finite"
        self.finite = True
        self._index = {e: i for i, e in enumerate(poset.elements)}
        self._distributive = is_distributive_lattice(poset)

        def total(use: Optional[bool], masks, index) -> bool:
            # structure can be suppressed: a poset whose glbs exist need not
            # mean the generators carry meet structure (the frame meet of
            # generators can differ from their order-theoretic glb)
            return use is not False and (self._distributive or missing_bound(masks, index) is None)

        self.has_meet = total(use_meet, poset.down, poset.by_down)
        self.has_join = total(use_join, poset.up, poset.by_up)
        if use_meet is True and not self.has_meet:
            raise DomainError("meet structure required but some glb is missing")
        if use_join is True and not self.has_join:
            raise DomainError("join structure required but some lub is missing")
        full = (1 << poset.n) - 1
        top, bottom = poset.by_down.get(full), poset.by_up.get(full)
        self._top = None if top is None else poset.elements[top]
        self._bottom = None if bottom is None else poset.elements[bottom]
        for op, a, b, c in verify_decls:
            want = self.meet(a, b) if op == "meet" else self.join(a, b)
            if want != c:
                raise DomainError(
                    f"declared {op} {a} {b} = {c} conflicts with the order (expected {want})"
                )

    def contains(self, key: str) -> bool:
        return key in self._index

    def _idx(self, key: str) -> int:
        try:
            return self._index[key]
        except KeyError:
            raise TermError(f"generator {key!r} not in finite domain") from None

    def leq(self, a: str, b: str) -> bool:
        return self.poset.leq(self._idx(a), self._idx(b))

    def meet(self, a: str, b: str) -> str:
        if not self.has_meet:
            raise DomainError("finite domain is not meet-closed")
        p = self.poset
        return p.elements[p.by_down[p.down[self._idx(a)] & p.down[self._idx(b)]]]

    def join(self, a: str, b: str) -> str:
        if not self.has_join:
            raise DomainError("finite domain is not join-closed")
        p = self.poset
        return p.elements[p.by_up[p.up[self._idx(a)] & p.up[self._idx(b)]]]

    def top(self) -> Optional[str]:
        return self._top

    def bottom(self) -> Optional[str]:
        return self._bottom

    def enumerate_gens(self) -> list[str]:
        return list(self.poset.elements)

    @cached_property
    def sorted_poset(self) -> FinitePoset:
        # the poset's own masks, renumbered into sort order
        p = self.poset
        order = sorted(range(p.n), key=lambda i: self.sort_key(p.elements[i]))
        pos = {old: new for new, old in enumerate(order)}
        renumber = lambda masks: tuple(sum(1 << pos[j] for j in _bits(masks[i])) for i in order)
        return FinitePoset(tuple(p.elements[i] for i in order), renumber(p.up), renumber(p.down))

    def descriptor(self) -> dict:
        up = self.poset.up
        pairs = sorted(
            (i, j) for i in range(self.poset.n) for j in _bits(up[i])
        )
        return {
            "type": "finite",
            "elements": list(self.poset.elements),
            "leq": [list(p) for p in pairs],
            "structure": {"meet": self.has_meet, "join": self.has_join},
        }


class TaggedDomain(GeneratorDomain):
    """Wrapper generators ``tag parent-generator`` with the parent's order
    and no algebraic structure (the quotient relations supply it)."""

    def __init__(self, tag: str, parent: GeneratorDomain):
        if tag not in QUOTIENT_TAGS:
            raise DomainError(f"unknown generator tag {tag!r}")
        self.tag = tag
        self.parent = parent
        self.name = f"tagged-{tag}-{parent.name}"
        self.finite = parent.finite
        self.has_meet = False
        self.has_join = False

    def wrap(self, key: str) -> str:
        return f"{self.tag} {key}"

    def unwrap(self, key: str) -> str:
        prefix = self.tag + " "
        if not key.startswith(prefix):
            raise TermError(f"generator {key!r} lacks tag {self.tag!r}")
        return key[len(prefix):]

    def contains(self, key: str) -> bool:
        prefix = self.tag + " "
        return key.startswith(prefix) and self.parent.contains(key[len(prefix):])

    def leq(self, a: str, b: str) -> bool:
        return self.parent.leq(self.unwrap(a), self.unwrap(b))

    def enumerate_gens(self) -> list[str]:
        return [self.wrap(g) for g in self.parent.enumerate_gens()]

    @cached_property
    def sorted_poset(self) -> FinitePoset:
        p = self.parent.sorted_poset
        return FinitePoset(tuple(map(self.wrap, p.elements)), p.up, p.down)

    def sort_key(self, key: str):
        return self.parent.sort_key(self.unwrap(key))

    def _untagged(self, pat: GenPattern) -> GenPattern:
        if not pat.tags:
            raise TermError("untagged pattern in tagged domain")
        if pat.tags[0] != self.tag:
            raise TermError(f"pattern tag {pat.tags[0]!r} does not match domain tag {self.tag!r}")
        return GenPattern(pat.ctor, pat.args, pat.tags[1:])

    def pattern_ends(self, pat: GenPattern, env: dict[str, ExtRat], n: Optional[int] = None):
        return self.parent.pattern_ends(self._untagged(pat), env, n)

    def ends_key(self, ends) -> str:
        return self.wrap(self.parent.ends_key(ends))

    def key_endpoints(self, key: str):
        return self.parent.key_endpoints(self.unwrap(key))

    def grid_values(self, grid):
        return self.parent.grid_values(grid)

    def descriptor(self) -> dict:
        return {"type": "tagged", "tag": self.tag, "parent": self.parent.descriptor()}


def memoized(owner, key, make: Callable):
    """``owner.memo[key]``, made by ``make()`` when first asked for."""
    out = owner.memo.get(key)
    if out is None:
        out = owner.memo[key] = make()
    return out


# populated by the builtin symbolic domains on import
DOMAIN_REGISTRY: dict[str, Callable[[], GeneratorDomain]] = {}


def builtin_domain(name: str) -> Optional[Callable[[], GeneratorDomain]]:
    """The constructor registered under ``name``, or None.  The builtin
    domains register themselves when ``intervals`` is imported, so a name
    not registered yet imports it first."""
    if name not in DOMAIN_REGISTRY:
        from . import intervals  # noqa: F401  (fills DOMAIN_REGISTRY)
    return DOMAIN_REGISTRY.get(name)


def domain_from_descriptor(desc: dict) -> GeneratorDomain:
    kind = desc.get("type")
    if kind == "finite":
        structure = desc.get("structure", {})
        return FiniteGeneratorDomain(
            FinitePoset.from_pairs(desc["elements"], [tuple(p) for p in desc["leq"]]),
            use_meet=structure.get("meet"),
            use_join=structure.get("join"),
        )
    if kind == "tagged":
        return TaggedDomain(desc["tag"], domain_from_descriptor(desc["parent"]))
    make = builtin_domain(kind)
    if make is not None:
        return make()
    raise UnknownDomainError(f"unknown domain descriptor {kind!r}")
