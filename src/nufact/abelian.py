"""Exact arithmetic in finite abelian groups given as products of cyclic groups.

A group is described by its list of moduli: ``[3]`` is Z/3Z, ``[2, 4]`` is
Z/2 x Z/4.  Elements are vectors of residues, one per modulus.  No structure
computation (Smith normal form etc.) is performed; callers supply the moduli
directly, which is how every worked example in this package arises.

>>> G = make_group([3])
>>> add(G.element([1]), G.element([2]))
GroupElement(0 in 3)
"""

from __future__ import annotations

import itertools
from math import prod

DEFAULT_ELEMENT_CAP = 10**6


class CapExceeded(ValueError):
    """An enumeration would exceed the configured size cap."""


class FinAbGroup:
    """A finite abelian group Z/n1 x ... x Z/nk, each ni >= 1.

    Immutable; two groups compare equal iff their moduli agree.
    """

    __slots__ = ("moduli",)

    def __init__(self, moduli):
        moduli = tuple(int(n) for n in moduli)
        if not moduli:
            raise ValueError("need at least one modulus (use [1] for the trivial group)")
        if any(n < 1 for n in moduli):
            raise ValueError(f"moduli must be >= 1, got {list(moduli)}")
        self.moduli = moduli

    @property
    def order(self) -> int:
        return prod(self.moduli)

    def element(self, coords) -> "GroupElement":
        """Build an element, reducing each coordinate mod its modulus."""
        coords = tuple(int(c) for c in coords)
        if len(coords) != len(self.moduli):
            raise ValueError(
                f"expected {len(self.moduli)} coordinates, got {len(coords)}"
            )
        return GroupElement(self, tuple(c % n for c, n in zip(coords, self.moduli)))

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * len(self.moduli))

    def __eq__(self, other):
        if not isinstance(other, FinAbGroup):
            return NotImplemented
        return self.moduli == other.moduli

    def __hash__(self):
        return hash(self.moduli)

    def __repr__(self):
        return f"FinAbGroup({format_group(self)!r})"

    # ------------------------------------------------------------------
    # text syntax: "3" is Z/3Z, "2x4" is Z/2 x Z/4

    @classmethod
    def from_text(cls, text: str) -> "FinAbGroup":
        parts = text.strip().split("x")
        try:
            moduli = [int(p) for p in parts]
        except ValueError:
            raise ValueError(f"bad group syntax {text!r}; expected e.g. '3' or '2x4'")
        return cls(moduli)

    def parse_element(self, text: str) -> "GroupElement":
        parts = text.strip().split(",")
        try:
            coords = [int(p) for p in parts]
        except ValueError:
            raise ValueError(f"bad element syntax {text!r}; expected e.g. '1' or '1,0'")
        return self.element(coords)


class GroupElement:
    """An element of a :class:`FinAbGroup`, stored as reduced residues.

    Elements order lexicographically by coordinates, which fixes the canonical
    orderings used throughout the zero-sum machinery.
    """

    __slots__ = ("group", "coords")

    def __init__(self, group: FinAbGroup, coords: tuple):
        self.group = group
        self.coords = coords

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.group == other.group and self.coords == other.coords

    def __hash__(self):
        return hash((self.group.moduli, self.coords))

    def __lt__(self, other):
        self._check_same_group(other)
        return self.coords < other.coords

    def __le__(self, other):
        self._check_same_group(other)
        return self.coords <= other.coords

    def _check_same_group(self, other):
        if not isinstance(other, GroupElement) or self.group != other.group:
            raise ValueError("elements belong to different groups")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __repr__(self):
        return f"GroupElement({format_element(self)} in {format_group(self.group)})"


def make_group(moduli) -> FinAbGroup:
    """Create the group Z/n1 x ... x Z/nk from a list of positive moduli."""
    return FinAbGroup(moduli)


def add(a: GroupElement, b: GroupElement) -> GroupElement:
    """Componentwise sum mod the moduli.  Both elements must share a group."""
    a._check_same_group(b)
    n = a.group.moduli
    return GroupElement(
        a.group, tuple((x + y) % m for x, y, m in zip(a.coords, b.coords, n))
    )


def neg(a: GroupElement) -> GroupElement:
    return GroupElement(a.group, tuple((-x) % m for x, m in zip(a.coords, a.group.moduli)))


def scale(a: GroupElement, k: int) -> GroupElement:
    """k-fold sum of a (k may be any integer)."""
    return GroupElement(a.group, tuple((x * k) % m for x, m in zip(a.coords, a.group.moduli)))


def enumerate_elements(G: FinAbGroup, cap: int | None = None) -> list[GroupElement]:
    """All |G| elements in lexicographic coordinate order.

    Raises :class:`CapExceeded` when |G| exceeds the cap (default 10**6).
    """
    limit = DEFAULT_ELEMENT_CAP if cap is None else cap
    if G.order > limit:
        raise CapExceeded(f"group order {G.order} exceeds enumeration cap {limit}")
    return [
        GroupElement(G, coords)
        for coords in itertools.product(*(range(n) for n in G.moduli))
    ]


def format_group(G: FinAbGroup) -> str:
    return "x".join(str(n) for n in G.moduli)


def format_element(e: GroupElement) -> str:
    """Comma-separated residues; a single residue for cyclic groups."""
    return ",".join(str(c) for c in e.coords)
