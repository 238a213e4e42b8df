"""Exact arithmetic in finite abelian groups given as products of cyclic groups.

A group is described by its list of moduli: ``[3]`` is Z/3Z, ``[2, 4]`` is
Z/2 x Z/4.  An element is a tuple of reduced residues, one per modulus; it
orders lexicographically, which fixes the canonical orderings used
throughout the zero-sum machinery.  No structure computation (Smith normal
form etc.) is performed; callers supply the moduli directly, which is how
every worked example in this package arises.

>>> G = FinAbGroup([2, 4])
>>> G.element([3, 6])
(1, 2)
"""

from __future__ import annotations

import itertools
from math import prod


def _ints(values, what: str) -> tuple[int, ...]:
    """The values as a tuple, each of type int (bool, float and str are refused)."""
    values = tuple(values)
    bad = next((v for v in values if type(v) is not int), None)
    if bad is not None:
        raise ValueError(f"{what} must be integers, got {bad!r}")
    return values


class FinAbGroup:
    """A finite abelian group Z/n1 x ... x Z/nk, each ni >= 1.

    Immutable.
    """

    __slots__ = ("moduli",)

    def __init__(self, moduli):
        moduli = _ints(moduli, "moduli")
        if not moduli:
            raise ValueError("need at least one modulus (use [1] for the trivial group)")
        if any(n < 1 for n in moduli):
            raise ValueError(f"moduli must be >= 1, got {list(moduli)}")
        self.moduli = moduli

    @property
    def order(self) -> int:
        return prod(self.moduli)

    def element(self, coords) -> tuple[int, ...]:
        """Build an element, reducing each coordinate mod its modulus."""
        coords = _ints(coords, "coordinates")
        if len(coords) != len(self.moduli):
            raise ValueError(
                f"expected {len(self.moduli)} coordinates, got {len(coords)}"
            )
        return tuple(c % n for c, n in zip(coords, self.moduli))

    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.moduli)

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

    def parse_element(self, text: str) -> tuple[int, ...]:
        parts = text.strip().split(",")
        try:
            coords = [int(p) for p in parts]
        except ValueError:
            raise ValueError(f"bad element syntax {text!r}; expected e.g. '1' or '1,0'")
        return self.element(coords)


def enumerate_elements(G: FinAbGroup) -> list[tuple[int, ...]]:
    """All |G| elements in lexicographic order."""
    return list(itertools.product(*map(range, G.moduli)))


def format_group(G: FinAbGroup) -> str:
    return "x".join(str(n) for n in G.moduli)


def format_element(e: tuple[int, ...]) -> str:
    """Comma-separated residues; a single residue for cyclic groups."""
    return ",".join(str(c) for c in e)
