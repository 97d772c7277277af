"""Core molecular-graph types.

Molecules are immutable after construction and safe to share across workers;
derived structure that two layers read (adjacency, degrees, ring bonds and
membership, ranks) is computed once and cached.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property

from .elements import SYMBOL

SINGLE = 1
AROMATIC_CODE = 4  # order code of aromatic bonds in to_graph_record edges


class SmilesSyntaxError(ValueError):
    """The text does not follow the supported SMILES grammar."""


class ChemistryError(ValueError):
    """The text parses but describes an impossible molecule (valence etc.)."""


@dataclass(frozen=True)
class Atom:
    """One atom of the molecular graph."""

    atomic_number: int
    formal_charge: int = 0
    implicit_hydrogens: int = 0
    is_aromatic: bool = False
    isotope: int | None = None

    @property
    def symbol(self) -> str:
        return SYMBOL[self.atomic_number]


# Bond is a frozen dataclass with its own __init__: the generated one sets
# each field through object.__setattr__, and one update of the instance dict
# costs about half as much. Every molecule builds its bonds anew, while its
# Atoms come shared from perception's cache.
@dataclass(frozen=True, init=False)
class Bond:
    """An undirected bond between two atom indices.

    ``order`` is the kekule order (1/2/3); aromatic bonds keep the order the
    kekule assignment gave them and carry ``is_aromatic``. ``stereo`` is the
    direction of a directional single bond ('/' or '\\') read from ``a`` to
    ``b``; read from ``b`` to ``a`` it is the other symbol (FLIP_DIRECTION).
    """

    a: int
    b: int
    order: int
    is_aromatic: bool
    stereo: str | None

    def __init__(
        self,
        a: int,
        b: int,
        order: int = SINGLE,
        is_aromatic: bool = False,
        stereo: str | None = None,
    ) -> None:
        self.__dict__.update(a=a, b=b, order=order, is_aromatic=is_aromatic, stereo=stereo)


def bond_code(bond: Bond) -> int:
    """Order code of a bond in ranking and hashing: AROMATIC_CODE or 1/2/3."""
    return AROMATIC_CODE if bond.is_aromatic else bond.order


# Marker used in stereo neighbor-order lists for an in-bracket hydrogen.
H_SLOT = -1
# A direction mark read the other way round: str.translate table.
FLIP_DIRECTION = str.maketrans("/\\", "\\/")


class Molecule:
    """Attributed undirected graph of atoms and bonds.

    ``chirality`` holds one entry per atom: None, or the atom's tag ('@' or
    '@@') with the order its neighbours were written in, H_SLOT standing for
    an in-bracket hydrogen. Do not mutate ``atoms``/``bonds`` after
    construction; every operation in this package treats molecules as values.
    """

    __slots__ = ("atoms", "bonds", "chirality", "__dict__")

    def __init__(
        self,
        atoms: tuple[Atom, ...],
        bonds: tuple[Bond, ...],
        chirality: tuple[tuple[str, tuple[int, ...]] | None, ...] | None = None,
        ring_bonds: frozenset[tuple[int, int]] | None = None,
        neighbors: tuple[tuple[int, ...], ...] | None = None,
        degrees: tuple[int, ...] | None = None,
    ) -> None:
        self.atoms = atoms
        self.bonds = bonds
        self.chirality = chirality or (None,) * len(atoms)
        # A builder that has already derived some of the structure below
        # hands it in, so the cached properties never derive it again. It
        # must equal what they would derive from ``bonds``.
        derived = self.__dict__
        if ring_bonds is not None:
            derived["ring_bonds"] = ring_bonds
        if neighbors is not None:
            derived["neighbors"] = neighbors
        if degrees is not None:
            derived["degrees"] = degrees

    def __len__(self) -> int:
        return len(self.atoms)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in self.atoms]
        for bond in self.bonds:
            nbrs[bond.a].append(bond.b)
            nbrs[bond.b].append(bond.a)
        return tuple(tuple(n) for n in nbrs)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(n) for n in self.neighbors)

    @cached_property
    def ring_bonds(self) -> frozenset[tuple[int, int]]:
        """Keys of bonds that lie on some cycle (non-bridge edges)."""
        return _non_bridge_edges(
            self.neighbors, [(b.a, b.b) if b.a < b.b else (b.b, b.a) for b in self.bonds])

    @cached_property
    def ring_membership(self) -> tuple[bool, ...]:
        flags = [False] * len(self.atoms)
        for a, b in self.ring_bonds:
            flags[a] = True
            flags[b] = True
        return tuple(flags)

    @cached_property
    def ranks(self) -> tuple[int, ...]:
        """The canonical ranks of ``canon.canonical_ranks``, refined once."""
        from .canon import canonical_ranks  # canon imports this module

        return tuple(canonical_ranks(self))

    @cached_property
    def match_memo(self) -> dict:
        """Memo of the substructure matcher, kept with the molecule it describes.

        ``rxnkit.substructure`` keeps here the atoms each atom predicate
        admits and the neighbours each bond kind admits, so that matching
        many patterns against one molecule derives each of them once.
        """
        return {}

    def subgraph(self, atoms: list[int] | tuple[int, ...]) -> "Molecule":
        """The given atoms, in the given order, and the bonds among them.

        Stereo is dropped, chirality and bond directions alike: each is
        stated relative to neighbours that may be left out.
        """
        new_of_old = {old: new for new, old in enumerate(atoms)}
        bonds = tuple(
            Bond(new_of_old[b.a], new_of_old[b.b], b.order, b.is_aromatic)
            for b in self.bonds
            if b.a in new_of_old and b.b in new_of_old
        )
        return Molecule(tuple(self.atoms[old] for old in atoms), bonds)


def _non_bridge_edges(
    neighbors: Sequence[Sequence[int]], keys: Iterable[tuple[int, int]]
) -> frozenset[tuple[int, int]]:
    """The bond keys, in the given order, that are not bridges: the edges on cycles.

    Bridges are found with Tarjan's method as a loop: an edge v-w of the
    depth-first tree is a bridge when no edge from w's subtree reaches back
    to v or above it.
    """
    n = len(neighbors)
    disc = [0] * n  # discovery time, from 1; 0 while unvisited
    low = [0] * n
    bridges: set[tuple[int, int]] = set()
    timer = 0
    for root in range(n):
        if disc[root]:
            continue
        timer += 1
        disc[root] = low[root] = timer
        stack = [(root, -1, iter(neighbors[root]))]
        while stack:
            v, parent, untried = stack[-1]
            for w in untried:
                if not disc[w]:
                    timer += 1
                    disc[w] = low[w] = timer
                    stack.append((w, v, iter(neighbors[w])))
                    break
                if w != parent and disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                if parent >= 0:
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if low[v] > disc[parent]:
                        bridges.add((parent, v) if parent < v else (v, parent))
    return frozenset(key for key in keys if key not in bridges)

