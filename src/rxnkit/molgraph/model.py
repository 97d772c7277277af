"""Core molecular-graph types.

Molecules are immutable after construction and safe to share across workers;
all derived structure (adjacency, ring membership, fragments) is computed
once and cached.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

from .elements import SYMBOL

SINGLE, DOUBLE, TRIPLE = 1, 2, 3
AROMATIC_CODE = 4  # order_code used for aromatic bonds in GraphRecord edges

_ORDER_NAMES = {SINGLE: "single", DOUBLE: "double", TRIPLE: "triple"}


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


@dataclass(frozen=True)
class Bond:
    """An undirected bond between two atom indices.

    ``order`` is the kekule order (1/2/3); aromatic bonds keep the order the
    kekule assignment gave them and carry ``is_aromatic``. Directional single
    bonds ('/' or '\\') remember the atom the symbol was written from so the
    writer can re-emit them in the declared sense.
    """

    a: int
    b: int
    order: int = SINGLE
    is_aromatic: bool = False
    stereo: str | None = None
    stereo_from: int | None = None

    def other(self, idx: int) -> int:
        return self.b if idx == self.a else self.a

    @property
    def order_name(self) -> str:
        return "aromatic" if self.is_aromatic else _ORDER_NAMES[self.order]

    def key(self) -> tuple[int, int]:
        return (self.a, self.b) if self.a < self.b else (self.b, self.a)


def bond_code(bond: Bond) -> int:
    """Order code of a bond in ranking and hashing: AROMATIC_CODE or 1/2/3."""
    return AROMATIC_CODE if bond.is_aromatic else bond.order


# Marker used in stereo neighbor-order lists for an in-bracket hydrogen.
H_SLOT = -1


class Molecule:
    """Attributed undirected graph of atoms and bonds.

    Do not mutate ``atoms``/``bonds`` after construction; every operation in
    this package treats molecules as values.
    """

    __slots__ = (
        "atoms", "bonds", "chiral_tags", "stereo_order", "problems",
        "__dict__",
    )

    def __init__(
        self,
        atoms: tuple[Atom, ...],
        bonds: tuple[Bond, ...],
        chiral_tags: tuple[str | None, ...] | None = None,
        stereo_order: tuple[tuple[int, ...] | None, ...] | None = None,
        problems: tuple[str, ...] = (),
        ring_bonds: frozenset[tuple[int, int]] | None = None,
    ) -> None:
        self.atoms = atoms
        self.bonds = bonds
        self.chiral_tags = chiral_tags or (None,) * len(atoms)
        self.stereo_order = stereo_order or (None,) * len(atoms)
        self.problems = problems
        if ring_bonds is not None:
            # A builder that already found the ring bonds hands them in, so
            # the cached property below never searches for them again.
            self.__dict__["ring_bonds"] = ring_bonds

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
    def bond_lookup(self) -> dict[tuple[int, int], Bond]:
        return {bond.key(): bond for bond in self.bonds}

    def bond_between(self, a: int, b: int) -> Bond | None:
        return self.bond_lookup.get((a, b) if a < b else (b, a))

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(n) for n in self.neighbors)

    @cached_property
    def ring_bonds(self) -> frozenset[tuple[int, int]]:
        """Keys of bonds that lie on some cycle (non-bridge edges)."""
        return _non_bridge_edges(len(self.atoms), self.neighbors, self.bond_lookup)

    @cached_property
    def ring_membership(self) -> tuple[bool, ...]:
        flags = [False] * len(self.atoms)
        for a, b in self.ring_bonds:
            flags[a] = True
            flags[b] = True
        return tuple(flags)

    @cached_property
    def match_memo(self) -> dict:
        """Memo of the substructure matcher, kept with the molecule it describes.

        ``rxnkit.substructure`` keeps here the atoms each atom predicate
        admits and the neighbours each bond kind admits, so that matching
        many patterns against one molecule derives each of them once.
        """
        return {}

    @cached_property
    def fragments(self) -> tuple[tuple[int, ...], ...]:
        """Connected components, each as a sorted tuple of atom indices."""
        seen = [False] * len(self.atoms)
        out: list[tuple[int, ...]] = []
        for start in range(len(self.atoms)):
            if seen[start]:
                continue
            stack, comp = [start], []
            seen[start] = True
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in self.neighbors[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            out.append(tuple(sorted(comp)))
        return tuple(out)

    def renumbered(self, order: list[int] | tuple[int, ...]) -> "Molecule":
        """Rebuild with atoms permuted: new atom i is old atom order[i].

        Stereo annotations are remapped with their neighbor ordering kept, so
        the result denotes the same (stereo-)molecule.
        """
        if sorted(order) != list(range(len(self.atoms))):
            raise ValueError("order must be a permutation of atom indices")
        new_of_old = {old: new for new, old in enumerate(order)}
        atoms = tuple(self.atoms[old] for old in order)
        bonds = tuple(
            Bond(
                a=new_of_old[b.a],
                b=new_of_old[b.b],
                order=b.order,
                is_aromatic=b.is_aromatic,
                stereo=b.stereo,
                stereo_from=None if b.stereo_from is None else new_of_old[b.stereo_from],
            )
            for b in self.bonds
        )
        tags = tuple(self.chiral_tags[old] for old in order)
        stereo = tuple(
            None
            if self.stereo_order[old] is None
            else tuple(s if s == H_SLOT else new_of_old[s] for s in self.stereo_order[old])
            for old in order
        )
        return Molecule(atoms, bonds, tags, stereo, self.problems)


def _non_bridge_edges(
    n: int,
    neighbors: tuple[tuple[int, ...], ...],
    bond_lookup: dict[tuple[int, int], Bond],
) -> frozenset[tuple[int, int]]:
    """Edges on cycles, found by subtracting bridges (iterative Tarjan)."""
    disc = [-1] * n
    low = [0] * n
    bridges: set[tuple[int, int]] = set()
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]
        while stack:
            v, parent, i = stack.pop()
            if i == 0:
                disc[v] = low[v] = timer
                timer += 1
            if i < len(neighbors[v]):
                stack.append((v, parent, i + 1))
                w = neighbors[v][i]
                if w == parent:
                    continue
                if disc[w] != -1:
                    low[v] = min(low[v], disc[w])
                else:
                    stack.append((w, v, 0))
            else:
                if parent != -1:
                    low[parent] = min(low[parent], low[v])
                    if low[v] > disc[parent]:
                        key = (parent, v) if parent < v else (v, parent)
                        bridges.add(key)
    return frozenset(key for key in bond_lookup if key not in bridges)


@dataclass(frozen=True)
class GraphRecord:
    """Canonical-rank-ordered serialization of a molecule.

    nodes: [atomic_number, formal_charge, implicit_hydrogens, aromatic, degree]
    edges: [i, j, order_code] with i < j in rank space, sorted
    """

    nodes: tuple[tuple[int, int, int, bool, int], ...]
    edges: tuple[tuple[int, int, int], ...] = field(default=())

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    def to_dict(self) -> dict:
        return {
            "nodes": [list(n) for n in self.nodes],
            "edges": [list(e) for e in self.edges],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GraphRecord":
        return cls(
            nodes=tuple((n[0], n[1], n[2], bool(n[3]), n[4]) for n in data["nodes"]),
            edges=tuple((e[0], e[1], e[2]) for e in data.get("edges", [])),
        )
