"""Chemical perception over parsed drafts.

Order of operations: fold explicit hydrogens, resolve default bonds, find
ring edges, kekulize declared-aromatic systems, assign implicit hydrogens,
check valences, then run Hueckel perception over kekule rings. Declared
(lowercase) aromaticity is honored as long as it sits in rings and admits a
kekule assignment; the Hueckel check applies only to rings the input wrote
in kekule form.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from functools import lru_cache
from itertools import combinations

from .elements import allowed_valences, hydrogens_to_fill, takes_double_bond
from .model import (
    Atom,
    Bond,
    ChemistryError,
    H_SLOT,
    Molecule,
    _non_bridge_edges,
)
from .parser import BOND_ORDERS, MolDraft, parse_draft

_MULTI = -2  # sentinel: atom has several multiple bonds (not conjugatable)


def parse_smiles(text: str) -> Molecule:
    """Parse SMILES text into an immutable Molecule.

    Raises SmilesSyntaxError for grammar problems and ChemistryError for
    impossible chemistry (valence violations, unkekulizable aromatics).
    """
    return molecule_from_draft(parse_draft(text))


def molecule_from_draft(draft: MolDraft) -> Molecule:
    # Only hydrogen atoms fold, and most drafts have none.
    if any(a.atomic_number == 1 for a in draft.atoms):
        _fold_explicit_h(draft)
    datoms, dbonds = draft.atoms, draft.bonds
    n = len(datoms)

    # One pass over the bonds: orders, aromatic candidates, adjacency in
    # bond order, and each bond's (low, high) key.
    declared = [a.aromatic for a in datoms]
    orders: list[int] = []
    candidate: list[bool] = []  # may become aromatic
    keys: list[tuple[int, int]] = []
    neighbors: list[list[int]] = [[] for _ in range(n)]
    incident: list[list[int]] = [[] for _ in range(n)]
    for bi, b in enumerate(dbonds):
        x, y, symbol = b.a, b.b, b.symbol
        if symbol is None:
            orders.append(1)
            candidate.append(declared[x] and declared[y])
        elif symbol == ":":
            orders.append(1)
            candidate.append(True)
        else:
            orders.append(BOND_ORDERS[symbol])
            candidate.append(False)
        neighbors[x].append(y)
        neighbors[y].append(x)
        incident[x].append(bi)
        incident[y].append(bi)
        keys.append((x, y) if x < y else (y, x))
    ring_keys = _non_bridge_edges(neighbors, keys)

    # Non-ring bonds cannot be aromatic: demote defaults, reject ':'.
    for bi, key in enumerate(keys):
        if candidate[bi] and key not in ring_keys:
            if dbonds[bi].symbol == ":":
                raise ChemistryError("aromatic bond ':' outside of a ring")
            candidate[bi] = False

    aromatic_bond = list(candidate)
    for idx in range(n):
        if not declared[idx]:
            continue
        system_bonds = 0
        for bi in incident[idx]:
            b = dbonds[bi]
            other = b.b if b.a == idx else b.a
            if declared[other] and keys[bi] in ring_keys:
                if candidate[bi]:
                    system_bonds += 1
                elif b.symbol == "=":
                    aromatic_bond[bi] = True
                    system_bonds += 1
        if system_bonds < 2:
            raise ChemistryError(
                f"aromatic atom {idx} is not part of an aromatic ring"
            )

    _kekulize(draft, orders, candidate, incident)

    # Implicit hydrogens and the valence check, from one bond-order sum.
    bond_sum = [0] * n
    for (x, y), order in zip(keys, orders):
        bond_sum[x] += order
        bond_sum[y] += order
    implicit: list[int] = []
    for idx, a in enumerate(datoms):
        allowed = allowed_valences(a.atomic_number, a.charge)
        h = a.folded_h
        if a.explicit_h is not None:
            h += a.explicit_h
        else:
            h += hydrogens_to_fill(allowed, bond_sum[idx] + h)
        implicit.append(h)
        total = bond_sum[idx] + h
        if allowed is not None and total not in allowed:
            raise ChemistryError(
                f"valence {total} not allowed for atom {idx} "
                f"(element {a.atomic_number}, charge {a.charge:+d})"
            )

    _perceive_huckel(draft, orders, aromatic_bond, declared, keys, ring_keys)

    atoms = tuple(
        _shared_atom(a.atomic_number, a.charge, h, aromatic, a.isotope)
        for a, h, aromatic in zip(datoms, implicit, declared)
    )
    bonds = tuple(
        Bond(b.a, b.b, order, aromatic, b.stereo)
        for b, order, aromatic in zip(dbonds, orders, aromatic_bond)
    )
    chirality = tuple(
        (a.chiral, tuple(a.slots)) if a.chiral else None for a in datoms  # type: ignore[misc]
    )
    nbrs = tuple(map(tuple, neighbors))
    return Molecule(
        atoms, bonds, chirality, ring_bonds=ring_keys,
        neighbors=nbrs, degrees=tuple(map(len, nbrs)),
    )


@lru_cache(maxsize=512)
def _shared_atom(
    atomic_number: int, charge: int, hydrogens: int, aromatic: bool, isotope: int | None
) -> Atom:
    """The Atom of these values, shared by every molecule that has one.

    Atoms are immutable values, so one object serves them all. The cache is
    bounded: unusual isotopes and charges evict entries, they never grow it.
    """
    return Atom(atomic_number, charge, hydrogens, aromatic, isotope)


def _fold_explicit_h(draft: MolDraft) -> None:
    """Fold plain single-bonded [H] atoms into the heavy atom's H count.

    An atom's slots name every atom bonded to it, so an [H] with one slot
    has one bond. When that bond is plain and joins a heavy atom, the [H]
    leaves the draft with its bond, and the heavy atom's slot for it becomes
    H_SLOT. The atoms and bonds left keep their order.
    """
    atoms = draft.atoms
    folded: set[int] = set()
    bonds = []
    for b in draft.bonds:
        h, heavy = (b.a, b.b) if atoms[b.a].atomic_number == 1 else (b.b, b.a)
        a = atoms[h]
        if (a.atomic_number == 1 and atoms[heavy].atomic_number != 1 and len(a.slots) == 1
                and b.symbol in (None, "-") and not b.stereo and a.isotope is None
                and not (a.charge or a.chiral or a.aromatic or a.explicit_h)):
            p = atoms[heavy]
            p.folded_h += 1
            p.slots[p.slots.index(h)] = H_SLOT
            folded.add(h)
        else:
            bonds.append(b)

    if not folded:
        return
    remap: dict[int, int] = {}
    for idx in range(len(atoms)):
        if idx not in folded:
            remap[idx] = len(remap)
    draft.atoms = [atoms[idx] for idx in remap]
    for a in draft.atoms:
        a.slots = [s if s == H_SLOT else remap[s] for s in a.slots]
    for b in bonds:
        b.a = remap[b.a]
        b.b = remap[b.b]
    draft.bonds = bonds


def _kekulize(
    draft: MolDraft,
    orders: list[int],
    candidate: list[bool],
    incident: list[list[int]],
) -> None:
    """Assign kekule orders inside declared-aromatic systems.

    The atoms that "must" take exactly one double bond are those
    ``takes_double_bond`` names (bare aromatic n and p carry no implicit
    hydrogen); perfect matching over candidate bonds between such atoms
    realizes the assignment.
    """
    must: set[int] = set()
    for idx, a in enumerate(draft.atoms):
        if not a.aromatic:
            continue
        bonds = incident[idx]
        sigma = (a.explicit_h or 0) + a.folded_h + sum(
            1 if candidate[bi] else orders[bi] for bi in bonds)
        explicit_multiple = any(orders[bi] >= 2 and not candidate[bi] for bi in bonds)
        if takes_double_bond(a.atomic_number, a.charge, sigma, explicit_multiple,
                             a.explicit_h is None):
            must.add(idx)

    if not must:
        return
    adj: dict[int, list[int]] = {a: [] for a in must}
    for bi, b in enumerate(draft.bonds):
        if candidate[bi] and b.a in must and b.b in must:
            adj[b.a].append(b.b)
            adj[b.b].append(b.a)

    # Depth-first search for a perfect matching. The next atom to pair is
    # the free atom with the fewest free neighbours, ties broken by index;
    # it tries its partners in adj order. A heap holds (free neighbours,
    # atom) entries; each change pushes fresh ones and stale ones are
    # skipped, so every free atom always has an entry matching its state.
    match: dict[int, int] = {}
    free_deg = {a: len(adj[a]) for a in must}
    heap = [(d, a) for a, d in free_deg.items()]
    heapq.heapify(heap)

    def pair(a: int, b: int, step: int) -> None:
        for x in (a, b):
            for y in adj[x]:
                free_deg[y] += step
                heapq.heappush(heap, (free_deg[y], y))

    def most_constrained() -> int | None:
        while heap:
            d, x = heap[0]
            if x not in match and free_deg[x] == d:
                return x
            heapq.heappop(heap)
        return None

    # Each frame of the explicit stack is an atom and its untried partners.
    first = most_constrained()
    stack = [] if first is None else [(first, iter(adj[first]))]
    solved = first is None
    while stack and not solved:
        a, options = stack[-1]
        if a in match:  # the partner tried last led nowhere: undo it
            b = match.pop(a)
            del match[b]
            pair(a, b, 1)
        for b in options:
            if b in match:
                continue
            match[a] = b
            match[b] = a
            pair(a, b, -1)
            nxt = most_constrained()
            if nxt is None:
                solved = True
            else:
                stack.append((nxt, iter(adj[nxt])))
            break
        else:
            stack.pop()

    if not solved:
        raise ChemistryError(
            "cannot kekulize declared aromatic system "
            "(is a pyrrole-type nitrogen missing its [nH]?)"
        )
    for bi, b in enumerate(draft.bonds):
        if candidate[bi] and match.get(b.a) == b.b:
            orders[bi] = 2


def _perceive_huckel(
    draft: MolDraft,
    orders: list[int],
    aromatic_bond: list[bool],
    declared: list[bool],
    keys: list[tuple[int, int]],
    ring_keys: frozenset[tuple[int, int]],
) -> None:
    """Mark 4n+2 rings written in kekule form as aromatic.

    Rings, edge-fused pairs and triples, and whole fused systems are tested;
    anything larger that only works as a partial union stays kekule. Rings
    touching declared-aromatic atoms are left alone (the declaration wins).
    """
    has_ring_double = any(
        orders[bi] == 2 and keys[bi] in ring_keys
        and not (declared[draft.bonds[bi].a] or declared[draft.bonds[bi].b])
        for bi in range(len(orders))
    )
    if not has_ring_double:
        return

    # Unique double-bond partner per atom; _MULTI disqualifies.
    partner = [None] * len(draft.atoms)
    for bi, b in enumerate(draft.bonds):
        if orders[bi] == 2:
            for x, y in ((b.a, b.b), (b.b, b.a)):
                partner[x] = y if partner[x] is None else _MULTI
        elif orders[bi] == 3:
            partner[b.a] = _MULTI
            partner[b.b] = _MULTI

    def contribution(idx: int, union: frozenset[int]) -> int | None:
        p = partner[idx]
        if p == _MULTI:
            return None
        if p is not None:
            return 1 if p in union else 0
        a = draft.atoms[idx]
        z, q = a.atomic_number, a.charge
        if z == 6:
            if q == -1:
                return 2
            if q == 1:
                return 0
            return None
        if z in (7, 15):
            return 2 if q <= 0 else None
        if z in (8, 16, 34):
            return 2
        if z == 5 and q == 0:
            return 0
        return None

    cycles = _small_cycles(ring_keys)
    candidates = []
    for atoms_set, edge_set in cycles:
        if any(declared[a] for a in atoms_set):
            continue
        if all(contribution(a, atoms_set) is not None for a in atoms_set):
            candidates.append((atoms_set, edge_set))
    if not candidates:
        return

    edge_index = {key: bi for bi, key in enumerate(keys)}

    def try_union(members: list[tuple[frozenset[int], frozenset[tuple[int, int]]]]) -> None:
        atoms_u: frozenset[int] = frozenset().union(*(m[0] for m in members))
        # Every atom of a candidate ring contributes, whatever the union.
        total = sum(contribution(a, atoms_u) for a in atoms_u)
        if total < 2 or total % 4 != 2:
            return
        for a in atoms_u:
            declared[a] = True
        for m in members:
            for key in m[1]:
                aromatic_bond[edge_index[key]] = True

    # fused[i]: the rings that share an edge with ring i. try_union only
    # sets flags, so the order of the tests does not matter.
    on_edge: dict[tuple[int, int], list[int]] = defaultdict(list)
    for i, (_, edge_set) in enumerate(candidates):
        for key in edge_set:
            on_edge[key].append(i)
    fused = [{j for key in edge_set for j in on_edge[key]} - {i}
             for i, (_, edge_set) in enumerate(candidates)]
    for i, near in enumerate(fused):
        try_union([candidates[i]])
        for j in near:
            if i < j:
                try_union([candidates[i], candidates[j]])
    # A triple with two fused pairs has a ring fused to both others.
    triples = {tuple(sorted((i, j, k)))
               for i, near in enumerate(fused) for j, k in combinations(near, 2)}
    for triple in triples:
        try_union([candidates[x] for x in triple])
    # Whole fused systems of more than 3 rings: the connected components of fused.
    unseen = set(range(len(candidates)))
    while unseen:
        system = [unseen.pop()]
        for x in system:
            near = fused[x] & unseen
            unseen -= near
            system.extend(near)
        if len(system) > 3:
            try_union([candidates[x] for x in system])


def _small_cycles(
    ring_keys: frozenset[tuple[int, int]],
) -> list[tuple[frozenset[int], frozenset[tuple[int, int]]]]:
    """All shortest cycles through each ring edge (input-order invariant set)."""
    ring_adj: dict[int, list[int]] = defaultdict(list)
    for a, b in ring_keys:
        ring_adj[a].append(b)
        ring_adj[b].append(a)

    out = []
    seen: set[frozenset[tuple[int, int]]] = set()
    lone: set[int] = set()  # atoms of the cycles found with no ring fused to them
    for u, v in sorted(ring_keys):
        if u in lone:
            continue  # the one cycle through each edge is already found
        for path in _shortest_paths(u, v, ring_adj):
            edges = {(u, v)}
            for x, y in zip(path, path[1:]):
                edges.add((x, y) if x < y else (y, x))
            fr = frozenset(edges)
            if fr not in seen:
                seen.add(fr)
                out.append((frozenset(path), fr))
            if all(len(ring_adj[x]) == 2 for x in path):
                lone.update(path)
    return out


_PATH_CAP = 32  # the most shortest paths one ring edge contributes cycles through


def _shortest_paths(u: int, v: int, adj: dict[int, list[int]]) -> list[list[int]]:
    """Every shortest u-v path that avoids the edge u-v (up to _PATH_CAP)."""
    dist = {u: 0}
    preds: dict[int, list[int]] = defaultdict(list)
    frontier = [u]
    while frontier and v not in dist:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if x == u and y == v:  # v is reached, never expanded
                    continue
                if y not in dist:
                    dist[y] = dist[x] + 1
                    preds[y].append(x)
                    nxt.append(y)
                elif dist[y] == dist[x] + 1:
                    preds[y].append(x)
        frontier = nxt

    # u-v is a ring edge, so v is reached. Depth-first from v back to u
    # over the predecessor lists, as a loop: stack entries are (node, its
    # distance from v), and acc holds the nodes from v up to, not
    # including, the node popped last.
    paths: list[list[int]] = []
    acc: list[int] = []
    stack = [(v, 0)]
    while stack and len(paths) < _PATH_CAP:
        node, depth = stack.pop()
        del acc[depth:]
        if node == u:
            paths.append([u] + acc[::-1])
            continue
        acc.append(node)
        stack.extend((p, depth + 1) for p in reversed(preds[node]))
    return paths
