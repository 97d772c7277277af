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

from .elements import allowed_valences, fill_hydrogens
from .model import (
    Atom,
    Bond,
    ChemistryError,
    H_SLOT,
    Molecule,
    _non_bridge_edges,
)
from .parser import MolDraft, parse_draft

_ORDER_OF_SYMBOL = {"-": 1, "=": 2, "#": 3, "/": 1, "\\": 1}
_MULTI = -2  # sentinel: atom has several multiple bonds (not conjugatable)


def parse_smiles(text: str) -> Molecule:
    """Parse SMILES text into an immutable Molecule.

    Raises SmilesSyntaxError for grammar problems and ChemistryError for
    impossible chemistry (valence violations, unkekulizable aromatics).
    """
    return molecule_from_draft(parse_draft(text))


def molecule_from_draft(draft: MolDraft) -> Molecule:
    _fold_explicit_h(draft)
    n = len(draft.atoms)
    problems: list[str] = []

    orders = [0] * len(draft.bonds)
    candidate = [False] * len(draft.bonds)  # may become aromatic
    colon = [False] * len(draft.bonds)
    for bi, b in enumerate(draft.bonds):
        if b.symbol is None:
            if draft.atoms[b.a].aromatic and draft.atoms[b.b].aromatic:
                candidate[bi] = True
            orders[bi] = 1
        elif b.symbol == ":":
            candidate[bi] = True
            colon[bi] = True
            orders[bi] = 1
        else:
            orders[bi] = _ORDER_OF_SYMBOL[b.symbol]

    neighbors: list[list[int]] = [[] for _ in range(n)]
    incident: list[list[int]] = [[] for _ in range(n)]
    keys = []
    for bi, b in enumerate(draft.bonds):
        neighbors[b.a].append(b.b)
        neighbors[b.b].append(b.a)
        incident[b.a].append(bi)
        incident[b.b].append(bi)
        keys.append((b.a, b.b) if b.a < b.b else (b.b, b.a))
    ring_keys = _non_bridge_edges(
        n, tuple(tuple(x) for x in neighbors), dict.fromkeys(keys)
    )

    # Non-ring bonds cannot be aromatic: demote defaults, reject ':'.
    for bi in range(len(draft.bonds)):
        if candidate[bi] and keys[bi] not in ring_keys:
            if colon[bi]:
                raise ChemistryError("aromatic bond ':' outside of a ring")
            candidate[bi] = False

    aromatic_bond = list(candidate)
    declared = [a.aromatic for a in draft.atoms]
    for idx in range(n):
        if not declared[idx]:
            continue
        system_bonds = 0
        for bi in incident[idx]:
            b = draft.bonds[bi]
            other = b.b if b.a == idx else b.a
            if keys[bi] in ring_keys and declared[other]:
                if candidate[bi]:
                    system_bonds += 1
                elif b.symbol == "=":
                    aromatic_bond[bi] = True
                    system_bonds += 1
        if system_bonds < 2:
            raise ChemistryError(
                f"aromatic atom {idx} is not part of an aromatic ring"
            )

    _kekulize(draft, orders, candidate, incident, problems)

    implicit = [0] * n
    for idx, a in enumerate(draft.atoms):
        bond_sum = sum(orders[bi] for bi in incident[idx]) + a.folded_h
        if a.explicit_h is None:
            implicit[idx] = a.folded_h + fill_hydrogens(
                a.atomic_number, a.charge, bond_sum
            )
        else:
            implicit[idx] = a.explicit_h + a.folded_h

    for idx, a in enumerate(draft.atoms):
        allowed = allowed_valences(a.atomic_number, a.charge)
        total = sum(orders[bi] for bi in incident[idx]) + implicit[idx]
        if allowed is None:
            problems.append(
                f"atom {idx} ({a.atomic_number}) has no valence entry; unchecked"
            )
        elif total not in allowed:
            raise ChemistryError(
                f"valence {total} not allowed for atom {idx} "
                f"(element {a.atomic_number}, charge {a.charge:+d})"
            )

    _perceive_huckel(
        draft, orders, aromatic_bond, declared, implicit,
        incident, keys, ring_keys, neighbors,
    )

    atoms = tuple(
        Atom(
            atomic_number=a.atomic_number,
            formal_charge=a.charge,
            implicit_hydrogens=implicit[idx],
            is_aromatic=declared[idx],
            isotope=a.isotope,
        )
        for idx, a in enumerate(draft.atoms)
    )
    bonds = tuple(
        Bond(
            a=b.a,
            b=b.b,
            order=orders[bi],
            is_aromatic=aromatic_bond[bi],
            stereo=b.stereo,
            stereo_from=b.stereo_from,
        )
        for bi, b in enumerate(draft.bonds)
    )
    tags = tuple(a.chiral for a in draft.atoms)
    stereo = tuple(
        tuple(a.slots) if a.chiral else None for a in draft.atoms  # type: ignore[misc]
    )
    return Molecule(atoms, bonds, tags, stereo, tuple(problems), ring_bonds=ring_keys)


def _fold_explicit_h(draft: MolDraft) -> None:
    """Fold plain single-bonded [H] atoms into the heavy atom's H count."""
    incident: dict[int, list[int]] = defaultdict(list)
    for bi, b in enumerate(draft.bonds):
        incident[b.a].append(bi)
        incident[b.b].append(bi)

    removed_atoms: set[int] = set()
    removed_bonds: set[int] = set()
    for idx, a in enumerate(draft.atoms):
        if (
            a.atomic_number != 1
            or a.isotope is not None
            or a.charge
            or a.chiral
            or a.aromatic
            or (a.explicit_h not in (None, 0))
        ):
            continue
        blist = incident.get(idx, [])
        if len(blist) != 1:
            continue
        bond = draft.bonds[blist[0]]
        if bond.symbol not in (None, "-") or bond.stereo:
            continue
        partner = bond.b if bond.a == idx else bond.a
        if draft.atoms[partner].atomic_number == 1:
            continue
        p = draft.atoms[partner]
        p.folded_h += 1
        p.slots[p.slots.index(idx)] = H_SLOT
        removed_atoms.add(idx)
        removed_bonds.add(blist[0])

    if not removed_atoms:
        return
    remap: dict[int, int] = {}
    new_atoms = []
    for idx, a in enumerate(draft.atoms):
        if idx in removed_atoms:
            continue
        remap[idx] = len(new_atoms)
        new_atoms.append(a)
    for a in new_atoms:
        a.slots = [s if s == H_SLOT else remap[s] for s in a.slots]
    new_bonds = []
    for bi, b in enumerate(draft.bonds):
        if bi in removed_bonds:
            continue
        b.a = remap[b.a]
        b.b = remap[b.b]
        if b.stereo_from is not None:
            b.stereo_from = remap[b.stereo_from]
        new_bonds.append(b)
    draft.atoms = new_atoms
    draft.bonds = new_bonds


def _kekulize(
    draft: MolDraft,
    orders: list[int],
    candidate: list[bool],
    incident: list[list[int]],
    problems: list[str],
) -> None:
    """Assign kekule orders inside declared-aromatic systems.

    An atom "must" take exactly one double bond when its sigma framework is
    one short of an allowed valence (bare aromatic C/N/P without an explicit
    multiple bond; bracket atoms per the valence table); perfect matching over
    candidate bonds between such atoms realizes the assignment.
    """
    must: set[int] = set()
    for idx, a in enumerate(draft.atoms):
        if not a.aromatic:
            continue
        if a.explicit_h is None and a.atomic_number == 6:
            # Bare aromatic carbon takes exactly one double bond unless an
            # explicit multiple bond already saturates it.
            if not any(orders[bi] >= 2 and not candidate[bi] for bi in incident[idx]):
                must.add(idx)
            continue
        # Bare aromatic n/p carry no implicit hydrogen; like bracket atoms
        # they take a double bond only when one short of an allowed valence.
        h = 0 if a.explicit_h is None else a.explicit_h
        sigma = h + a.folded_h + sum(
            1 if candidate[bi] else orders[bi] for bi in incident[idx]
        )
        allowed = allowed_valences(a.atomic_number, a.charge)
        if allowed is None or sigma in allowed:
            continue
        if sigma + 1 in allowed and a.atomic_number not in (5, 8, 16, 34):
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
    implicit: list[int],
    incident: list[list[int]],
    keys: list[tuple[int, int]],
    ring_keys: frozenset[tuple[int, int]],
    neighbors: list[list[int]],
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

    cycles = _small_cycles(keys, ring_keys, neighbors)
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
        total = 0
        for a in atoms_u:
            c = contribution(a, atoms_u)
            if c is None:
                return
            total += c
        if total < 2 or total % 4 != 2:
            return
        for a in atoms_u:
            declared[a] = True
        for m in members:
            for key in m[1]:
                aromatic_bond[edge_index[key]] = True

    for ring in candidates:
        try_union([ring])

    shares_edge = [
        [bool(candidates[i][1] & candidates[j][1]) for j in range(len(candidates))]
        for i in range(len(candidates))
    ]
    for i in range(len(candidates)):
        for j in range(i + 1, len(candidates)):
            if shares_edge[i][j]:
                try_union([candidates[i], candidates[j]])
    for i in range(len(candidates)):
        for j in range(i + 1, len(candidates)):
            for k in range(j + 1, len(candidates)):
                links = shares_edge[i][j] + shares_edge[i][k] + shares_edge[j][k]
                if links >= 2:
                    try_union([candidates[i], candidates[j], candidates[k]])

    # Maximal fused components of the candidate rings.
    parent = list(range(len(candidates)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(len(candidates)):
        for j in range(i + 1, len(candidates)):
            if shares_edge[i][j]:
                parent[find(i)] = find(j)
    groups: dict[int, list] = defaultdict(list)
    for i in range(len(candidates)):
        groups[find(i)].append(candidates[i])
    for members in groups.values():
        if len(members) > 3:
            try_union(members)


def _small_cycles(
    keys: list[tuple[int, int]],
    ring_keys: frozenset[tuple[int, int]],
    neighbors: list[list[int]],
) -> list[tuple[frozenset[int], frozenset[tuple[int, int]]]]:
    """All shortest cycles through each ring edge (input-order invariant set)."""
    ring_adj: dict[int, list[int]] = defaultdict(list)
    for a, b in ring_keys:
        ring_adj[a].append(b)
        ring_adj[b].append(a)

    out = []
    seen: set[frozenset[tuple[int, int]]] = set()
    for u, v in sorted(ring_keys):
        for path in _shortest_paths(u, v, ring_adj, skip=(u, v)):
            edges = {(u, v)}
            for x, y in zip(path, path[1:]):
                edges.add((x, y) if x < y else (y, x))
            fr = frozenset(edges)
            if fr not in seen:
                seen.add(fr)
                out.append((frozenset(path), fr))
    return out


def _shortest_paths(
    u: int,
    v: int,
    adj: dict[int, list[int]],
    skip: tuple[int, int],
    cap: int = 32,
) -> list[list[int]]:
    """Every shortest u-v path avoiding the skipped edge (up to cap)."""
    dist = {u: 0}
    preds: dict[int, list[int]] = defaultdict(list)
    frontier = [u]
    while frontier and v not in dist:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if {x, y} == {skip[0], skip[1]}:
                    continue
                if y not in dist:
                    dist[y] = dist[x] + 1
                    preds[y].append(x)
                    nxt.append(y)
                elif dist[y] == dist[x] + 1:
                    preds[y].append(x)
        frontier = nxt
    if v not in dist:
        return []

    paths: list[list[int]] = []

    def walk(node: int, acc: list[int]) -> None:
        if len(paths) >= cap:
            return
        if node == u:
            paths.append([u] + acc[::-1])
            return
        for p in preds[node]:
            walk(p, acc + [node])

    walk(v, [])
    return paths
