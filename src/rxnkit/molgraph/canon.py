"""Canonical ranking, canonical SMILES output, formula, graph records.

Ranking is synchronous cell refinement. Atoms start in cells of equal
initial invariant (atomic number, degree, formal charge, implicit hydrogens,
ring membership, isotope), ordered by it. A cell's label is its start
position in that order, stored once on the cell. Each round keys an atom by
the sorted multiset of (bond code, neighbour label) pairs, computed from the
labels at the start of the round, and splits each cell into sub-cells
ordered by key. Only neighbours of atoms that moved to a new cell are
re-keyed; the untouched atoms of a cell still share one key, so one of them
stands for the rest. When a cell splits, its largest part keeps the cell
and only the other parts count as moved (Hopcroft's rule), so the total
work grows near-linearly with molecule size. When no cell splits and ties
remain, the lowest-index atom of the first tied cell is split off in front
of it and refinement resumes. Labels order cells as dense ranks would, so
the ranks are those of Morgan refinement that re-ranks every atom each
round.

Stereo annotations never participate in ranking and are re-emitted in
their input-declared sense.

Known limitations: the output can depend on the input numbering.
- Meso compounds whose tied stereocenters are swapped by a mirror
  automorphism may serialize to either of two geometry-equal strings
  (tetrahedral tags cannot be flip-normalized without merging true
  enantiomers).
- Cis/trans direction symbols are flip-normalized per fragment, but a mark
  on a bond that is not stereogenic is kept: over 100 random renumberings,
  `C/C=C(/C)C` gives 2 strings (`C/C=C(/C)C`, `C/C=C(C)/C`). So does a
  tetrahedral mark on an atom that is not a stereocentre: `C[C@H](C)O`
  gives `C[C@H](C)O` and `C[C@@H](C)O`. See ROADMAP item 14.
- The tie-break splits off the lowest-index atom of the first tied cell,
  which is canonical only when that cell is one automorphism orbit. It is
  not for dispiro[2.0.2.2]octane: `C1CC11CCC11CC1` gives 2 strings over
  100 renumberings (`C1CC11CCC11CC1`, `C1CC2(CC2)C11CC1`), and the cage
  cuneane (`C12C3C1C1C4C2C3C14`) gives 3 over 200. See ROADMAP item 11.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict

from .elements import BARE_ATOMS, allowed_valences, hydrogens_to_fill, takes_double_bond
from .model import FLIP_DIRECTION, H_SLOT, ChemistryError, Molecule, bond_code


def canonical_ranks(mol: Molecule) -> list[int]:
    """Dense 0..n-1 ranks, invariant under any renumbering of the input."""
    n = len(mol.atoms)
    if n == 0:
        return []
    ring = mol.ring_membership
    degrees = mol.degrees
    neighbors = mol.neighbors
    # Bond codes are kept times n: as labels are below n, code + label
    # sorts as the (code, label) pair would.
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for bond in mol.bonds:
        code = bond_code(bond) * n
        adj[bond.a].append((code, bond.b))
        adj[bond.b].append((code, bond.a))

    by_seed: dict[tuple, list[int]] = defaultdict(list)
    for i, a in enumerate(mol.atoms):
        key = (a.atomic_number, degrees[i], a.formal_charge, a.implicit_hydrogens,
               ring[i], a.isotope or 0)
        by_seed[key].append(i)

    # Cell c holds the atoms members[c] at positions start[c] onwards, and
    # start[c] is their label; cell_at maps each cell's start back to it.
    start: list[int] = []
    members: list[set[int]] = []
    cell_of = [0] * n
    cell_at = [0] * n
    pos = 0
    for key in sorted(by_seed):
        atoms = by_seed[key]
        c = len(start)
        cell_at[pos] = c
        start.append(pos)
        members.append(set(atoms))
        for i in atoms:
            cell_of[i] = c
        pos += len(atoms)

    def key_of(i: int) -> tuple[int, ...]:
        return tuple(sorted([code + start[cell_of[j]] for code, j in adj[i]]))

    def refine(changed) -> None:
        while changed:
            # Only neighbours of atoms that moved to a new cell are re-keyed.
            touched: set[int] = set()
            for v in changed:
                touched.update(neighbors[v])
            by_cell: dict[int, list[int]] = defaultdict(list)
            for w in touched:
                c = cell_of[w]
                if len(members[c]) > 1:
                    by_cell[c].append(w)
            # Every split of a round is computed from the labels at its start.
            splits = []
            for c, atoms in by_cell.items():
                groups: dict[tuple[int, ...], list[int]] = defaultdict(list)
                for i in atoms:
                    groups[key_of(i)].append(i)
                rest_key = None
                if len(atoms) < len(members[c]):
                    # The untouched atoms still share one key; one stands for all.
                    rest_key = key_of(next(i for i in members[c] if i not in touched))
                    groups.setdefault(rest_key, [])
                if len(groups) > 1:
                    splits.append((c, groups, rest_key))

            changed = []
            for c, groups, rest_key in splits:
                parts = {k: set(g) for k, g in groups.items() if k != rest_key}
                if rest_key is not None:
                    cell = members[c]
                    for part in parts.values():
                        cell -= part
                    parts[rest_key] = cell
                # The largest part keeps the cell; only the others are new.
                order = sorted(parts)
                keep = max(order, key=lambda k: len(parts[k]))
                members[c] = parts[keep]
                pos = start[c]
                for k in order:
                    part = parts[k]
                    if k == keep:
                        cid = c
                    else:
                        cid = len(start)
                        start.append(0)
                        members.append(part)
                        for i in part:
                            cell_of[i] = cid
                        changed.extend(part)
                    start[cid] = pos
                    cell_at[pos] = cid
                    pos += len(part)

    refine(range(n))
    # Tie-break: the lowest-index atom of the first tied cell goes in front.
    pos = 0
    while pos < n:
        c = cell_at[pos]
        cell = members[c]
        if len(cell) == 1:
            pos += 1
            continue
        chosen = min(cell)
        cell.remove(chosen)
        cid = len(start)
        start.append(pos)
        members.append({chosen})
        cell_of[chosen] = cid
        cell_at[pos] = cid
        start[c] = pos + 1
        cell_at[pos + 1] = c
        refine([chosen])
    return [start[c] for c in cell_of]


def canonical_smiles(mol: Molecule) -> str:
    """Deterministic SMILES: renumbering-invariant and idempotent.

    Multi-fragment output lists fragment strings sorted lexicographically,
    joined by '.'.
    """
    if len(mol) == 0:
        raise ChemistryError("cannot write SMILES for an empty molecule")
    ranks = canonical_ranks(mol)
    return ".".join(sorted(_normalize_directions(_write_fragment(mol, ranks, frag))
                           for frag in mol.fragments))


def _normalize_directions(fragment: str) -> str:
    """Pick a fixed representative among direction-flip equivalent strings.

    Flipping every '/' and '\\' in a fragment preserves each double bond's
    cis/trans sense, so symmetric molecules whose stereo-blind ranking ties
    either way still serialize identically.
    """
    if "/" not in fragment and "\\" not in fragment:
        return fragment
    return min(fragment, fragment.translate(FLIP_DIRECTION))


def _write_fragment(mol: Molecule, ranks: list[int], frag: tuple[int, ...]) -> str:
    root = min(frag, key=lambda i: ranks[i])

    # Structure pass: deterministic DFS with children ordered by rank.
    disc = {root: 0}
    parent: dict[int, int | None] = {root: None}
    children: dict[int, list[int]] = defaultdict(list)
    openings: dict[int, list[int]] = defaultdict(list)  # earlier atom -> later partners
    closings: dict[int, list[int]] = defaultdict(list)  # later atom -> earlier partners
    edge_used: set[tuple[int, int]] = set()
    iters = {root: iter(sorted(mol.neighbors[root], key=lambda x: ranks[x]))}
    stack = [root]
    while stack:
        v = stack[-1]
        descended = False
        for w in iters[v]:
            if w == parent[v]:
                continue
            key = (v, w) if v < w else (w, v)
            if w in disc:
                if key in edge_used:
                    continue
                edge_used.add(key)
                openings[w].append(v)
                closings[v].append(w)
                continue
            edge_used.add(key)
            disc[w] = len(disc)
            parent[w] = v
            children[v].append(w)
            iters[w] = iter(sorted(mol.neighbors[w], key=lambda x: ranks[x]))
            stack.append(w)
            descended = True
            break
        if not descended:
            stack.pop()

    # Emission pass.
    out: list[str] = []
    digit_of: dict[tuple[int, int], int] = {}
    freed: list[int] = []
    next_digit = 1

    def alloc() -> int:
        nonlocal next_digit
        if freed:
            return heapq.heappop(freed)
        d = next_digit
        next_digit += 1
        return d

    def fmt(d: int) -> str:
        return str(d) if d <= 9 else f"%{d:02d}"

    work: list[tuple] = [("atom", root, None)]
    while work:
        item = work.pop()
        if item[0] == "text":
            out.append(item[1])
            continue
        _, v, par = item
        token = "" if par is None else _bond_str(mol, par, v)
        token += _atom_token(mol, v, par, openings, closings, children)
        for u in closings[v]:
            d = digit_of.pop((u, v) if u < v else (v, u))
            token += fmt(d)
            heapq.heappush(freed, d)
        for w in openings[v]:
            d = alloc()
            digit_of[(v, w) if v < w else (w, v)] = d
            token += _bond_str(mol, v, w) + fmt(d)
        out.append(token)
        kids = children[v]
        for i in reversed(range(len(kids))):
            if i == len(kids) - 1:
                work.append(("atom", kids[i], v))
            else:
                work.append(("text", ")"))
                work.append(("atom", kids[i], v))
                work.append(("text", "("))
    return "".join(out)


def _bond_str(mol: Molecule, u: int, v: int) -> str:
    bond = mol.bond_between(u, v)
    if bond.stereo is not None:
        return bond.stereo if bond.a == u else bond.stereo.translate(FLIP_DIRECTION)
    if bond.is_aromatic:
        return ""
    if bond.order == 1:
        if mol.atoms[u].is_aromatic and mol.atoms[v].is_aromatic:
            return "-"
        return ""
    return "=" if bond.order == 2 else "#"


def _inferred_bare_h(mol: Molecule, v: int) -> int:
    """Hydrogens a re-parse would infer if this atom were written bare."""
    a = mol.atoms[v]
    sigma = 0
    explicit_multiple = False
    for w in mol.neighbors[v]:
        bond = mol.bond_between(v, w)
        if bond.is_aromatic:
            sigma += 1
        else:
            sigma += bond.order
            if bond.order >= 2:
                explicit_multiple = True
    if a.is_aromatic and takes_double_bond(a.atomic_number, 0, sigma, explicit_multiple, True):
        sigma += 1
    return hydrogens_to_fill(allowed_valences(a.atomic_number), sigma)


def _atom_token(
    mol: Molecule,
    v: int,
    par: int | None,
    openings: dict[int, list[int]],
    closings: dict[int, list[int]],
    children: dict[int, list[int]],
) -> str:
    a = mol.atoms[v]
    sym = a.symbol.lower() if a.is_aromatic else a.symbol
    chirality = mol.chirality[v]
    bare_ok = (
        a.formal_charge == 0
        and a.isotope is None
        and chirality is None
        and a.atomic_number != 1
        and sym in BARE_ATOMS
        and a.implicit_hydrogens == _inferred_bare_h(mol, v)
    )
    if bare_ok:
        return sym

    tag = chirality and _adjusted_tag(mol, v, par, openings, closings, children)

    parts = ["["]
    if a.isotope is not None:
        parts.append(str(a.isotope))
    parts.append(sym)
    if tag:
        parts.append(tag)
    if a.implicit_hydrogens == 1:
        parts.append("H")
    elif a.implicit_hydrogens > 1:
        parts.append(f"H{a.implicit_hydrogens}")
    q = a.formal_charge
    if q == 1:
        parts.append("+")
    elif q == -1:
        parts.append("-")
    elif q > 1:
        parts.append(f"+{q}")
    elif q < -1:
        parts.append(f"-{-q}")
    parts.append("]")
    return "".join(parts)


def _adjusted_tag(
    mol: Molecule,
    v: int,
    par: int | None,
    openings: dict[int, list[int]],
    closings: dict[int, list[int]],
    children: dict[int, list[int]],
) -> str | None:
    """Chiral tag re-expressed for the writer's neighbor order.

    The tag's sense depends on the order neighbors are listed; an odd
    permutation between the input-declared order and the written order flips
    it. Unresolvable annotations (e.g. >1 implicit H) are dropped.
    """
    tag, stored = mol.chirality[v]
    a = mol.atoms[v]
    out: list[int] = []
    if par is not None:
        out.append(par)
    if a.implicit_hydrogens == 1:
        out.append(H_SLOT)
    elif a.implicit_hydrogens > 1:
        return None
    out.extend(closings[v])
    out.extend(openings[v])
    out.extend(children[v])
    if sorted(out) != sorted(stored):
        return None
    if _perm_parity(list(stored), out) == 0:
        return tag
    return "@@" if tag == "@" else "@"


def _perm_parity(src: list[int], dst: list[int]) -> int:
    perm = []
    used = [False] * len(dst)
    for x in src:
        for j, y in enumerate(dst):
            if not used[j] and y == x:
                used[j] = True
                perm.append(j)
                break
    inversions = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return inversions % 2


def molecular_formula(mol: Molecule) -> str:
    """Hill-order formula: C first, H second, the rest alphabetical.

    Without carbon every element sorts alphabetically (H included).
    Disconnected fragments merge into one formula.
    """
    counts: Counter[str] = Counter()
    hydrogens = 0
    for a in mol.atoms:
        if a.atomic_number == 1:
            hydrogens += 1
        else:
            counts[a.symbol] += 1
        hydrogens += a.implicit_hydrogens
    if hydrogens:
        counts["H"] += hydrogens

    def part(sym: str) -> str:
        c = counts[sym]
        return f"{sym}{c}" if c > 1 else sym

    ordered: list[str] = []
    if counts.get("C"):
        ordered.append(part("C"))
        if counts.get("H"):
            ordered.append(part("H"))
        ordered.extend(part(s) for s in sorted(counts) if s not in ("C", "H"))
    else:
        ordered.extend(part(s) for s in sorted(counts))
    return "".join(ordered)


def to_graph_record(mol: Molecule) -> dict:
    """The graph object of a molecule, in canonical rank order, byte-identical
    across renumberings as compact JSON.

    nodes: [atomic_number, formal_charge, implicit_hydrogens, aromatic, degree]
    edges: [i, j, order_code] with i < j in rank space, sorted
    """
    ranks = canonical_ranks(mol)
    degrees = mol.degrees
    nodes: list[list] = [None] * len(mol.atoms)  # type: ignore
    for i, a in enumerate(mol.atoms):
        nodes[ranks[i]] = [
            a.atomic_number,
            a.formal_charge,
            a.implicit_hydrogens,
            a.is_aromatic,
            degrees[i],
        ]
    edges = sorted(
        [min(ranks[b.a], ranks[b.b]), max(ranks[b.a], ranks[b.b]), bond_code(b)]
        for b in mol.bonds
    )
    return {"nodes": nodes, "edges": edges}
