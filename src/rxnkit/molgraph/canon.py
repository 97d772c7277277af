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
round. A round allocates only the touched set, its cells' key groups and
the new cells: the largest part stays in the cell's own set, and the
untouched atoms are keyed by one of them.

``Molecule.ranks`` keeps a molecule's ranks, so its SMILES and its graph
record share one refinement.

The writer makes one pass over the bonds and builds three tables: each
atom's neighbours sorted by rank, each with the bond's text read from that
atom (a direction mark flipped for the far end); each atom's bond-order
sum, an aromatic bond counted as 1; and whether a non-aromatic multiple
bond meets it. An atom without a chiral tag is written from its Atom, sum
and flag alone, through a bounded cache. The ranks are a permutation,
and the atoms are taken in rank order: each one not yet walked is the root
of a fragment, walked depth-first with children in rank order. The walk
fixes the parent, branches and ring bonds; atoms are written in walk order,
a root starting the next fragment. Ring numbers run 1-9 and %10-%99 from
one pool, the lowest free one reused: a fragment closes every ring it
opens, so each numbers its rings from 1. A molecule that needs more than 99
at once is refused (ChemistryError), as %(nnn) is not read back.

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
from functools import lru_cache

from .elements import BARE_ATOMS, allowed_valences, hydrogens_to_fill, takes_double_bond
from .model import FLIP_DIRECTION, H_SLOT, Atom, ChemistryError, Molecule, bond_code


def canonical_ranks(mol: Molecule) -> list[int]:
    """Dense 0..n-1 ranks, invariant under any renumbering of the input.

    ``Molecule.ranks`` keeps them with the molecule, so that writing its
    SMILES and its graph record refines once.
    """
    n = len(mol.atoms)
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

    def refine(changed) -> None:
        while changed:
            # Only neighbours of atoms that moved to a new cell are re-keyed.
            touched: set[int] = set()
            for v in changed:
                touched.update(neighbors[v])
            by_cell: dict[int, list[int]] = {}
            for w in touched:
                c = cell_of[w]
                if len(members[c]) > 1:
                    atoms = by_cell.get(c)
                    if atoms is None:
                        by_cell[c] = [w]
                    else:
                        atoms.append(w)
            # Every split of a round is computed from the labels at its start.
            splits = []
            for c, atoms in by_cell.items():
                groups: dict[tuple[int, ...], list[int]] = {}
                for i in atoms:
                    key = tuple(sorted([code + start[cell_of[j]] for code, j in adj[i]]))
                    group = groups.get(key)
                    if group is None:
                        groups[key] = [i]
                    else:
                        group.append(i)
                cell = members[c]
                rest_key = None
                rest_size = 0
                if len(atoms) < len(cell):
                    # The untouched atoms still share one key; one stands for all.
                    for i in cell:
                        if i not in touched:
                            break
                    rest_key = tuple(sorted([code + start[cell_of[j]] for code, j in adj[i]]))
                    if rest_key not in groups:
                        groups[rest_key] = []
                    # The rest part: the untouched atoms and the touched
                    # ones keyed as they are.
                    rest_size = len(cell) - len(atoms) + len(groups[rest_key])
                if len(groups) > 1:
                    splits.append((c, groups, rest_key, rest_size))

            changed = []
            for c, groups, rest_key, rest_size in splits:
                cell = members[c]
                order = sorted(groups)
                # The largest part (the first in order, of equal ones) keeps
                # the cell; only the others are new.
                keep = None
                best = 0
                for k in order:
                    size = rest_size if k == rest_key else len(groups[k])
                    if size > best:
                        keep, best = k, size
                if keep != rest_key and rest_key is not None:
                    rest = cell.difference(*[groups[k] for k in order if k != rest_key])
                pos = start[c]
                for k in order:
                    if k == keep:
                        start[c] = pos
                        cell_at[pos] = c
                        pos += best
                        continue
                    part = rest if k == rest_key else set(groups[k])
                    cell.difference_update(part)
                    cid = len(start)
                    start.append(pos)
                    members.append(part)
                    for i in part:
                        cell_of[i] = cid
                    changed.extend(part)
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
    return ".".join(sorted(_normalize_directions(text)
                           for text in _write_fragments(mol, mol.ranks)))


def _normalize_directions(fragment: str) -> str:
    """Pick a fixed representative among direction-flip equivalent strings.

    Flipping every '/' and '\\' in a fragment preserves each double bond's
    cis/trans sense, so symmetric molecules whose stereo-blind ranking ties
    either way still serialize identically.
    """
    if "/" not in fragment and "\\" not in fragment:
        return fragment
    return min(fragment, fragment.translate(FLIP_DIRECTION))


# Ring-closure labels by number; a number above 99 would need the %(nnn)
# syntax, which the parser does not read.
_RING_LABELS = tuple(str(d) if d <= 9 else f"%{d}" for d in range(100))


def _write_fragments(mol: Molecule, ranks) -> list[str]:
    """The SMILES of each fragment of ``mol``, in the rank order of its
    lowest-ranked atom, written from that atom, neighbours in rank order.

    ``ranks`` must be a permutation of ``range(len(mol))``, as ``mol.ranks`` is.
    """
    atoms = mol.atoms
    n = len(atoms)
    # One pass over the bonds: each atom's neighbours as (rank, atom, bond
    # text read from this atom), its bond-order sum with an aromatic bond
    # counted as 1, and whether a non-aromatic multiple bond meets it.
    adj: list[list[tuple[int, int, str]]] = [[] for _ in range(n)]
    valence = [0] * n
    multiple = [False] * n
    for bond in mol.bonds:
        a = bond.a
        b = bond.b
        stereo = bond.stereo
        if bond.is_aromatic:
            valence[a] += 1
            valence[b] += 1
            text = ""
        else:
            order = bond.order
            valence[a] += order
            valence[b] += order
            if order == 1:
                text = "-" if atoms[a].is_aromatic and atoms[b].is_aromatic else ""
            else:
                multiple[a] = multiple[b] = True
                text = "=" if order == 2 else "#"
        if stereo is None:
            adj[a].append((ranks[b], b, text))
            adj[b].append((ranks[a], a, text))
        else:
            adj[a].append((ranks[b], b, stereo))
            adj[b].append((ranks[a], a, stereo.translate(FLIP_DIRECTION)))
    for nbrs in adj:
        nbrs.sort()

    # Structure pass: each atom not yet walked, in rank order, is the root of
    # a depth-first walk of its fragment. ``disc`` is an atom's place in the
    # walk, which is also the order atoms are written in. A bond to an atom
    # found earlier, other than the parent, is a ring bond, seen from its later atom.
    by_rank = [0] * n
    for i, r in enumerate(ranks):
        by_rank[r] = i
    chirality = mol.chirality
    disc = [-1] * n
    parent = [-1] * n
    up_text = [""] * n  # bond text from the parent
    last_child = [-1] * n
    closings: dict[int, list[int]] = {}  # later atom -> earlier partners
    openings: dict[int, list[tuple[int, str]]] = {}  # earlier atom -> (later, text)
    walk: list[int] = []
    for root in by_rank:
        if disc[root] >= 0:
            continue
        disc[root] = len(walk)
        walk.append(root)
        stack = [(root, iter(adj[root]))]
        while stack:
            v, untried = stack[-1]
            for _, w, text in untried:
                if disc[w] < 0:
                    disc[w] = len(walk)
                    walk.append(w)
                    parent[w] = v
                    up_text[w] = text
                    last_child[v] = w
                    stack.append((w, iter(adj[w])))
                    break
                if disc[w] < disc[v] and w != parent[v]:
                    closings.setdefault(v, []).append(w)
                    openings.setdefault(w, []).append((v, text.translate(FLIP_DIRECTION)))
            else:
                stack.pop()

    # Emission pass, atoms in walk order; a root starts the next fragment. A
    # child other than the first closes its elder sibling's branch; a child
    # other than the last opens its own.
    fragments: list[list[str]] = []
    digit_of: dict[tuple[int, int], int] = {}
    freed: list[int] = []
    next_digit = 1
    for v in walk:
        p = parent[v]
        if p < 0:
            parts: list[str] = []
            fragments.append(parts)
        else:
            if disc[v] != disc[p] + 1:
                parts.append(")")
            if last_child[p] != v:
                parts.append("(")
            parts.append(up_text[v])
        if chirality[v] is None:
            parts.append(_atom_token(atoms[v], valence[v], multiple[v]))
        else:
            later = closings.get(v, []) + [w for w, _ in openings.get(v, ())]
            later += [w for _, w, _ in adj[v] if parent[w] == v]
            parts.append(_bracket_token(atoms[v], _adjusted_tag(mol, v, p, later)))
        if v in closings:
            for u in closings[v]:
                d = digit_of.pop((u, v))
                parts.append(_RING_LABELS[d])
                heapq.heappush(freed, d)
        if v in openings:
            for w, text in openings[v]:
                if freed:
                    d = heapq.heappop(freed)
                else:
                    d = next_digit
                    next_digit += 1
                    if d > 99:
                        raise ChemistryError(
                            "cannot write SMILES with more than 99 ring-closure "
                            "numbers open at once")
                digit_of[(v, w)] = d
                parts.append(text)
                parts.append(_RING_LABELS[d])
    return ["".join(parts) for parts in fragments]


@lru_cache(maxsize=1024)
def _atom_token(atom: Atom, valence: int, multiple: bool) -> str:
    """How an atom without a chiral tag is written: bare when a re-parse of
    the bare symbol would give it its hydrogen count, else in brackets.
    ``valence`` is its bond-order sum, an aromatic bond counted as 1;
    ``multiple``, whether a non-aromatic multiple bond meets it.

    Atoms are shared values, so few keys recur; the cache is bounded, so
    unusual atoms evict entries and never grow it.
    """
    sym = atom.symbol.lower() if atom.is_aromatic else atom.symbol
    if (atom.formal_charge == 0 and atom.isotope is None and atom.atomic_number != 1
            and sym in BARE_ATOMS):
        sigma = valence
        if atom.is_aromatic and takes_double_bond(atom.atomic_number, 0, sigma, multiple, True):
            sigma += 1
        if atom.implicit_hydrogens == hydrogens_to_fill(allowed_valences(atom.atomic_number),
                                                        sigma):
            return sym
    return _bracket_token(atom, None)


def _bracket_token(atom: Atom, tag: str | None) -> str:
    sym = atom.symbol.lower() if atom.is_aromatic else atom.symbol
    parts = ["["]
    if atom.isotope is not None:
        parts.append(str(atom.isotope))
    parts.append(sym)
    if tag:
        parts.append(tag)
    if atom.implicit_hydrogens == 1:
        parts.append("H")
    elif atom.implicit_hydrogens > 1:
        parts.append(f"H{atom.implicit_hydrogens}")
    q = atom.formal_charge
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


def _adjusted_tag(mol: Molecule, v: int, par: int, later: list[int]) -> str | None:
    """Chiral tag re-expressed for the writer's neighbor order.

    The written order is the parent (``par``, -1 for none), an in-bracket
    hydrogen, then ``later``: the ring-closure partners and the children in
    the order they are written. An odd permutation between the
    input-declared order and the written order flips the tag. Unresolvable
    annotations (e.g. >1 implicit H) are dropped.
    """
    tag, stored = mol.chirality[v]
    a = mol.atoms[v]
    out: list[int] = []
    if par >= 0:
        out.append(par)
    if a.implicit_hydrogens == 1:
        out.append(H_SLOT)
    elif a.implicit_hydrogens > 1:
        return None
    out.extend(later)
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
    ranks = mol.ranks
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
