"""Independent brute-force oracles the fast implementations are checked against.

Everything here follows the plain written definitions with no shortcuts:
all-injections subgraph matching, memoized recursive edit distance, the
confusion-entropy / Matthews-coefficient formulas expanded term by term, and
canonical ranking that re-sorts every atom in every refinement round. The
earlier, recursive key and path fingerprints are kept here as references:
they evaluate every atom predicate per pattern and per candidate, and
respell and rehash every path. So is the circular fingerprint that hashes
every atom's environment at every radius, repeats and all. So are the two
hand-written sub-molecule builders that ``Molecule.subgraph`` replaced, and
the frozenset fingerprint with its bit-loop serialization, set Tanimoto and
similarity scan that the int bitmask replaced, the multi-pass Molecule
builder with its bridge search that the one-pass builder replaced, and the
Hueckel perception that tested every ring triple of a molecule at once, on
cycles searched from every ring edge, before fused systems and lone rings
were taken one at a time; its shortest-path search is a frozen copy, with
the skipped edge and the cap as parameters. So is the SMILES writer that looked up each bond
as it wrote it, re-summed each atom's bond orders to decide whether it could
be written bare, and walked a tagged work stack. The [H] fold, the kekule
matching and the chiral-tag parity these builders call are frozen copies
too, so no oracle shares a private helper with the code it checks.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

from rxnkit.fingerprint import BitFingerprint, FingerprintSpec, fnv1a
from rxnkit.molgraph import Molecule
from rxnkit.molgraph.elements import (
    BARE_ATOMS,
    allowed_valences,
    hydrogens_to_fill,
    takes_double_bond,
)
from rxnkit.molgraph.model import (
    FLIP_DIRECTION,
    H_SLOT,
    Atom,
    Bond,
    ChemistryError,
    bond_code,
)
from rxnkit.molgraph.parser import BOND_ORDERS, MolDraft


@lru_cache(maxsize=16)
def _bonds_by_pair(mol: Molecule) -> dict[tuple[int, int], Bond]:
    table = {}
    for bond in mol.bonds:
        table[bond.a, bond.b] = table[bond.b, bond.a] = bond
    return table


def bond_between(mol: Molecule, a: int, b: int) -> Bond | None:
    """The bond joining atoms a and b, or None."""
    return _bonds_by_pair(mol).get((a, b))


def bond_keys(mol: Molecule) -> list[tuple[int, int]]:
    """Each bond's (low, high) atom pair, in bond order."""
    return [(b.a, b.b) if b.a < b.b else (b.b, b.a) for b in mol.bonds]


def reference_fragments(mol: Molecule) -> list[tuple[int, ...]]:
    """Connected components, each a sorted tuple of atom indices, in the
    order of their lowest atom index."""
    seen: set[int] = set()
    out = []
    for start in range(len(mol.atoms)):
        if start in seen:
            continue
        seen.add(start)
        stack, comp = [start], []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in mol.neighbors[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        out.append(tuple(sorted(comp)))
    return out


def _hydrogen_count(mol: Molecule, idx: int) -> int:
    """Implicit hydrogens plus the hydrogen atoms bonded to the atom."""
    count = mol.atoms[idx].implicit_hydrogens
    for bond in mol.bonds:
        if idx in (bond.a, bond.b):
            other = bond.b if bond.a == idx else bond.a
            count += mol.atoms[other].atomic_number == 1
    return count


def _atom_matches(pred: tuple, mol: Molecule, idx: int) -> bool:
    """One atom predicate of a parsed pattern, evaluated on one atom."""
    kind = pred[0]
    if kind == "elem":
        return mol.atoms[idx].atomic_number == pred[1]
    if kind == "arom":
        return mol.atoms[idx].is_aromatic == pred[1]
    if kind == "ring":
        return mol.ring_membership[idx]
    if kind == "deg":
        return mol.degrees[idx] == pred[1]
    if kind == "h":
        return _hydrogen_count(mol, idx) == pred[1]
    if kind == "charge":
        return mol.atoms[idx].formal_charge == pred[1]
    if kind == "not":
        return not _atom_matches(pred[1], mol, idx)
    if kind == "and":
        return all(_atom_matches(p, mol, idx) for p in pred[1])
    if kind == "or":
        return any(_atom_matches(p, mol, idx) for p in pred[1])
    raise AssertionError(f"unknown predicate {pred!r}")


def all_injections_matches(pattern, mol) -> set[frozenset[int]]:
    """Atom sets of every injective pattern->molecule embedding."""
    np = len(pattern.atoms)
    nm = len(mol.atoms)
    found: set[frozenset[int]] = set()
    for image in permutations(range(nm), np):
        ok = all(
            _atom_matches(pred, mol, image[i])
            for i, pred in enumerate(pattern.atoms)
        )
        if not ok:
            continue
        for a, b, kind in pattern.bonds:
            bond = bond_between(mol, image[a], image[b])
            if bond is None or bond_code(bond) not in kind:
                ok = False
                break
        if ok:
            found.add(frozenset(image))
    return found


@lru_cache(maxsize=None)
def recursive_levenshtein(a: str, b: str) -> int:
    """Edit distance straight from the recursive definition (cached)."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(
        recursive_levenshtein(a[1:], b) + 1,
        recursive_levenshtein(a, b[1:]) + 1,
        recursive_levenshtein(a[1:], b[1:]) + (a[0] != b[0]),
    )


def brute_cen(matrix: list[list[int]]) -> float:
    """Confusion entropy expanded literally from its definition."""
    n = len(matrix)
    total = sum(sum(row) for row in matrix)
    if total == 0 or n < 2:
        return 0.0
    base = 2 * (n - 1)

    def log_b(x: float) -> float:
        return math.log(x) / math.log(base)

    cen = 0.0
    for j in range(n):
        denom_j = sum(matrix[j][m] + matrix[m][j] for m in range(n))
        if denom_j == 0:
            continue
        cen_j = 0.0
        for k in range(n):
            if k == j:
                continue
            p_jk = matrix[j][k] / denom_j
            p_kj = matrix[k][j] / denom_j
            if p_jk > 0:
                cen_j -= p_jk * log_b(p_jk)
            if p_kj > 0:
                cen_j -= p_kj * log_b(p_kj)
        w_j = denom_j / (2 * total)
        cen += w_j * cen_j
    return cen


def brute_mcc(matrix: list[list[int]]) -> float:
    """Multiclass Matthews correlation expanded literally."""
    n = len(matrix)
    s = sum(sum(row) for row in matrix)
    c = sum(matrix[k][k] for k in range(n))
    t = [sum(matrix[k]) for k in range(n)]
    p = [sum(matrix[r][k] for r in range(n)) for k in range(n)]
    num = c * s - sum(tk * pk for tk, pk in zip(t, p))
    d1 = s * s - sum(pk * pk for pk in p)
    d2 = s * s - sum(tk * tk for tk in t)
    if d1 <= 0 or d2 <= 0:
        return 0.0
    return num / math.sqrt(d1 * d2)


def full_resort_ranks(mol) -> list[int]:
    """Canonical ranks by Morgan refinement that re-ranks all atoms each round.

    Each round keys every atom by (rank, sorted (bond code, neighbour rank)
    pairs) and densely re-ranks; a stable tie is broken by moving the
    lowest-index atom of the lowest tied rank in front, then refining again.
    """
    n = len(mol.atoms)
    if n == 0:
        return []
    ring = mol.ring_membership
    degrees = mol.degrees
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for bond in mol.bonds:
        code = bond_code(bond)
        adj[bond.a].append((code, bond.b))
        adj[bond.b].append((code, bond.a))

    seed = [
        (a.atomic_number, degrees[i], a.formal_charge, a.implicit_hydrogens,
         ring[i], a.isotope or 0)
        for i, a in enumerate(mol.atoms)
    ]

    def dense(keys: list) -> list[int]:
        rank_of = {k: r for r, k in enumerate(sorted(set(keys)))}
        return [rank_of[k] for k in keys]

    def refine(ranks: list[int]) -> list[int]:
        classes = len(set(ranks))
        while classes < n:
            keys = [
                (ranks[i], tuple(sorted((code, ranks[j]) for code, j in adj[i])))
                for i in range(n)
            ]
            new = dense(keys)
            new_classes = len(set(new))
            if new_classes == classes:
                return new
            ranks, classes = new, new_classes
        return ranks

    ranks = refine(dense(seed))
    while len(set(ranks)) < n:
        counts = Counter(ranks)
        tied_rank = min(r for r, c in counts.items() if c > 1)
        chosen = min(i for i in range(n) if ranks[i] == tied_rank)
        ranks = [
            r + 1 if (r > tied_rank or (r == tied_rank and i != chosen)) else r
            for i, r in enumerate(ranks)
        ]
        ranks = refine(ranks)
    return ranks


def backtracking_matches(pattern, mol, max_matches=None) -> list[tuple[int, ...]]:
    """Embeddings by recursive backtracking, one per distinct atom set.

    Candidates are re-evaluated predicate by predicate for every atom; the
    search places the rarest predicate first, then grows along pattern bonds.
    """
    np = len(pattern.atoms)
    candidates = [
        [i for i in range(len(mol.atoms)) if _atom_matches(pred, mol, i)]
        for pred in pattern.atoms
    ]
    if any(not c for c in candidates):
        return []

    p_adj: dict[int, list[tuple[int, str]]] = {i: [] for i in range(np)}
    for a, b, kind in pattern.bonds:
        p_adj[a].append((b, kind))
        p_adj[b].append((a, kind))

    order: list[int] = []
    placed: set[int] = set()
    while len(order) < np:
        frontier = [
            i for i in range(np)
            if i not in placed and any(j in placed for j, _ in p_adj[i])
        ]
        pool = frontier or [i for i in range(np) if i not in placed]
        nxt = min(pool, key=lambda i: (len(candidates[i]), i))
        order.append(nxt)
        placed.add(nxt)

    candidate_sets = [set(c) for c in candidates]
    results: list[tuple[int, ...]] = []
    seen_sets: set[frozenset[int]] = set()
    mapping: dict[int, int] = {}

    def backtrack(depth: int) -> bool:
        if depth == np:
            key = frozenset(mapping.values())
            if key not in seen_sets:
                seen_sets.add(key)
                results.append(tuple(mapping[i] for i in range(np)))
            return max_matches is not None and len(results) >= max_matches
        p = order[depth]
        anchored = [(j, kind) for j, kind in p_adj[p] if j in mapping]
        if anchored:
            j0, kind0 = anchored[0]
            pool = [
                w for w in mol.neighbors[mapping[j0]]
                if bond_code(bond_between(mol, mapping[j0], w)) in kind0
            ]
        else:
            pool = candidates[p]
        used = set(mapping.values())
        for m in pool:
            if m in used or m not in candidate_sets[p]:
                continue
            ok = True
            for j, kind in anchored:
                bond = bond_between(mol, mapping[j], m)
                if bond is None or bond_code(bond) not in kind:
                    ok = False
                    break
            if not ok:
                continue
            mapping[p] = m
            if backtrack(depth + 1):
                return True
            del mapping[p]
        return False

    backtrack(0)
    return results


def mask_of(indices) -> int:
    """The int with exactly the given bits set."""
    return sum(1 << i for i in set(indices))


@dataclass(frozen=True)
class SetFingerprint:
    """A fingerprint as a frozenset of bit indices."""

    width: int
    bits: frozenset[int]

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("fingerprint width must be positive")
        if any(b < 0 or b >= self.width for b in self.bits):
            raise ValueError("bit index out of range")

    def serialize(self) -> str:
        packed = bytearray((self.width + 7) // 8)
        for b in self.bits:
            packed[b // 8] |= 1 << (b % 8)
        return f"{self.width}:{packed.hex()}"

    @classmethod
    def deserialize(cls, text: str) -> "SetFingerprint":
        """Bits past the width are dropped; a short payload raises IndexError."""
        width_s, _, hex_s = text.partition(":")
        width = int(width_s)
        packed = bytes.fromhex(hex_s)
        bits = {
            i for i in range(width) if packed[i // 8] & (1 << (i % 8))
        }
        return cls(width=width, bits=frozenset(bits))


def reference_tanimoto(a: SetFingerprint, b: SetFingerprint) -> float:
    """|A n B| / |A u B| over sets; two empty fingerprints score 1.0."""
    if a.width != b.width:
        raise ValueError(f"fingerprint width mismatch: {a.width} != {b.width}")
    union = len(a.bits | b.bits)
    if union == 0:
        return 1.0
    return len(a.bits & b.bits) / union


def reference_max_similarity_to_set(
    query: SetFingerprint, reference: list[SetFingerprint]
) -> float:
    """Max reference_tanimoto over the references; stops at 1.0."""
    best = 0.0
    for ref in reference:
        t = reference_tanimoto(query, ref)
        if t > best:
            best = t
            if best == 1.0:
                break
    return best


def reference_key_fingerprint(mol, table) -> BitFingerprint:
    """Bit i set iff backtracking finds key i at least min_count times."""
    bits = set()
    for i, (_, pattern, min_count) in enumerate(table.entries):
        if len(backtracking_matches(pattern, mol, max_matches=min_count)) >= min_count:
            bits.add(i)
    return BitFingerprint(width=len(table), bits=mask_of(bits))


def reference_path_fingerprint(mol, spec=None) -> BitFingerprint:
    """Path bits by recursive enumeration, spelling and hashing every path."""
    spec = spec or FingerprintSpec(kind="path")
    labels = [
        b"%d.%d.%d" % (a.atomic_number, a.is_aromatic, a.formal_charge)
        for a in mol.atoms
    ]
    bits: set[int] = set()

    def emit(path: list[int]) -> None:
        seq = []
        for i, atom in enumerate(path):
            if i:
                bond = bond_between(mol, path[i - 1], atom)
                seq.append(b"%d" % bond_code(bond))
            seq.append(labels[atom])
        forward = b"|".join(seq)
        backward = b"|".join(reversed(seq))
        bits.add(fnv1a(min(forward, backward)) % spec.width)

    def extend(path: list[int], on_path: set[int]) -> None:
        last = path[-1]
        for w in mol.neighbors[last]:
            if w in on_path:
                continue
            path.append(w)
            n_bonds = len(path) - 1
            if n_bonds >= spec.min_path and path[0] < path[-1]:
                emit(path)
            if n_bonds < spec.max_path:
                on_path.add(w)
                extend(path, on_path)
                on_path.remove(w)
            path.pop()

    for start in range(len(mol.atoms)):
        extend([start], {start})
    return BitFingerprint(width=spec.width, bits=mask_of(bits))


def reference_circular_fingerprint(mol, spec=None) -> BitFingerprint:
    """Environment bits by hashing every atom's environment at every radius."""
    spec = spec or FingerprintSpec(kind="circular")
    env = [
        fnv1a(b"%d|%d|%d|%d|%d" % (a.atomic_number, mol.degrees[i], a.formal_charge,
                                   a.implicit_hydrogens, mol.ring_membership[i]))
        for i, a in enumerate(mol.atoms)
    ]
    bits = set(h % spec.width for h in env)
    for _ in range(spec.radius):
        nxt = []
        for i in range(len(mol.atoms)):
            parts = [env[i].to_bytes(8, "big")]
            for code, h in sorted(
                (bond_code(bond_between(mol, i, w)), env[w]) for w in mol.neighbors[i]
            ):
                parts.append(code.to_bytes(1, "big"))
                parts.append(h.to_bytes(8, "big"))
            nxt.append(fnv1a(b"".join(parts)))
        env = nxt
        bits.update(h % spec.width for h in env)
    return BitFingerprint(width=spec.width, bits=mask_of(bits))


def reference_fragment_molecule(mol, frag_atoms) -> Molecule:
    """The given atoms, in the given order, and their bonds; no stereo."""
    remap = {old: new for new, old in enumerate(frag_atoms)}
    atoms = tuple(mol.atoms[i] for i in frag_atoms)
    bonds = tuple(
        Bond(remap[b.a], remap[b.b], b.order, b.is_aromatic)
        for b in mol.bonds
        if b.a in remap and b.b in remap
    )
    return Molecule(atoms, bonds)


def reference_scaffold_molecule(mol) -> Molecule | None:
    """Murcko scaffold: prune degree-1 atoms, keep the rest, refill hydrogens;
    no stereo."""
    if not any(mol.ring_membership):
        return None
    kept = set(range(len(mol.atoms)))
    degree = {i: set(mol.neighbors[i]) for i in kept}
    changed = True
    while changed:
        changed = False
        for idx in sorted(kept):
            nbrs = degree[idx]
            if len(nbrs) > 1:
                continue
            if nbrs:
                (other,) = nbrs
                bond = bond_between(mol, idx, other)
                if bond.order >= 2 and mol.ring_membership[other]:
                    continue
            elif mol.ring_membership[idx]:
                continue
            kept.discard(idx)
            for other in nbrs:
                degree[other].discard(idx)
            degree.pop(idx)
            changed = True
    if not kept:
        return None
    remap = {old: new for new, old in enumerate(sorted(kept))}
    bonds = []
    order_sum = {old: 0 for old in kept}
    for b in mol.bonds:
        if b.a in kept and b.b in kept:
            bonds.append(Bond(
                a=remap[b.a], b=remap[b.b], order=b.order, is_aromatic=b.is_aromatic,
            ))
            order_sum[b.a] += b.order
            order_sum[b.b] += b.order
    atoms = []
    for old in sorted(kept):
        a = mol.atoms[old]
        h = a.implicit_hydrogens
        allowed = allowed_valences(a.atomic_number, a.formal_charge)
        if allowed is not None:
            h = hydrogens_to_fill(allowed, order_sum[old])
        atoms.append(Atom(
            atomic_number=a.atomic_number, formal_charge=a.formal_charge,
            implicit_hydrogens=h, is_aromatic=a.is_aromatic, isotope=a.isotope,
        ))
    return Molecule(tuple(atoms), tuple(bonds))


def reference_molecule_from_draft(draft: MolDraft) -> Molecule:
    """The Molecule of a draft as the multi-pass builder made it.

    Keyword-built Atoms and Bonds, separate hydrogen and valence loops, and
    ring bonds found on tuple copies of the adjacency. The [H] fold and
    kekulization are frozen copies of the library's as the one-pass builder
    found them; the fold runs here on every draft, not only on drafts with
    a hydrogen atom. Hueckel perception is the all-rings-at-once reference
    below.
    """
    reference_fold_explicit_h(draft)
    n = len(draft.atoms)

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
            orders[bi] = BOND_ORDERS[b.symbol]

    neighbors: list[list[int]] = [[] for _ in range(n)]
    incident: list[list[int]] = [[] for _ in range(n)]
    keys = []
    for bi, b in enumerate(draft.bonds):
        neighbors[b.a].append(b.b)
        neighbors[b.b].append(b.a)
        incident[b.a].append(bi)
        incident[b.b].append(bi)
        keys.append((b.a, b.b) if b.a < b.b else (b.b, b.a))
    ring_keys = reference_non_bridge_edges(n, tuple(tuple(x) for x in neighbors), keys)

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

    reference_kekulize(draft, orders, candidate, incident)

    implicit = [0] * n
    for idx, a in enumerate(draft.atoms):
        bond_sum = sum(orders[bi] for bi in incident[idx]) + a.folded_h
        if a.explicit_h is None:
            implicit[idx] = a.folded_h + hydrogens_to_fill(
                allowed_valences(a.atomic_number, a.charge), bond_sum
            )
        else:
            implicit[idx] = a.explicit_h + a.folded_h

    for idx, a in enumerate(draft.atoms):
        allowed = allowed_valences(a.atomic_number, a.charge)
        total = sum(orders[bi] for bi in incident[idx]) + implicit[idx]
        if allowed is not None and total not in allowed:
            raise ChemistryError(
                f"valence {total} not allowed for atom {idx} "
                f"(element {a.atomic_number}, charge {a.charge:+d})"
            )

    reference_perceive_huckel(draft, orders, aromatic_bond, declared, keys, ring_keys)

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
        )
        for bi, b in enumerate(draft.bonds)
    )
    chirality = tuple(
        (a.chiral, tuple(a.slots)) if a.chiral else None for a in draft.atoms
    )
    return Molecule(atoms, bonds, chirality, ring_bonds=ring_keys)


def reference_fold_explicit_h(draft: MolDraft) -> None:
    """Fold plain single-bonded [H] atoms into the heavy atom's H count: a
    bond table per atom, and the folded atoms and bonds collected in sets
    that the remap then skips."""
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
        new_bonds.append(b)
    draft.atoms = new_atoms
    draft.bonds = new_bonds


def reference_kekulize(
    draft: MolDraft,
    orders: list[int],
    candidate: list[bool],
    incident: list[list[int]],
) -> None:
    """Assign kekule orders inside declared-aromatic systems: a perfect
    matching over candidate bonds between the atoms ``takes_double_bond``
    names, found depth-first, the most constrained free atom first."""
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

    # The next atom to pair is the free atom with the fewest free neighbours,
    # ties broken by index; a heap holds (free neighbours, atom) entries, and
    # stale ones are skipped.
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


def reference_non_bridge_edges(
    n: int,
    neighbors: tuple[tuple[int, ...], ...],
    keys: list[tuple[int, int]],
) -> frozenset[tuple[int, int]]:
    """The bond keys on cycles, found by subtracting bridges (iterative Tarjan)."""
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
    return frozenset(key for key in keys if key not in bridges)


REFERENCE_MULTI = -2  # sentinel: atom has several multiple bonds (not conjugatable)


def reference_perceive_huckel(
    draft: MolDraft,
    orders: list[int],
    aromatic_bond: list[bool],
    declared: list[bool],
    keys: list[tuple[int, int]],
    ring_keys: frozenset[tuple[int, int]],
) -> None:
    """Mark 4n+2 rings written in kekule form as aromatic, as the library did
    before it tested one fused ring system at a time.

    An all-pairs edge-sharing matrix over every candidate ring of the
    molecule, a scan of every triple, then a union-find as its own pass.

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

    # Unique double-bond partner per atom; REFERENCE_MULTI disqualifies.
    partner = [None] * len(draft.atoms)
    for bi, b in enumerate(draft.bonds):
        if orders[bi] == 2:
            for x, y in ((b.a, b.b), (b.b, b.a)):
                partner[x] = y if partner[x] is None else REFERENCE_MULTI
        elif orders[bi] == 3:
            partner[b.a] = REFERENCE_MULTI
            partner[b.b] = REFERENCE_MULTI

    def contribution(idx: int, union: frozenset[int]) -> int | None:
        p = partner[idx]
        if p == REFERENCE_MULTI:
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

    cycles = reference_small_cycles(ring_keys)
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


def reference_small_cycles(
    ring_keys: frozenset[tuple[int, int]],
) -> list[tuple[frozenset[int], frozenset[tuple[int, int]]]]:
    """All shortest cycles through each ring edge (input-order invariant set),
    searched from every ring edge, lone cycles included."""
    ring_adj: dict[int, list[int]] = defaultdict(list)
    for a, b in ring_keys:
        ring_adj[a].append(b)
        ring_adj[b].append(a)

    out = []
    seen: set[frozenset[tuple[int, int]]] = set()
    for u, v in sorted(ring_keys):
        for path in reference_shortest_paths(u, v, ring_adj, skip=(u, v)):
            edges = {(u, v)}
            for x, y in zip(path, path[1:]):
                edges.add((x, y) if x < y else (y, x))
            fr = frozenset(edges)
            if fr not in seen:
                seen.add(fr)
                out.append((frozenset(path), fr))
    return out


def reference_shortest_paths(
    u: int,
    v: int,
    adj: dict[int, list[int]],
    skip: tuple[int, int],
    cap: int = 32,
) -> list[list[int]]:
    """Every shortest u-v path avoiding the skipped edge (up to cap)."""
    s0, s1 = skip
    dist = {u: 0}
    preds: dict[int, list[int]] = defaultdict(list)
    frontier = [u]
    while frontier and v not in dist:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if (x == s0 and y == s1) or (x == s1 and y == s0):
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

    # Depth-first from v back to u over the predecessor lists, as a loop:
    # stack entries are (node, its distance from v), and acc holds the
    # nodes from v up to, not including, the node popped last.
    paths: list[list[int]] = []
    acc: list[int] = []
    stack = [(v, 0)]
    while stack and len(paths) < cap:
        node, depth = stack.pop()
        del acc[depth:]
        if node == u:
            paths.append([u] + acc[::-1])
            continue
        acc.append(node)
        stack.extend((p, depth + 1) for p in reversed(preds[node]))
    return paths


def reference_write_fragment(mol: Molecule, ranks: list[int], frag: tuple[int, ...]) -> str:
    """SMILES of one fragment: a depth-first walk from its lowest-ranked atom,
    children in rank order, each bond looked up as it is written, and ring
    numbers from 1 up, the lowest free one reused. It has no limit: ring
    number 100 comes out as `%100`, which reads back as rings 10 and 0."""
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
        token = "" if par is None else _reference_bond_str(mol, par, v)
        token += _reference_atom_token(mol, v, par, openings, closings, children)
        for u in closings[v]:
            d = digit_of.pop((u, v) if u < v else (v, u))
            token += fmt(d)
            heapq.heappush(freed, d)
        for w in openings[v]:
            d = alloc()
            digit_of[(v, w) if v < w else (w, v)] = d
            token += _reference_bond_str(mol, v, w) + fmt(d)
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


def _reference_bond_str(mol: Molecule, u: int, v: int) -> str:
    bond = bond_between(mol, u, v)
    if bond.stereo is not None:
        return bond.stereo if bond.a == u else bond.stereo.translate(FLIP_DIRECTION)
    if bond.is_aromatic:
        return ""
    if bond.order == 1:
        if mol.atoms[u].is_aromatic and mol.atoms[v].is_aromatic:
            return "-"
        return ""
    return "=" if bond.order == 2 else "#"


def _reference_inferred_bare_h(mol: Molecule, v: int) -> int:
    """Hydrogens a re-parse would infer if this atom were written bare."""
    a = mol.atoms[v]
    sigma = 0
    explicit_multiple = False
    for w in mol.neighbors[v]:
        bond = bond_between(mol, v, w)
        if bond.is_aromatic:
            sigma += 1
        else:
            sigma += bond.order
            if bond.order >= 2:
                explicit_multiple = True
    if a.is_aromatic and takes_double_bond(a.atomic_number, 0, sigma, explicit_multiple, True):
        sigma += 1
    return hydrogens_to_fill(allowed_valences(a.atomic_number), sigma)


def _reference_atom_token(
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
        and a.implicit_hydrogens == _reference_inferred_bare_h(mol, v)
    )
    if bare_ok:
        return sym

    later = closings[v] + openings[v] + children[v]
    tag = chirality and reference_adjusted_tag(mol, v, -1 if par is None else par, later)

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


def reference_adjusted_tag(mol: Molecule, v: int, par: int, later: list[int]) -> str | None:
    """Chiral tag re-expressed for the written neighbour order: the parent
    (``par``, -1 for none), an in-bracket hydrogen, then ``later``. An odd
    permutation of the declared order flips the tag; a centre with more than
    one hydrogen, or whose written neighbours are not the declared ones,
    loses it."""
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
    if reference_perm_parity(list(stored), out) == 0:
        return tag
    return "@@" if tag == "@" else "@"


def reference_perm_parity(src: list[int], dst: list[int]) -> int:
    """0 when dst is an even permutation of src, 1 when odd, by counting
    inversions."""
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
