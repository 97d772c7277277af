"""Bemis-Murcko scaffolds, scaffold-similarity test resampling, leakage audit.

The scaffold of a molecule is its ring systems plus the linkers connecting
them: degree-1 atoms are deleted iteratively unless double-bonded to a ring
atom, hydrogens are refilled, and the result is canonicalized. Acyclic
molecules map to the empty sentinel.

Note on empty scaffolds: an acyclic record's scaffold fingerprint has no
bits, and two empty fingerprints score Tanimoto 1.0, so acyclic candidates
never survive a similarity ceiling below 1 when the train set contains any
acyclic scaffold.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .fingerprint import BitFingerprint, FingerprintSpec, fingerprint, load_key_table
from .molgraph import Atom, Molecule, canonical_smiles, parse_smiles
from .molgraph.elements import allowed_valences, fill_hydrogens
from .reaction import parse_reaction, reaction_key

EMPTY_SCAFFOLD = "∅"  # ∅


def scaffold_molecule(mol: Molecule) -> Molecule | None:
    """The Murcko scaffold as a molecule, or None for acyclic input."""
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
                bond = mol.bond_between(idx, other)
                if bond.order >= 2 and mol.ring_membership[other]:
                    continue  # exocyclic multiple bond to a ring is retained
            elif mol.ring_membership[idx]:
                continue
            kept.discard(idx)
            for other in nbrs:
                degree[other].discard(idx)
            degree.pop(idx)
            changed = True
    if not kept:
        return None

    sub = mol.subgraph(sorted(kept))
    order_sum = [0] * len(sub)
    for b in sub.bonds:
        order_sum[b.a] += b.order
        order_sum[b.b] += b.order
    atoms = []
    for a, orders in zip(sub.atoms, order_sum):
        h = a.implicit_hydrogens
        if allowed_valences(a.atomic_number, a.formal_charge) is not None:
            h = fill_hydrogens(a.atomic_number, a.formal_charge, orders)
        atoms.append(Atom(a.atomic_number, a.formal_charge, h, a.is_aromatic, a.isotope))
    return Molecule(tuple(atoms), sub.bonds)


def murcko_scaffold(mol: Molecule) -> str:
    """Canonical SMILES of the Murcko scaffold; "∅" for acyclic molecules."""
    scaffold = scaffold_molecule(mol)
    if scaffold is None:
        return EMPTY_SCAFFOLD
    return canonical_smiles(scaffold)


def max_similarity_to_set(
    query: BitFingerprint, reference: list[BitFingerprint]
) -> float:
    """Max Tanimoto between the query and any reference; 0.0 when empty.

    The query's bits are counted once; each union is |A| + |B| - |A n B|.
    """
    best = 0.0
    query_count = query.bits.bit_count()
    for ref in reference:
        if ref.width != query.width:
            raise ValueError(f"fingerprint width mismatch: {query.width} != {ref.width}")
        common = (query.bits & ref.bits).bit_count()
        union = query_count + ref.bits.bit_count() - common
        t = common / union if union else 1.0
        if t > best:
            best = t
            if best == 1.0:
                break
    return best


@dataclass(frozen=True)
class SplitReport:
    """Outcome of a scaffold-similarity test-set resampling."""

    selected: tuple[tuple[str, float], ...]  # (record id, max train similarity)
    rejected_overlap: int
    threshold_band: tuple[float, float]
    requested_n: int
    delivered_n: int

    def to_dict(self) -> dict:
        return {
            "requested_n": self.requested_n,
            "delivered_n": self.delivered_n,
            "rejected_overlap": self.rejected_overlap,
            "threshold_band": list(self.threshold_band),
            "selected": [
                {"id": rid, "max_train_similarity": sim} for rid, sim in self.selected
            ],
        }


def record_key(record: dict, merge_agents: bool = False) -> str:
    """Canonical dedup key of a JSONL record ("rxn" or bare "smiles")."""
    if "rxn" in record:
        return reaction_key(parse_reaction(record["rxn"]), merge_agents=merge_agents)
    if "smiles" in record:
        return canonical_smiles(parse_smiles(record["smiles"]))
    raise ValueError(f"record {record.get('id')!r} has neither 'rxn' nor 'smiles'")


def principal_molecule(record: dict) -> Molecule:
    """Scaffold anchor of a record.

    For reactions: the largest product fragment by heavy-atom count, ties
    broken by lexicographically smallest canonical SMILES (the product is
    the synthetic target). Bare molecule records anchor on themselves.
    """
    if "rxn" in record:
        rxn = parse_reaction(record["rxn"])
        best = None
        best_key = None
        for product in rxn.products:
            for frag_atoms in product.fragments:
                heavy = sum(
                    1 for i in frag_atoms if product.atoms[i].atomic_number > 1
                )
                whole = len(frag_atoms) == len(product.atoms)
                sub = product if whole else product.subgraph(frag_atoms)
                key = (-heavy, canonical_smiles(sub))
                if best_key is None or key < best_key:
                    best_key = key
                    best = sub
        assert best is not None
        return best
    if "smiles" in record:
        return parse_smiles(record["smiles"])
    raise ValueError(f"record {record.get('id')!r} has neither 'rxn' nor 'smiles'")


def scaffold_fingerprint(record: dict, spec: FingerprintSpec) -> BitFingerprint:
    """Fingerprint of the record's scaffold; empty bits for acyclic anchors."""
    scaffold = scaffold_molecule(principal_molecule(record))
    if scaffold is None:
        width = len(load_key_table(spec.key_table)) if spec.kind == "key" else spec.width
        return BitFingerprint(width=width, bits=0)
    return fingerprint(scaffold, spec)


def split_features(record: dict, spec: FingerprintSpec) -> tuple[str, BitFingerprint]:
    """(canonical key, scaffold fingerprint) of a record, as resample_test_set takes them."""
    return record_key(record), scaffold_fingerprint(record, spec)


def resample_test_set(
    candidates: list[tuple[str, str, BitFingerprint]],
    train: list[tuple[str, BitFingerprint]],
    band: tuple[float, float],
    n: int,
) -> SplitReport:
    """Pick up to n candidates least scaffold-similar to the train set.

    A candidate is (record id, *split_features(record)), a train record
    split_features(record). Candidates whose canonical key appears in train
    are dropped first; the rest are filtered to max-train-similarity <=
    band[1], sorted ascending (ties by record id), and the first n selected.
    band[0] is diagnostic only: the selection rule is "lowest similarities",
    so the lower bound never filters.
    """
    if not candidates:
        raise ValueError("empty candidate pool")
    if n < 1:
        raise ValueError("n must be >= 1")
    if band[0] > band[1]:
        raise ValueError("band low must be <= band high")
    train_keys = {key for key, _ in train}
    train_fps = [fp for _, fp in train]

    rejected_overlap = 0
    scored: list[tuple[float, str]] = []
    for rid, key, fp in candidates:
        if key in train_keys:
            rejected_overlap += 1
            continue
        sim = max_similarity_to_set(fp, train_fps)
        if sim <= band[1]:
            scored.append((sim, rid))
    scored.sort()
    chosen = scored[:n]
    return SplitReport(
        selected=tuple((rid, sim) for sim, rid in chosen),
        rejected_overlap=rejected_overlap,
        threshold_band=(band[0], band[1]),
        requested_n=n,
        delivered_n=len(chosen),
    )


@dataclass(frozen=True)
class LeakReport:
    """Exact-duplicate pairs across and within named splits.

    errors lists the records that could not be keyed, as (split, record id,
    message); detect_leakage never sees them, so its caller fills it.
    """

    cross: tuple[tuple[str, str, tuple[tuple[str, str], ...]], ...]
    within: tuple[tuple[str, tuple[tuple[str, str], ...]], ...]
    errors: tuple[tuple[str, str, str], ...] = ()

    def pair_count(self, split_a: str, split_b: str) -> int:
        for a, b, pairs in self.cross:
            if {a, b} == {split_a, split_b}:
                return len(pairs)
        return 0

    def to_dict(self) -> dict:
        return {
            "cross": [
                {"splits": [a, b], "count": len(pairs), "pairs": [list(p) for p in pairs]}
                for a, b, pairs in self.cross
            ],
            "within": [
                {"split": name, "count": len(pairs), "pairs": [list(p) for p in pairs]}
                for name, pairs in self.within
            ],
            "errors": [
                {"split": s, "id": rid, "error": msg} for s, rid, msg in self.errors
            ],
        }


def detect_leakage(keyed: dict[str, list[tuple[str, str]]]) -> LeakReport:
    """Find duplicate records across every split pair and within each split.

    Each split lists (record id, record_key(record)) pairs. Canonical keys
    catch duplicates disguised by fragment reordering or SMILES rewriting.
    """
    tables: dict[str, dict[str, list[str]]] = {}
    for name, pairs in keyed.items():
        table = tables[name] = {}
        for rid, key in pairs:
            table.setdefault(key, []).append(rid)

    names = sorted(tables)
    cross = []
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            pairs = []
            for key in tables[a].keys() & tables[b].keys():
                pairs.extend(product(tables[a][key], tables[b][key]))
            pairs.sort()
            if pairs:
                cross.append((a, b, tuple(pairs)))
    within = []
    for name in names:
        pairs = []
        for ids in tables[name].values():
            pairs.extend(combinations(ids, 2))
        pairs.sort()
        if pairs:
            within.append((name, tuple(pairs)))
    return LeakReport(cross=tuple(cross), within=tuple(within))
