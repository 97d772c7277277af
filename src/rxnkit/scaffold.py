"""Bemis-Murcko scaffolds, scaffold-similarity test resampling, leakage audit.

The scaffold of a molecule is its ring systems plus the linkers connecting
them: degree-1 atoms are deleted iteratively unless double-bonded to a ring
atom, hydrogens are refilled, and the result is canonicalized. A scaffold
carries no stereo. Acyclic molecules map to the empty sentinel.

Note on empty scaffolds: an acyclic record's scaffold fingerprint has no
bits, and two empty fingerprints score Tanimoto 1.0, so acyclic candidates
never survive a similarity ceiling below 1 when the train set contains any
acyclic scaffold.
"""

from __future__ import annotations

from itertools import combinations, product

from ._jsonl import dumps, id_order
from .fingerprint import BitFingerprint, FingerprintSpec, fingerprint
from .molgraph import Atom, Molecule, canonical_smiles, parse_smiles
from .molgraph.elements import allowed_valences, hydrogens_to_fill
from .reaction import Reaction, key_of_roles, parse_reaction, reaction_key, role_smiles

EMPTY_SCAFFOLD = "∅"  # ∅


def scaffold_molecule(mol: Molecule) -> Molecule | None:
    """The Murcko scaffold as a molecule, or None for acyclic input."""
    in_ring = mol.ring_membership
    if not any(in_ring):
        return None
    # Peel leaves from a worklist: a chain atom goes once at most one
    # neighbour is left, unless it is held: multiply bonded to a ring atom.
    # Ring atoms keep two ring neighbours, so they are never leaves, and a
    # held leaf's one neighbour left is that ring atom.
    degree = list(mol.degrees)
    held = {x for b in mol.bonds if b.order >= 2
            for x, y in ((b.a, b.b), (b.b, b.a)) if in_ring[y]}
    kept = [True] * len(degree)
    leaves = [idx for idx, d in enumerate(degree) if d <= 1]
    while leaves:
        idx = leaves.pop()
        if not kept[idx] or idx in held:
            continue  # an exocyclic multiple bond to a ring is retained
        kept[idx] = False
        for other in mol.neighbors[idx]:
            if kept[other]:
                degree[other] -= 1
                if degree[other] <= 1:
                    leaves.append(other)
    order = [idx for idx, keep in enumerate(kept) if keep]
    # The sub-molecule carries no stereo: pruning can remove the neighbours a
    # chirality tag or a direction mark is stated against.
    sub = mol.subgraph(order)
    order_sum = [0] * len(sub)
    for b in sub.bonds:
        order_sum[b.a] += b.order
        order_sum[b.b] += b.order
    atoms = []
    for a, orders in zip(sub.atoms, order_sum):
        allowed = allowed_valences(a.atomic_number, a.formal_charge)
        h = a.implicit_hydrogens if allowed is None else hydrogens_to_fill(allowed, orders)
        atoms.append(Atom(a.atomic_number, a.formal_charge, h, a.is_aromatic, a.isotope))
    # Pruning never removes a ring atom, so the ring bonds are the molecule's.
    new_of_old = {old: new for new, old in enumerate(order)}
    ring = frozenset((new_of_old[a], new_of_old[b]) for a, b in mol.ring_bonds)
    return Molecule(tuple(atoms), sub.bonds, ring_bonds=ring)


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


def _parse_record(record: dict) -> Reaction | Molecule:
    """The reaction of an "rxn" record, or the molecule of a bare "smiles" one."""
    if "rxn" in record:
        return parse_reaction(record["rxn"])
    if "smiles" in record:
        return parse_smiles(record["smiles"])
    raise ValueError(f"record {record.get('id')!r} has neither 'rxn' nor 'smiles'")


def record_key(record: dict, merge_agents: bool = False) -> str:
    """Canonical dedup key of a JSONL record ("rxn" or bare "smiles")."""
    parsed = _parse_record(record)
    if isinstance(parsed, Molecule):
        return canonical_smiles(parsed)
    return reaction_key(parsed, merge_agents=merge_agents)


def _principal_product(products: tuple[Molecule, ...], smiles: list[str]) -> Molecule:
    """The scaffold anchor of a reaction, given each product's canonical SMILES.

    It is the largest product by heavy-atom count, ties broken by the
    lexicographically smallest canonical SMILES (the product is the synthetic
    target). Each product is one fragment: parse_reaction splits on '.'.
    """
    def key(pair: tuple[Molecule, str]) -> tuple[int, str]:
        return -sum(atom.atomic_number > 1 for atom in pair[0].atoms), pair[1]

    return min(zip(products, smiles), key=key)[0]


def _scaffold_fingerprint(anchor: Molecule, spec: FingerprintSpec) -> BitFingerprint:
    """Fingerprint of the anchor's scaffold, or of the empty molecule (no bits) if acyclic."""
    scaffold = scaffold_molecule(anchor)
    return fingerprint(Molecule((), ()) if scaffold is None else scaffold, spec)


def split_features(record: dict, spec: FingerprintSpec) -> tuple[str, BitFingerprint]:
    """(canonical key, scaffold fingerprint) of a record, as resample_test_set takes them.

    A bare molecule record anchors the scaffold on itself, a reaction on its
    principal product (see _principal_product). The record is parsed once,
    and the product tie-break of a reaction reuses the canonical SMILES its
    key is made of.
    """
    parsed = _parse_record(record)
    if isinstance(parsed, Molecule):
        return canonical_smiles(parsed), _scaffold_fingerprint(parsed, spec)
    roles = role_smiles(parsed)
    anchor = _principal_product(parsed.products, roles[2])
    return key_of_roles(*roles), _scaffold_fingerprint(anchor, spec)


def resample_test_set(
    candidates: list[tuple[str | int, str, BitFingerprint]],
    train: list[tuple[str, BitFingerprint]],
    band: tuple[float, float],
    n: int,
) -> dict:
    """The split report: up to n candidates least scaffold-similar to the train set.

    A candidate is (record id, *split_features(record)), a train record
    split_features(record). Candidates whose canonical key appears in train
    are dropped first; the rest are filtered to max-train-similarity <=
    band[1], sorted ascending (ties in id_order), and the first n selected.
    band[0] is diagnostic only: the selection rule is "lowest similarities",
    so the lower bound never filters. A candidate id that repeats raises
    ValueError, since the report names the selected candidates by id.
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
    scored: list[tuple[float, tuple]] = []  # (similarity, id_order(id))
    ids: set[str | int] = set()
    for rid, key, fp in candidates:
        if rid in ids:
            raise ValueError(f"candidate id {dumps(rid)} repeats")
        ids.add(rid)
        if key in train_keys:
            rejected_overlap += 1
            continue
        sim = max_similarity_to_set(fp, train_fps)
        if sim <= band[1]:
            scored.append((sim, id_order(rid)))
    scored.sort()
    chosen = scored[:n]
    return {
        "requested_n": n,
        "delivered_n": len(chosen),
        "rejected_overlap": rejected_overlap,
        "threshold_band": [band[0], band[1]],
        "selected": [{"id": rid, "max_train_similarity": sim} for sim, (_, rid) in chosen],
    }


def detect_leakage(keyed: dict[str, list[tuple[str | int, str]]]) -> dict:
    """The "cross" and "within" lists of the leak report: the duplicate records
    across every split pair and within each split.

    Each split lists (record id, record_key(record)) pairs. Canonical keys
    catch duplicates disguised by fragment reordering or SMILES rewriting.
    The pairs of a list are sorted by their ids in id_order.
    """
    tables: dict[str, dict[str, list[tuple]]] = {}  # name -> key -> id_order(id)s
    for name, pairs in keyed.items():
        table = tables[name] = {}
        for rid, key in pairs:
            table.setdefault(key, []).append(id_order(rid))

    names = sorted(tables)
    cross = []
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            pairs = []
            for key in tables[a].keys() & tables[b].keys():
                pairs.extend(product(tables[a][key], tables[b][key]))
            pairs.sort()
            if pairs:
                cross.append({"splits": [a, b], "count": len(pairs),
                              "pairs": [[x[1], y[1]] for x, y in pairs]})
    within = []
    for name in names:
        pairs = []
        for ids in tables[name].values():
            pairs.extend(combinations(ids, 2))
        pairs.sort()
        if pairs:
            within.append({"split": name, "count": len(pairs),
                           "pairs": [[x[1], y[1]] for x, y in pairs]})
    return {"cross": cross, "within": within}
