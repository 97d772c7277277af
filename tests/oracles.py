"""Independent brute-force oracles the fast implementations are checked against.

Everything here follows the plain written definitions with no shortcuts:
all-injections subgraph matching, memoized recursive edit distance, the
confusion-entropy / Matthews-coefficient formulas expanded term by term, and
canonical ranking that re-sorts every atom in every refinement round.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import permutations

from rxnkit.molgraph.model import bond_code
from rxnkit.substructure import _atom_matches, _bond_matches


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
            bond = mol.bond_between(image[a], image[b])
            if bond is None or not _bond_matches(kind, bond):
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
