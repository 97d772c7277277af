"""Mini substructure-query language and subgraph matcher.

The query grammar covers what the shipped key table needs: element atoms
([#6], C, c, Cl, ...), aromatic/aliphatic by symbol case, [R] / [R0] ring
membership, [Dn] degree, [Hn] hydrogen count, charges, '~' any-bond, ':'
aromatic bond, and '!', '&', ',' logic inside brackets. A parsed pattern
carries its own adjacency.

Matching is subgraph monomorphism. Per molecule, the matcher derives once
the atoms having each primitive feature (element, aromatic, ring, degree,
total H, charge) and, in a memo kept on the molecule, the atoms each atom
predicate admits (a bit mask, composed from the features by set algebra)
and the neighbours each bond kind admits. Matching many patterns against
one molecule, as a key fingerprint does, thus evaluates each distinct
predicate once. A one-atom pattern is answered from its candidate atoms; a
larger one is searched depth first, as a loop over an explicit stack,
rarest predicate first and then along pattern bonds, drawing each next
atom from the admitted neighbours of an atom already placed. Match
counting collapses embeddings sharing the same atom set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

from .molgraph.elements import AROMATIC_SYMBOLS, ATOMIC_NUMBER
from .molgraph.model import Molecule

_BARE_TWO = ("Cl", "Br")
_BARE_ONE = set("BCNOPSFI")
_BOND_KINDS = {"-": "single", "=": "double", "#": "triple", ":": "aromatic", "~": "any"}


class PatternSyntaxError(ValueError):
    """The query text is not in the supported grammar."""


@dataclass(frozen=True)
class Pattern:
    """A parsed query: predicate atoms plus bond constraints."""

    text: str
    atoms: tuple[tuple, ...]
    bonds: tuple[tuple[int, int, str], ...]
    # Per pattern atom, its (neighbour, bond kind) pairs in bond order.
    adjacency: tuple[tuple[tuple[int, str], ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        adj: list[list[tuple[int, str]]] = [[] for _ in self.atoms]
        for a, b, kind in self.bonds:
            adj[a].append((b, kind))
            adj[b].append((a, kind))
        object.__setattr__(self, "adjacency", tuple(tuple(x) for x in adj))

    def __len__(self) -> int:
        return len(self.atoms)


def parse_pattern(text: str) -> Pattern:
    """Parse a query string, or raise PatternSyntaxError."""
    if not text or not text.strip():
        raise PatternSyntaxError("empty pattern")
    s = text.strip()
    atoms: list[tuple] = []
    bonds: list[tuple[int, int, str]] = []
    bond_keys: set[tuple[int, int]] = set()
    prev: int | None = None
    pending: str | None = None
    stack: list[int] = []
    open_rings: dict[int, tuple[int, str | None]] = {}
    i, n = 0, len(s)

    def add_bond(a: int, b: int, kind: str) -> None:
        key = (a, b) if a < b else (b, a)
        if a == b or key in bond_keys:
            raise PatternSyntaxError(f"bad ring bond in pattern {s!r}")
        bond_keys.add(key)
        bonds.append((a, b, kind))

    def attach(idx: int) -> None:
        nonlocal pending
        if prev is not None:
            add_bond(prev, idx, pending or "default")
        elif pending is not None:
            raise PatternSyntaxError(f"dangling bond in pattern {s!r}")
        pending = None

    while i < n:
        ch = s[i]
        if ch == "(":
            if prev is None:
                raise PatternSyntaxError(f"branch with no atom in {s!r}")
            stack.append(prev)
            i += 1
        elif ch == ")":
            if not stack:
                raise PatternSyntaxError(f"unbalanced ')' in {s!r}")
            prev = stack.pop()
            i += 1
        elif ch in _BOND_KINDS:
            if pending is not None:
                raise PatternSyntaxError(f"doubled bond symbol in {s!r}")
            pending = _BOND_KINDS[ch]
            i += 1
        elif ch.isdigit() or ch == "%":
            if ch == "%":
                if i + 2 >= n or not s[i + 1 : i + 3].isdigit():
                    raise PatternSyntaxError(f"bad %NN ring number in {s!r}")
                digit = int(s[i + 1 : i + 3])
                i += 3
            else:
                digit = int(ch)
                i += 1
            if prev is None:
                raise PatternSyntaxError(f"ring digit before any atom in {s!r}")
            if digit in open_rings:
                other, okind = open_rings.pop(digit)
                kind = okind or pending or "default"
                if okind and pending and okind != pending:
                    raise PatternSyntaxError(f"conflicting ring bond in {s!r}")
                add_bond(other, prev, kind)
            else:
                open_rings[digit] = (prev, pending)
            pending = None
        elif ch == "[":
            end = s.find("]", i)
            if end == -1:
                raise PatternSyntaxError(f"unclosed '[' in {s!r}")
            pred = _parse_expression(s[i + 1 : end])
            atoms.append(pred)
            attach(len(atoms) - 1)
            prev = len(atoms) - 1
            i = end + 1
        elif ch.isalpha():
            i, pred = _parse_bare_atom(s, i)
            atoms.append(pred)
            attach(len(atoms) - 1)
            prev = len(atoms) - 1
        else:
            raise PatternSyntaxError(f"unsupported token {ch!r} in pattern {s!r}")

    if stack:
        raise PatternSyntaxError(f"unbalanced '(' in {s!r}")
    if open_rings:
        raise PatternSyntaxError(f"unclosed ring bond in {s!r}")
    if pending is not None:
        raise PatternSyntaxError(f"dangling bond at end of {s!r}")
    if not atoms:
        raise PatternSyntaxError(f"pattern {s!r} has no atoms")
    return Pattern(text=s, atoms=tuple(atoms), bonds=tuple(bonds))


def _parse_bare_atom(s: str, i: int) -> tuple[int, tuple]:
    two = s[i : i + 2]
    if two in _BARE_TWO:
        return i + 2, ("and", (("elem", ATOMIC_NUMBER[two]), ("arom", False)))
    ch = s[i]
    if ch in _BARE_ONE:
        return i + 1, ("and", (("elem", ATOMIC_NUMBER[ch]), ("arom", False)))
    if ch in AROMATIC_SYMBOLS:
        return i + 1, ("and", (("elem", AROMATIC_SYMBOLS[ch]), ("arom", True)))
    raise PatternSyntaxError(f"unknown atom symbol {ch!r} in pattern {s!r}")


def _parse_expression(body: str) -> tuple:
    """Bracket expression: ',' (or) over '&' (and, also implicit) over '!'."""
    if not body:
        raise PatternSyntaxError("empty bracket expression")
    pos = 0

    def parse_or() -> tuple:
        nonlocal pos
        terms = [parse_and()]
        while pos < len(body) and body[pos] == ",":
            pos += 1
            terms.append(parse_and())
        return terms[0] if len(terms) == 1 else ("or", tuple(terms))

    def parse_and() -> tuple:
        nonlocal pos
        terms = [parse_unary()]
        while pos < len(body) and body[pos] not in ",":
            if body[pos] == "&":
                pos += 1
            terms.append(parse_unary())
        return terms[0] if len(terms) == 1 else ("and", tuple(terms))

    def parse_unary() -> tuple:
        nonlocal pos
        if pos < len(body) and body[pos] == "!":
            pos += 1
            return ("not", parse_unary())
        return parse_primitive()

    def read_digits(default: int) -> int:
        nonlocal pos
        start = pos
        while pos < len(body) and body[pos].isdigit():
            pos += 1
        return int(body[start:pos]) if pos > start else default

    def parse_primitive() -> tuple:
        nonlocal pos
        if pos >= len(body):
            raise PatternSyntaxError(f"truncated expression in [{body}]")
        ch = body[pos]
        if ch == "#":
            pos += 1
            z = read_digits(-1)
            if z < 1 or z > 118:
                raise PatternSyntaxError(f"bad element number in [{body}]")
            return ("elem", z)
        if ch == "R":
            pos += 1
            count = read_digits(1)
            if count == 0:
                return ("not", ("ring",))
            if count == 1:
                return ("ring",)
            raise PatternSyntaxError(f"unsupported ring count R{count} in [{body}]")
        if ch == "D":
            pos += 1
            return ("deg", read_digits(1))
        if ch == "H":
            pos += 1
            return ("h", read_digits(1))
        if ch in "+-":
            sign = 1 if ch == "+" else -1
            pos += 1
            if pos < len(body) and body[pos].isdigit():
                return ("charge", sign * read_digits(1))
            count = 1
            while pos < len(body) and body[pos] == ch:
                count += 1
                pos += 1
            return ("charge", sign * count)
        two = body[pos : pos + 2]
        if two in _BARE_TWO:
            pos += 2
            return ("and", (("elem", ATOMIC_NUMBER[two]), ("arom", False)))
        if ch.isupper() and ch in _BARE_ONE:
            pos += 1
            return ("and", (("elem", ATOMIC_NUMBER[ch]), ("arom", False)))
        if ch in AROMATIC_SYMBOLS:
            pos += 1
            return ("and", (("elem", AROMATIC_SYMBOLS[ch]), ("arom", True)))
        raise PatternSyntaxError(f"unsupported token {ch!r} in [{body}]")

    tree = parse_or()
    if pos != len(body):
        raise PatternSyntaxError(f"trailing {body[pos:]!r} in [{body}]")
    return tree


def _total_h(mol: Molecule, idx: int) -> int:
    explicit = sum(1 for w in mol.neighbors[idx] if mol.atoms[w].atomic_number == 1)
    return mol.atoms[idx].implicit_hydrogens + explicit


def _atom_matches(pred: tuple, mol: Molecule, idx: int) -> bool:
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
        return _total_h(mol, idx) == pred[1]
    if kind == "charge":
        return mol.atoms[idx].formal_charge == pred[1]
    if kind == "not":
        return not _atom_matches(pred[1], mol, idx)
    if kind == "and":
        return all(_atom_matches(p, mol, idx) for p in pred[1])
    if kind == "or":
        return any(_atom_matches(p, mol, idx) for p in pred[1])
    raise AssertionError(f"unknown predicate {pred!r}")


def _bond_matches(kind: str, bond) -> bool:
    if kind == "any":
        return True
    if kind == "aromatic":
        return bond.is_aromatic
    if kind == "default":
        return bond.is_aromatic or bond.order == 1
    if kind == "single":
        return bond.order == 1 and not bond.is_aromatic
    if kind == "double":
        return bond.order == 2 and not bond.is_aromatic
    return bond.order == 3 and not bond.is_aromatic  # triple


_ALL = ()  # memo key of the mask of every atom


def _atom_masks(mol: Molecule, memo: dict) -> None:
    """Record each primitive feature's atoms as a bit mask, once per molecule."""
    ring = mol.ring_membership
    degrees = mol.degrees
    for idx, atom in enumerate(mol.atoms):
        bit = 1 << idx
        features = [
            ("elem", atom.atomic_number),
            ("arom", atom.is_aromatic),
            ("deg", degrees[idx]),
            ("h", _total_h(mol, idx)),
            ("charge", atom.formal_charge),
        ]
        if ring[idx]:
            features.append(("ring",))
        for feature in features:
            memo[feature] = memo.get(feature, 0) | bit
    memo[_ALL] = (1 << len(mol.atoms)) - 1


def _predicate_mask(pred: tuple, memo: dict) -> int:
    """Atoms matching an atom predicate, as a bit mask; memoized per molecule."""
    mask = memo.get(pred)
    if mask is None:
        kind = pred[0]
        if kind == "not":
            mask = memo[_ALL] & ~_predicate_mask(pred[1], memo)
        elif kind == "and":
            mask = memo[_ALL]
            for p in pred[1]:
                mask &= _predicate_mask(p, memo)
        elif kind == "or":
            mask = 0
            for p in pred[1]:
                mask |= _predicate_mask(p, memo)
        else:
            mask = 0  # a primitive feature no atom has
        memo[pred] = mask
    return mask


def _bond_neighbors(kind: str, mol: Molecule, memo: dict) -> tuple[list, list]:
    """Per atom, the neighbours a bond kind admits: lists in neighbour order
    and bit masks; memoized per molecule."""
    hit = memo.get(kind)
    if hit is None:
        lists: list[list[int]] = [[] for _ in mol.atoms]
        masks = [0] * len(mol.atoms)
        # Bond order is the order Molecule.neighbors lists neighbours in.
        for bond in mol.bonds:
            if _bond_matches(kind, bond):
                a, b = bond.a, bond.b
                lists[a].append(b)
                lists[b].append(a)
                masks[a] |= 1 << b
                masks[b] |= 1 << a
        hit = memo[kind] = (lists, masks)
    return hit


def _bits(mask: int):
    """Set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _search_plan(
    pattern: Pattern, masks: list[int], mol: Molecule, memo: dict
) -> list[tuple]:
    """Pattern atoms in search order, rarest predicate first, then along bonds.

    Each step holds the pattern atom, its candidate mask, the placed
    neighbour whose admitted neighbours are its pool (None: its candidates)
    with that bond kind's neighbour lists, and the other bonds to placed
    atoms with their kinds' neighbour masks.
    """
    n = len(masks)
    counts = [mask.bit_count() for mask in masks]
    placed = [False] * n
    frontier: set[int] = set()
    plan = []
    for _ in range(n):
        pool = frontier or [i for i in range(n) if not placed[i]]
        p = min(pool, key=lambda i: (counts[i], i))
        anchored = [
            (j, _bond_neighbors(kind, mol, memo))
            for j, kind in pattern.adjacency[p] if placed[j]
        ]
        anchor = (anchored[0][0], anchored[0][1][0]) if anchored else None
        checks = [(j, kind_masks) for j, (_, kind_masks) in anchored[1:]]
        plan.append((p, masks[p], anchor, checks))
        placed[p] = True
        frontier.discard(p)
        frontier.update(j for j, _ in pattern.adjacency[p] if not placed[j])
    return plan


def find_matches(
    pattern: Pattern, mol: Molecule, max_matches: int | None = None
) -> list[tuple[int, ...]]:
    """Embeddings in pattern-atom order, one per distinct molecule atom set."""
    memo = mol.match_memo
    if _ALL not in memo:
        _atom_masks(mol, memo)
    masks = [_predicate_mask(pred, memo) for pred in pattern.atoms]
    if not all(masks):
        return []
    # The search stops once it holds this many results (at least one).
    limit = None if max_matches is None else max(max_matches, 1)
    if len(masks) == 1:
        return [(m,) for m in islice(_bits(masks[0]), limit)]

    plan = _search_plan(pattern, masks, mol, memo)
    results: list[tuple[int, ...]] = []
    seen_sets: set[frozenset[int]] = set()
    mapping = [-1] * len(plan)  # molecule atom of each pattern atom placed
    used = [False] * len(mol.atoms)
    last = len(plan) - 1
    pools = [_bits(plan[0][1])]
    while pools:
        d = len(pools) - 1
        p, cand, _, checks = plan[d]
        for m in pools[d]:
            if used[m] or not cand >> m & 1:
                continue
            if checks and any(
                not kind_masks[mapping[j]] >> m & 1 for j, kind_masks in checks
            ):
                continue
            mapping[p] = m
            if d == last:
                key = frozenset(mapping)
                if key not in seen_sets:
                    seen_sets.add(key)
                    results.append(tuple(mapping))
                    if limit is not None and len(results) >= limit:
                        return results
                continue
            used[m] = True
            _, nxt_cand, nxt_anchor, _ = plan[d + 1]
            if nxt_anchor is None:
                pools.append(_bits(nxt_cand))
            else:
                j, kind_lists = nxt_anchor
                pools.append(iter(kind_lists[mapping[j]]))
            break
        else:
            pools.pop()
            if pools:
                used[mapping[plan[d - 1][0]]] = False
    return results


def has_match(pattern: Pattern, mol: Molecule) -> bool:
    """True when at least one embedding exists."""
    return bool(find_matches(pattern, mol, max_matches=1))


def count_matches(pattern: Pattern, mol: Molecule) -> int:
    """Number of distinct atom-set embeddings."""
    return len(find_matches(pattern, mol))
