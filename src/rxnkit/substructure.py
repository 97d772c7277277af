"""Mini substructure-query language and subgraph matcher.

The query grammar covers what the shipped key table needs: element atoms
([#6], C, c, Cl, ...), aromatic/aliphatic by symbol case, [R] / [R0] ring
membership, [Dn] degree, [Hn] hydrogen count, charges, '~' any-bond, ':'
aromatic bond, and '!', '&', ',' logic inside brackets. Bare symbols,
digits and charges are read by the SMILES reader's rules. A parsed pattern
carries its own adjacency, and each of its atom predicates, and each
sub-predicate, interned to an int slot: equal predicates of any patterns
share one slot.

Matching is subgraph monomorphism. Per molecule, the matcher derives once
the atoms having each primitive feature (element, aromatic, ring, degree,
total H, charge) and, in a memo kept on the molecule, the atoms each slot
admits (a bit mask, composed from the features by set algebra) and the
neighbours each bond kind admits. Matching many patterns against one
molecule, as a key fingerprint does, thus evaluates each distinct predicate
once. A one-atom pattern is answered from its candidate atoms; a larger one
is searched depth first, as a loop over an explicit stack, rarest predicate
first and then along pattern bonds, drawing each next atom from the
admitted neighbours of an atom already placed. That order depends on the
molecule, but the steps for a given order (each atom's anchor bond and the
bonds it checks) do not, so a pattern caches them per order it has met.
Each atom is drawn only from molecule atoms with at least its number of
pattern neighbours, and on a ring if it lies on a pattern cycle; this prunes
dead branches but never changes the order, so the embeddings and their order
are those of the unpruned search. Match counting collapses embeddings
sharing the same atom set.

compile_keys and key_bits answer a whole key table: one-atom keys by the
popcount of their mask, two-atom keys by one pass over the bond kind's
neighbour masks, and only the larger keys by find_matches.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import islice

from .molgraph.elements import BARE_ATOMS
from .molgraph.model import AROMATIC_CODE, Molecule, _non_bridge_edges, bond_code
from .molgraph.parser import DIGITS, read_charge, read_digits, read_ring_number, read_symbol

# A pattern bond kind is the set of bond codes (bond_code) it admits.
_BOND_KINDS = {
    "-": frozenset({1}),
    "=": frozenset({2}),
    "#": frozenset({3}),
    ":": frozenset({AROMATIC_CODE}),
    "~": frozenset({1, 2, 3, AROMATIC_CODE}),
}
_UNWRITTEN = frozenset({1, AROMATIC_CODE})  # single or aromatic


class PatternSyntaxError(ValueError):
    """The query text is not in the supported grammar."""


# Interned atom predicates: each distinct predicate tuple has an int slot,
# and _RULES[slot] says how its mask is made: ("feature", primitive),
# ("not", slot), or ("and" | "or", slots). The table is one per process, not
# per pattern or key table, because every pattern matched against a molecule
# shares that molecule's memo, keyed by these slots.
_SLOTS: dict[tuple, int] = {}
_RULES: list[tuple[str, object]] = []


def _intern(pred: tuple) -> int:
    """The slot of a predicate, interning it and its sub-predicates."""
    slot = _SLOTS.get(pred)
    if slot is None:
        kind = pred[0]
        if kind == "not":
            rule = ("not", _intern(pred[1]))
        elif kind in ("and", "or"):
            rule = (kind, tuple(_intern(p) for p in pred[1]))
        else:
            rule = ("feature", pred)
        slot = _SLOTS[pred] = len(_RULES)
        _RULES.append(rule)
    return slot


@dataclass(frozen=True)
class Pattern:
    """A parsed query: predicate atoms plus bond constraints."""

    text: str
    atoms: tuple[tuple, ...]
    bonds: tuple[tuple[int, int, frozenset[int]], ...]
    # Per pattern atom, its (neighbour, bond kind) pairs in bond order.
    adjacency: tuple[tuple[tuple[int, frozenset[int]], ...], ...] = field(
        init=False, repr=False, compare=False
    )
    # Per pattern atom, the slot of its predicate. Slots are numbered in this
    # process, so a pickled pattern is rebuilt from its text, atoms and bonds.
    slots: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # Per pattern atom, the slot of its predicate and-ed with what any image
    # of the atom has: at least as many neighbours, and a ring if the atom
    # lies on a pattern cycle. It prunes the search, not its order.
    search_slots: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # Per pattern atom, its neighbours as a bit mask; and the distinct bond kinds.
    neighbors: tuple[int, ...] = field(init=False, repr=False, compare=False)
    kinds: frozenset[frozenset[int]] = field(init=False, repr=False, compare=False)
    # Search steps per atom order met (see _plan_steps).
    plans: dict[tuple[int, ...], tuple] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        adj: list[list[tuple[int, frozenset[int]]]] = [[] for _ in self.atoms]
        for a, b, kind in self.bonds:
            adj[a].append((b, kind))
            adj[b].append((a, kind))
        object.__setattr__(self, "adjacency", tuple(tuple(x) for x in adj))
        object.__setattr__(self, "neighbors", tuple(sum({1 << j for j, _ in x}) for x in adj))
        object.__setattr__(self, "kinds", frozenset(kind for _, _, kind in self.bonds))
        object.__setattr__(self, "slots", tuple(_intern(pred) for pred in self.atoms))
        # The search ignores a bond from an atom to itself, and so does this.
        others = [sorted({j for j, _ in x} - {i}) for i, x in enumerate(adj)]
        keys = {(a, b) if a < b else (b, a) for a, b, _ in self.bonds if a != b}
        cyclic = {i for key in _non_bridge_edges(others, keys) for i in key}
        search = []
        for i, pred in enumerate(self.atoms):
            parts = [pred]
            if len(others[i]) > 1:
                parts.append(("deg>=", len(others[i])))
            if i in cyclic:
                parts.append(("ring",))
            search.append(_intern(("and", tuple(parts))) if len(parts) > 1 else self.slots[i])
        object.__setattr__(self, "search_slots", tuple(search))

    def __reduce__(self):
        return Pattern, (self.text, self.atoms, self.bonds)

    def __len__(self) -> int:
        return len(self.atoms)


def parse_pattern(text: str) -> Pattern:
    """Parse a query string, or raise PatternSyntaxError."""
    if not text or not text.strip():
        raise PatternSyntaxError("empty pattern")
    s = text.strip()
    atoms: list[tuple] = []
    bonds: list[tuple[int, int, frozenset[int]]] = []
    bond_keys: set[tuple[int, int]] = set()
    prev: int | None = None
    pending: frozenset[int] | None = None
    stack: list[int] = []
    open_rings: dict[int, tuple[int, frozenset[int] | None]] = {}
    i, n = 0, len(s)

    def add_bond(a: int, b: int, kind: frozenset[int]) -> None:
        key = (a, b) if a < b else (b, a)
        if a == b or key in bond_keys:
            raise PatternSyntaxError(f"bad ring bond in pattern {s!r}")
        bond_keys.add(key)
        bonds.append((a, b, kind))

    def attach(idx: int) -> None:
        nonlocal pending
        if prev is not None:
            add_bond(prev, idx, pending or _UNWRITTEN)
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
        elif ch in DIGITS or ch == "%":
            digit, i = read_ring_number(s, i)
            if digit is None:
                raise PatternSyntaxError(f"bad %NN ring number in {s!r}")
            if prev is None:
                raise PatternSyntaxError(f"ring digit before any atom in {s!r}")
            if digit in open_rings:
                other, okind = open_rings.pop(digit)
                kind = okind or pending or _UNWRITTEN
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
            i, pred = _bare_atom(s, i, f"unknown atom symbol {ch!r} in pattern {s!r}")
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


def _bare_atom(s: str, i: int, error: str) -> tuple[int, tuple]:
    """The index after the bare atom symbol at s[i] and its predicate; the
    error, as a PatternSyntaxError, when no bare symbol starts there."""
    found = read_symbol(s, i, BARE_ATOMS)
    if found is None:
        raise PatternSyntaxError(error)
    j, (z, aromatic) = found
    return j, ("and", (("elem", z), ("arom", aromatic)))


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

    def read_number(default: int) -> int:
        nonlocal pos
        number, pos = read_digits(body, pos)
        return default if number is None else number

    def parse_primitive() -> tuple:
        nonlocal pos
        if pos >= len(body):
            raise PatternSyntaxError(f"truncated expression in [{body}]")
        ch = body[pos]
        if ch == "#":
            pos += 1
            z = read_number(-1)
            if z < 1 or z > 118:
                raise PatternSyntaxError(f"bad element number in [{body}]")
            return ("elem", z)
        if ch == "R":
            pos += 1
            count = read_number(1)
            if count == 0:
                return ("not", ("ring",))
            if count == 1:
                return ("ring",)
            raise PatternSyntaxError(f"unsupported ring count R{count} in [{body}]")
        if ch == "D":
            pos += 1
            return ("deg", read_number(1))
        if ch == "H":
            pos += 1
            return ("h", read_number(1))
        if ch in "+-":
            charge, pos = read_charge(body, pos)
            return ("charge", charge)
        pos, pred = _bare_atom(body, pos, f"unsupported token {ch!r} in [{body}]")
        return pred

    tree = parse_or()
    if pos != len(body):
        raise PatternSyntaxError(f"trailing {body[pos:]!r} in [{body}]")
    return tree


def _total_h(mol: Molecule, idx: int) -> int:
    explicit = sum(1 for w in mol.neighbors[idx] if mol.atoms[w].atomic_number == 1)
    return mol.atoms[idx].implicit_hydrogens + explicit


# A match memo holds, per molecule, the atoms of each primitive feature (keyed
# by the feature tuple, ("deg>=", n) among them, which only the search uses),
# of every atom (_ALL), of each interned predicate (keyed by its int slot) and
# the neighbours each bond kind admits (keyed by the kind's frozenset). The
# four key types never compare equal.
_ALL = ()


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
    at_least = 0
    for degree in range(max(degrees, default=0), 1, -1):
        at_least |= memo.get(("deg", degree), 0)
        memo[("deg>=", degree)] = at_least
    memo[_ALL] = (1 << len(mol.atoms)) - 1


def _predicate_mask(slot: int, memo: dict) -> int:
    """Atoms matching an interned atom predicate, as a bit mask; memoized per
    molecule."""
    mask = memo.get(slot)
    if mask is None:
        op, arg = _RULES[slot]
        if op == "feature":
            mask = memo.get(arg, 0)  # 0: a primitive feature no atom has
        elif op == "not":
            mask = memo[_ALL] & ~_predicate_mask(arg, memo)
        elif op == "and":
            mask = memo[_ALL]
            for s in arg:
                mask &= _predicate_mask(s, memo)
        else:
            mask = 0
            for s in arg:
                mask |= _predicate_mask(s, memo)
        memo[slot] = mask
    return mask


def _bond_neighbors(kind: frozenset[int], mol: Molecule, memo: dict) -> tuple[list, list]:
    """Per atom, the neighbours a bond kind admits: lists in neighbour order
    and bit masks; memoized per molecule."""
    hit = memo.get(kind)
    if hit is None:
        lists: list[list[int]] = [[] for _ in mol.atoms]
        masks = [0] * len(mol.atoms)
        # Bond order is the order Molecule.neighbors lists neighbours in.
        for bond in mol.bonds:
            if bond_code(bond) in kind:
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


def _search_order(pattern: Pattern, masks: list[int]) -> tuple[int, ...]:
    """Pattern atoms in search order: the rarest predicate first (ties to the
    lower index), then the rarest atom bonded to one already placed, or the
    rarest left when none is."""
    by_rank = sorted(range(len(masks)), key=[mask.bit_count() for mask in masks].__getitem__)
    p = by_rank.pop(0)
    order = [p]
    reach = pattern.neighbors[p]
    while by_rank:
        for k, p in enumerate(by_rank):
            if reach >> p & 1:
                break
        else:
            k = 0
        p = by_rank.pop(k)
        order.append(p)
        reach |= pattern.neighbors[p]
    return tuple(order)


def _plan_steps(pattern: Pattern, order: tuple[int, ...]) -> tuple[tuple, ...]:
    """The molecule-independent search steps for one atom order, cached on the
    pattern: per atom, its bonds to atoms placed before it as (atom, kind)
    pairs. The first, if any, is its anchor: its candidates are drawn from
    that atom's neighbours."""
    steps = pattern.plans.get(order)
    if steps is None:
        position = {p: d for d, p in enumerate(order)}
        steps = pattern.plans[order] = tuple(
            (p, tuple((j, kind) for j, kind in pattern.adjacency[p] if position[j] < d))
            for d, p in enumerate(order)
        )
    return steps


def _slot_masks(slots: tuple[int, ...], memo: dict) -> list[int] | None:
    """The mask of each slot, or None once one is empty."""
    masks = []
    for slot in slots:
        mask = memo.get(slot)
        if mask is None:
            mask = _predicate_mask(slot, memo)
        if not mask:
            return None
        masks.append(mask)
    return masks


def find_matches(
    pattern: Pattern, mol: Molecule, max_matches: int | None = None
) -> list[tuple[int, ...]]:
    """Embeddings in pattern-atom order, one per distinct molecule atom set."""
    if not mol.atoms:  # no pattern atom can match: skip building the masks
        return []
    memo = mol.match_memo
    if _ALL not in memo:
        _atom_masks(mol, memo)
    masks = _slot_masks(pattern.slots, memo)
    if masks is None:
        return []
    # The search stops once it holds this many results (at least one).
    limit = None if max_matches is None else max(max_matches, 1)
    if len(masks) == 1:
        return [(m,) for m in islice(_bits(masks[0]), limit)]

    cands = _slot_masks(pattern.search_slots, memo)
    if cands is None:
        return []
    for kind in pattern.kinds:
        if kind not in memo:
            _bond_neighbors(kind, mol, memo)
    # Bind the cached steps to this molecule: each step's candidate mask, its
    # anchor with that bond kind's neighbour lists, and its bonds to placed
    # atoms with their kinds' neighbour masks. The order comes from the
    # predicates' masks; the candidates only prune.
    plan = [
        (p, cands[p], bonds and (bonds[0][0], memo[bonds[0][1]][0]),
         [(j, memo[kind][1]) for j, kind in bonds])
        for p, bonds in _plan_steps(pattern, _search_order(pattern, masks))
    ]
    results: list[tuple[int, ...]] = []
    seen_sets: set[frozenset[int]] = set()
    mapping = [-1] * len(plan)  # molecule atom of each pattern atom placed
    used = 0  # mask of the molecule atoms placed above the current depth
    last = len(plan) - 1
    # Per depth, the pool its atom is drawn from, in the order the search
    # tries it, and the mask of the atoms it admits: candidates not yet used
    # and bonded as the pattern asks to every atom placed.
    pools = [_bits(plan[0][1])]
    admitted = [plan[0][1]]
    d = 0
    while d >= 0:
        ok = admitted[d]
        for m in pools[d]:
            if not ok >> m & 1:
                continue
            mapping[plan[d][0]] = m
            if d == last:
                key = frozenset(mapping)
                if key not in seen_sets:
                    seen_sets.add(key)
                    results.append(tuple(mapping))
                    if limit is not None and len(results) >= limit:
                        return results
                continue
            _, nxt, anchor, checks = plan[d + 1]
            nxt &= ~(used | 1 << m)
            for j, kind_masks in checks:
                nxt &= kind_masks[mapping[j]]
            if not nxt:
                continue
            used |= 1 << m
            pools.append(iter(anchor[1][mapping[anchor[0]]]) if anchor else _bits(nxt))
            admitted.append(nxt)
            d += 1
            break
        else:
            pools.pop()
            admitted.pop()
            d -= 1
            if d >= 0:
                used ^= 1 << mapping[plan[d][0]]
    return results


def compile_keys(keys: Iterable[tuple[Pattern, int]]) -> tuple[tuple, tuple, tuple]:
    """Sort (pattern, min_count) keys, key i giving bit i, by how key_bits
    answers them: one-atom patterns, two atoms joined by one bond, and the
    rest, which find_matches searches."""
    atoms, pairs, searched = [], [], []
    for i, (pattern, min_count) in enumerate(keys):
        entry = (1 << i, pattern, min_count)
        if len(pattern) == 1:
            atoms.append(entry)
        elif len(pattern.bonds) == 1 and pattern.neighbors == (0b10, 0b01):
            pairs.append(entry)
        else:
            searched.append(entry)
    return tuple(atoms), tuple(pairs), tuple(searched)


def key_bits(keys: tuple[tuple, tuple, tuple], mol: Molecule) -> int:
    """Bit i set iff the molecule holds at least min_count distinct atom sets
    matching key i of compile_keys: len(find_matches(...)) >= min_count.

    A one-atom key counts its candidate atoms, and a two-atom key the bonds of
    its kind joining a candidate of each end, each pair once. Only the larger
    keys call find_matches.
    """
    if not mol.atoms:
        return 0
    memo = mol.match_memo
    if _ALL not in memo:
        _atom_masks(mol, memo)
    atoms, pairs, searched = keys
    bits = 0
    for bit, pattern, min_count in atoms:
        slot = pattern.slots[0]
        mask = memo.get(slot)
        if mask is None:
            mask = _predicate_mask(slot, memo)
        if mask.bit_count() >= min_count:
            bits |= bit
    for bit, pattern, min_count in pairs:
        masks = _slot_masks(pattern.slots, memo)
        if masks is None:
            continue
        ends, others = masks
        kind = pattern.bonds[0][2]
        kind_masks = (memo.get(kind) or _bond_neighbors(kind, mol, memo))[1]
        count = 0
        for x in _bits(ends):
            hits = kind_masks[x] & others
            if others >> x & 1:
                # A pair whose atoms fit both ends counts at its lower atom.
                hits &= ~(ends & ((1 << x) - 1))
            count += hits.bit_count()
            if count >= min_count:
                bits |= bit
                break
    for bit, pattern, min_count in searched:
        if len(find_matches(pattern, mol, min_count)) >= min_count:
            bits |= bit
    return bits
