"""SMILES reader for the documented grammar subset.

Supported: the organic subset (bare B C N O P S F Cl Br I, aromatic
b c n o p s), bracket atoms with isotope / chirality (@, @@) / H count /
charge / atom map (accepted, dropped), ring bonds 1-9 and %NN, branches,
bond symbols - = # : / \\ and '.' fragment separators.

The parser produces a draft graph; chemistry (kekulization, implicit
hydrogens, valence checks, aromaticity) happens in ``perception``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .elements import BARE_ATOMS, BRACKET_ATOMS
from .model import FLIP_DIRECTION, H_SLOT, SmilesSyntaxError

# The order of each bond symbol; ':' and an unwritten bond are resolved in
# perception, and '/' and '\\' are directions of a single bond.
BOND_ORDERS = {"-": 1, "=": 2, "#": 3}
DIRECTIONS = frozenset("/\\")
# ASCII digits only: str.isdigit() also admits digits int() rejects or reads
# as 0-9 from other scripts.
DIGITS = frozenset("0123456789")
# The longest digit run read as one number: int() converts this many digits
# whatever its limit is set to, and the caller rejects the digits left over.
_MAX_DIGITS = 640


@dataclass
class AtomDraft:
    atomic_number: int
    aromatic: bool = False
    charge: int = 0
    isotope: int | None = None
    explicit_h: int | None = None  # None means "bare atom, infer later"
    folded_h: int = 0
    chiral: str | None = None
    # Neighbor slots in textual order; None entries are ring-bond
    # placeholders fixed up when the ring closes. H_SLOT marks bracket H.
    slots: list[int | None] = field(default_factory=list)


@dataclass
class BondDraft:
    a: int
    b: int
    symbol: str | None = None  # None = unspecified (single or aromatic)
    stereo: str | None = None  # '/' or '\\' read from a to b


@dataclass
class MolDraft:
    atoms: list[AtomDraft] = field(default_factory=list)
    bonds: list[BondDraft] = field(default_factory=list)


def parse_draft(text: str) -> MolDraft:
    """Parse SMILES text into a draft graph, or raise SmilesSyntaxError."""
    if not isinstance(text, str):
        raise SmilesSyntaxError(f"SMILES must be a string, not {type(text).__name__}")
    s = text.strip()
    if not s:
        raise SmilesSyntaxError("empty SMILES string")
    if len(s.split()) > 1:
        raise SmilesSyntaxError("whitespace inside SMILES string")

    mol = MolDraft()
    atoms, bonds = mol.atoms, mol.bonds
    n = len(s)
    i = 0
    prev: int | None = None
    pending: str | None = None  # the bond symbol waiting for its far atom, '/' or '\\' too
    stack: list[int] = []
    # open ring digits: digit -> (atom, its bond symbol or None, slot pos)
    open_rings: dict[int, tuple[int, str | None, int]] = {}

    def fail(msg: str) -> SmilesSyntaxError:
        return SmilesSyntaxError(f"{msg} (position {i} in {s!r})")

    def close_or_open_ring(digit: int) -> None:
        nonlocal pending
        if prev is None:
            raise fail("ring bond digit with no current atom")
        if digit in open_rings:
            other, mark, oslot = open_rings.pop(digit)
            if pending is not None:
                # A closing direction, flipped, reads from other as the opening
                # mark does: the ends agree on equal symbols or opposite directions.
                closing = pending.translate(FLIP_DIRECTION)
                if mark is None:
                    mark = closing
                elif mark != closing:
                    raise fail(f"conflicting bond symbols on ring bond {digit}")
            if other == prev:
                raise SmilesSyntaxError("ring bond connects an atom to itself")
            # An atom's slots name every atom bonded to it so far.
            if other in atoms[prev].slots:
                raise SmilesSyntaxError(f"duplicate bond between atoms {other} and {prev}")
            bonds.append(_bond(other, prev, mark))
            atoms[other].slots[oslot] = prev
            atoms[prev].slots.append(other)
        else:
            slot = len(atoms[prev].slots)
            atoms[prev].slots.append(None)
            open_rings[digit] = (prev, pending, slot)
        pending = None

    while i < n:
        ch = s[i]
        if ch.isalpha() or ch == "[":
            j, atom = _parse_bare(s, i) if ch != "[" else _parse_bracket(s, i)
            idx = len(atoms)
            atoms.append(atom)
            if prev is not None:
                # A bond to a new atom can be neither a loop nor a duplicate.
                bonds.append(_bond(prev, idx, pending))
                atoms[prev].slots.append(idx)
                # The preceding atom is the first stereo slot, ahead of any
                # bracket H recorded while the atom itself was parsed.
                atom.slots.insert(0, prev)
            elif pending is not None:
                raise fail("bond symbol with no preceding atom")
            pending = None
            prev = idx
            i = j
        elif ch == "(":
            if prev is None:
                raise fail("branch with no preceding atom")
            if pending is not None:
                raise fail("bond symbol before '('")
            stack.append(prev)
            i += 1
        elif ch == ")":
            if not stack:
                raise fail("unbalanced parentheses: unexpected ')'")
            if pending is not None:
                raise fail("dangling bond symbol before ')'")
            prev = stack.pop()
            i += 1
        elif ch in DIGITS or ch == "%":
            ring, j = read_ring_number(s, i)
            if ring is None:
                raise fail("'%' must be followed by two digits")
            close_or_open_ring(ring)
            i = j
        elif ch == ".":
            if pending is not None:
                raise fail("bond symbol before '.'")
            if stack:
                raise fail("'.' inside a branch")
            if prev is None:
                raise fail("empty fragment before '.'")
            prev = None
            i += 1
        elif ch in BOND_ORDERS or ch in ":/\\":
            if pending is not None:
                raise fail("two consecutive bond symbols")
            pending = ch
            i += 1
        else:
            raise fail(f"unexpected character {ch!r}")

    if stack:
        raise SmilesSyntaxError("unbalanced parentheses: missing ')'")
    if open_rings:
        digits = ", ".join(str(d) for d in sorted(open_rings))
        raise SmilesSyntaxError(f"ring bond {digits} never closed")
    if pending is not None:
        raise SmilesSyntaxError("dangling bond symbol at end of input")
    if prev is None:
        raise SmilesSyntaxError("empty fragment after '.'")
    return mol


def _bond(a: int, b: int, mark: str | None) -> BondDraft:
    """The draft of the bond a-b written with mark: a direction is a single
    bond's stereo read from a to b, any other mark its symbol."""
    return BondDraft(a, b, None, mark) if mark in DIRECTIONS else BondDraft(a, b, mark)


def read_digits(s: str, i: int, stop: int | None = None) -> tuple[int | None, int]:
    """The number spelled by the ASCII digits from s[i], up to stop (None when
    there are none), and the index after them."""
    end = min(len(s), i + _MAX_DIGITS if stop is None else stop)
    j = i
    while j < end and s[j] in DIGITS:
        j += 1
    return (int(s[i:j]) if j > i else None), j


def read_ring_number(s: str, i: int) -> tuple[int | None, int]:
    """The ring-bond number at s[i], a digit or '%' and two digits, and the
    index after it; None when a '%' lacks its two digits."""
    if s[i] != "%":
        return read_digits(s, i, i + 1)
    number, j = read_digits(s, i + 1, i + 3)
    return (number if j == i + 3 else None), j


def read_charge(s: str, i: int) -> tuple[int, int]:
    """The charge written from the sign at s[i], and the index after it: a
    sign with a number ('+2') or repeated ('--'), or a sign alone."""
    sign = s[i]
    count, j = read_digits(s, i + 1)
    if count is None:
        j = i + 1
        while j < len(s) and s[j] == sign:
            j += 1
        count = j - i
    return (count if sign == "+" else -count), j


def read_symbol(s: str, i: int, table: dict) -> tuple[int, tuple[int, bool]] | None:
    """The index after the symbol of table at s[i], two letters before one (Cl
    before C, Se before S), and its (atomic number, aromatic); None if none."""
    for symbol in (s[i : i + 2], s[i]):
        if symbol in table:
            return i + len(symbol), table[symbol]
    return None


def _parse_bare(s: str, i: int) -> tuple[int, AtomDraft]:
    found = read_symbol(s, i, BARE_ATOMS)
    if found is None:
        raise SmilesSyntaxError(
            f"unknown element symbol {s[i]!r} outside brackets (position {i} in {s!r})"
        )
    j, (z, aromatic) = found
    return j, AtomDraft(z, aromatic)


def _parse_bracket(s: str, start: int) -> tuple[int, AtomDraft]:
    end = s.find("]", start)
    if end == -1:
        raise SmilesSyntaxError(f"unclosed '[' (position {start} in {s!r})")
    body = s[start + 1 : end]
    if not body:
        raise SmilesSyntaxError(f"empty bracket atom (position {start} in {s!r})")
    n = len(body)

    def fail(msg: str) -> SmilesSyntaxError:
        return SmilesSyntaxError(f"{msg} in bracket atom [{body}]")

    isotope, i = read_digits(body, 0)
    if isotope == 0:
        raise fail("isotope must be positive")

    if i >= n:
        raise fail("missing element symbol")
    found = read_symbol(body, i, BRACKET_ATOMS)
    if found is None:
        bad = body[i] if body[i].islower() else body[i : i + 2]
        raise fail(f"unknown element symbol {bad!r}")
    i, (z, aromatic) = found

    atom = AtomDraft(z, aromatic=aromatic, isotope=isotope, explicit_h=0)

    if i < n and body[i] == "@":
        if body[i : i + 2] == "@@":
            atom.chiral = "@@"
            i += 2
        else:
            atom.chiral = "@"
            i += 1
        if i < n and body[i].isalpha() and body[i] not in "H":
            raise fail("unsupported chirality class")

    if i < n and body[i] == "H":
        count, i = read_digits(body, i + 1)
        atom.explicit_h = 1 if count is None else count
        if atom.explicit_h:
            atom.slots.append(H_SLOT)

    if i < n and body[i] in "+-":
        atom.charge, i = read_charge(body, i)

    if i < n and body[i] == ":":
        atom_map, i = read_digits(body, i + 1)  # accepted and dropped
        if atom_map is None:
            raise fail("':' must be followed by an atom-map number")

    if i != n:
        raise fail(f"unexpected {body[i:]!r}")
    return end + 1, atom
