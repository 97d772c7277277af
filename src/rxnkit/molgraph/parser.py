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

from .elements import AROMATIC_SYMBOLS, ATOMIC_NUMBER, BRACKET_AROMATIC, ORGANIC_SUBSET
from .model import H_SLOT, SmilesSyntaxError

_BOND_ORDERS = {"-": 1, "=": 2, "#": 3}
# ASCII digits only: str.isdigit() also admits digits int() rejects or reads
# as 0-9 from other scripts.
_DIGITS = frozenset("0123456789")


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
    stereo: str | None = None
    stereo_from: int | None = None


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
    pending: str | None = None          # bond symbol waiting for its far atom
    pending_stereo: str | None = None   # '/' or '\\' (a single-bond flavor)
    stack: list[int] = []
    # open ring digits: digit -> (atom, bond symbol or None, stereo, slot pos)
    open_rings: dict[int, tuple[int, str | None, str | None, int]] = {}
    atom_seen_in_fragment = False

    def fail(msg: str) -> SmilesSyntaxError:
        return SmilesSyntaxError(f"{msg} (position {i} in {s!r})")

    def close_or_open_ring(digit: int) -> None:
        nonlocal pending, pending_stereo
        if prev is None:
            raise fail("ring bond digit with no current atom")
        if digit in open_rings:
            other, osym, ostereo, oslot = open_rings.pop(digit)
            sym, stereo, stereo_from = osym, ostereo, (other if ostereo else None)
            if pending is not None or pending_stereo is not None:
                if sym is not None or stereo is not None:
                    csym, cstereo = pending, pending_stereo
                    agree = (sym == csym and stereo is None and cstereo is None) or (
                        sym is None and csym is None
                        and stereo is not None and cstereo is not None
                        and stereo != cstereo)
                    if not agree:
                        raise fail(f"conflicting bond symbols on ring bond {digit}")
                else:
                    sym, stereo = pending, pending_stereo
                    stereo_from = prev if stereo else None
            if other == prev:
                raise SmilesSyntaxError("ring bond connects an atom to itself")
            # An atom's slots name every atom bonded to it so far.
            if other in atoms[prev].slots:
                raise SmilesSyntaxError(f"duplicate bond between atoms {other} and {prev}")
            bonds.append(BondDraft(other, prev, sym, stereo, stereo_from))
            atoms[other].slots[oslot] = prev
            atoms[prev].slots.append(other)
        else:
            slot = len(atoms[prev].slots)
            atoms[prev].slots.append(None)
            open_rings[digit] = (prev, pending, pending_stereo, slot)
        pending = None
        pending_stereo = None

    while i < n:
        ch = s[i]
        if ch.isalpha() or ch == "[":
            j, atom = _parse_bare(s, i) if ch != "[" else _parse_bracket(s, i)
            idx = len(atoms)
            atoms.append(atom)
            if prev is not None:
                # A bond to a new atom can be neither a loop nor a duplicate.
                bonds.append(BondDraft(prev, idx, pending, pending_stereo,
                                       prev if pending_stereo else None))
                atoms[prev].slots.append(idx)
                # The preceding atom is the first stereo slot, ahead of any
                # bracket H recorded while the atom itself was parsed.
                atom.slots.insert(0, prev)
            elif pending is not None or pending_stereo is not None:
                raise fail("bond symbol with no preceding atom")
            pending = None
            pending_stereo = None
            prev = idx
            atom_seen_in_fragment = True
            i = j
        elif ch == "(":
            if prev is None:
                raise fail("branch with no preceding atom")
            if pending is not None or pending_stereo is not None:
                raise fail("bond symbol before '('")
            stack.append(prev)
            i += 1
        elif ch == ")":
            if not stack:
                raise fail("unbalanced parentheses: unexpected ')'")
            if pending is not None or pending_stereo is not None:
                raise fail("dangling bond symbol before ')'")
            prev = stack.pop()
            i += 1
        elif ch in _DIGITS:
            close_or_open_ring(int(ch))
            i += 1
        elif ch == ".":
            if pending is not None or pending_stereo is not None:
                raise fail("bond symbol before '.'")
            if stack:
                raise fail("'.' inside a branch")
            if not atom_seen_in_fragment:
                raise fail("empty fragment before '.'")
            prev = None
            atom_seen_in_fragment = False
            i += 1
        elif ch in _BOND_ORDERS or ch == ":":
            if pending is not None or pending_stereo is not None:
                raise fail("two consecutive bond symbols")
            pending = ch
            i += 1
        elif ch in "/\\":
            if pending is not None or pending_stereo is not None:
                raise fail("two consecutive bond symbols")
            pending_stereo = ch
            i += 1
        elif ch == "%":
            if i + 2 >= n or not (s[i + 1] in _DIGITS and s[i + 2] in _DIGITS):
                raise fail("'%' must be followed by two digits")
            close_or_open_ring(int(s[i + 1 : i + 3]))
            i += 3
        else:
            raise fail(f"unexpected character {ch!r}")

    if stack:
        raise SmilesSyntaxError("unbalanced parentheses: missing ')'")
    if open_rings:
        digits = ", ".join(str(d) for d in sorted(open_rings))
        raise SmilesSyntaxError(f"ring bond {digits} never closed")
    if pending is not None or pending_stereo is not None:
        raise SmilesSyntaxError("dangling bond symbol at end of input")
    if not atom_seen_in_fragment:
        raise SmilesSyntaxError("empty fragment after '.'")
    return mol


def _parse_bare(s: str, i: int) -> tuple[int, AtomDraft]:
    symbol = s[i : i + 2]  # Cl and Br before C and B
    if symbol not in ORGANIC_SUBSET:
        symbol = s[i]
    if symbol in ORGANIC_SUBSET:
        return i + len(symbol), AtomDraft(ATOMIC_NUMBER[symbol])
    ch = s[i]
    if ch in AROMATIC_SYMBOLS:
        return i + 1, AtomDraft(AROMATIC_SYMBOLS[ch], aromatic=True)
    raise SmilesSyntaxError(
        f"unknown element symbol {ch!r} outside brackets (position {i} in {s!r})"
    )


def _parse_bracket(s: str, start: int) -> tuple[int, AtomDraft]:
    end = s.find("]", start)
    if end == -1:
        raise SmilesSyntaxError(f"unclosed '[' (position {start} in {s!r})")
    body = s[start + 1 : end]
    if not body:
        raise SmilesSyntaxError(f"empty bracket atom (position {start} in {s!r})")
    i = 0
    n = len(body)

    def fail(msg: str) -> SmilesSyntaxError:
        return SmilesSyntaxError(f"{msg} in bracket atom [{body}]")

    isotope = None
    j = i
    while j < n and body[j] in _DIGITS:
        j += 1
    if j > i:
        isotope = int(body[i:j])
        if isotope == 0:
            raise fail("isotope must be positive")
        i = j

    if i >= n:
        raise fail("missing element symbol")
    aromatic = False
    if body[i : i + 2] in BRACKET_AROMATIC:
        z = BRACKET_AROMATIC[body[i : i + 2]]
        aromatic = True
        i += 2
    elif body[i].islower():
        if body[i] not in AROMATIC_SYMBOLS:
            raise fail(f"unknown element symbol {body[i]!r}")
        z = AROMATIC_SYMBOLS[body[i]]
        aromatic = True
        i += 1
    else:
        sym = body[i : i + 2]
        if len(sym) == 2 and sym[1].islower() and sym in ATOMIC_NUMBER:
            z = ATOMIC_NUMBER[sym]
            i += 2
        elif body[i] in ATOMIC_NUMBER:
            z = ATOMIC_NUMBER[body[i]]
            i += 1
        else:
            raise fail(f"unknown element symbol {body[i:i + 2]!r}")

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
        i += 1
        j = i
        while j < n and body[j] in _DIGITS:
            j += 1
        atom.explicit_h = int(body[i:j]) if j > i else 1
        i = j
        if atom.explicit_h:
            atom.slots.append(H_SLOT)

    if i < n and body[i] in "+-":
        sign = 1 if body[i] == "+" else -1
        symb = body[i]
        i += 1
        if i < n and body[i] in _DIGITS:
            j = i
            while j < n and body[j] in _DIGITS:
                j += 1
            atom.charge = sign * int(body[i:j])
            i = j
        else:
            count = 1
            while i < n and body[i] == symb:
                count += 1
                i += 1
            atom.charge = sign * count

    if i < n and body[i] == ":":
        i += 1
        j = i
        while j < n and body[j] in _DIGITS:
            j += 1
        if j == i:
            raise fail("':' must be followed by an atom-map number")
        i = j  # atom maps are accepted and dropped

    if i != n:
        raise fail(f"unexpected {body[i:]!r}")
    return end + 1, atom
