"""Bit fingerprints: circular environments, bond paths, structural keys.

All hashing is a fixed 64-bit FNV-1a over canonical byte encodings, so bits
are stable across platforms, runs, and atom renumberings. Bit vectors
serialize as "width:hex" with bit i stored at byte i//8, bit i%8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .molgraph.model import Molecule, bond_code
from .substructure import Pattern, find_matches, parse_pattern

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


@dataclass(frozen=True)
class BitFingerprint:
    """Fixed-width bit vector; the unit of Tanimoto similarity."""

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
    def deserialize(cls, text: str) -> "BitFingerprint":
        width_s, _, hex_s = text.partition(":")
        width = int(width_s)
        packed = bytes.fromhex(hex_s)
        bits = {
            i for i in range(width) if packed[i // 8] & (1 << (i % 8))
        }
        return cls(width=width, bits=frozenset(bits))


def tanimoto(a: BitFingerprint, b: BitFingerprint) -> float:
    """|A n B| / |A u B|; two empty fingerprints count as identical (1.0)."""
    if a.width != b.width:
        raise ValueError(f"fingerprint width mismatch: {a.width} != {b.width}")
    union = len(a.bits | b.bits)
    if union == 0:
        return 1.0
    return len(a.bits & b.bits) / union


@dataclass(frozen=True)
class FingerprintSpec:
    """Which family to compute and with what parameters."""

    kind: str = "circular"  # circular | path | key
    radius: int = 2
    min_path: int = 1
    max_path: int = 7
    width: int = 2048
    key_table: str | None = None

    def __post_init__(self):
        if self.kind not in ("circular", "path", "key"):
            raise ValueError(f"unknown fingerprint kind {self.kind!r}")
        if self.width < 1:
            raise ValueError(f"fingerprint width must be at least 1, got {self.width}")


def fingerprint(mol: Molecule, spec: FingerprintSpec) -> BitFingerprint:
    """Dispatch on the spec's kind."""
    if spec.kind == "circular":
        return circular_fingerprint(mol, spec)
    if spec.kind == "path":
        return path_fingerprint(mol, spec)
    return key_fingerprint(mol, load_key_table(spec.key_table))


def circular_fingerprint(mol: Molecule, spec: FingerprintSpec | None = None) -> BitFingerprint:
    """Morgan-style environment bits for radii 0..spec.radius.

    Bits accumulate over radii, so the radius-r fingerprint is a superset of
    the radius-(r-1) one for the same molecule and width.
    """
    spec = spec or FingerprintSpec(kind="circular")
    ring = mol.ring_membership
    degrees = mol.degrees
    env = [
        fnv1a(
            b"%d|%d|%d|%d|%d"
            % (a.atomic_number, degrees[i], a.formal_charge,
               a.implicit_hydrogens, ring[i])
        )
        for i, a in enumerate(mol.atoms)
    ]
    adj = [
        [(bond_code(mol.bond_between(i, w)), w) for w in mol.neighbors[i]]
        for i in range(len(mol.atoms))
    ]
    bits = {h % spec.width for h in env}
    for _ in range(spec.radius):
        nxt = []
        for i in range(len(mol.atoms)):
            parts = [env[i].to_bytes(8, "big")]
            for code, w in sorted((code, env[w]) for code, w in adj[i]):
                parts.append(code.to_bytes(1, "big"))
                parts.append(w.to_bytes(8, "big"))
            nxt.append(fnv1a(b"".join(parts)))
        env = nxt
        bits.update(h % spec.width for h in env)
    return BitFingerprint(width=spec.width, bits=frozenset(bits))


def path_fingerprint(mol: Molecule, spec: FingerprintSpec | None = None) -> BitFingerprint:
    """Topological fingerprint over simple bond paths of min..max bonds.

    Each path hashes its direction-minimal atom/bond label sequence, so the
    bits are independent of atom numbering and traversal direction.
    """
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
                bond = mol.bond_between(path[i - 1], atom)
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
    return BitFingerprint(width=spec.width, bits=frozenset(bits))


@dataclass(frozen=True)
class KeyTable:
    """Ordered structural keys; bit i is row i of the table."""

    entries: tuple[tuple[int, Pattern, int], ...] = field(repr=False)
    source: str = ""

    def __len__(self) -> int:
        return len(self.entries)


_DEFAULT_TABLE: KeyTable | None = None


def load_key_table(path: str | Path | None = None) -> KeyTable:
    """Load a key table file; with no path, the shipped 166-key table."""
    global _DEFAULT_TABLE
    if path is None:
        if _DEFAULT_TABLE is None:
            text = (
                resources.files("rxnkit").joinpath("data/structure_keys.txt")
                .read_text(encoding="utf-8")
            )
            _DEFAULT_TABLE = _parse_key_table(text, "<default>")
        return _DEFAULT_TABLE
    text = Path(path).read_text(encoding="utf-8")
    return _parse_key_table(text, str(path))


def _parse_key_table(text: str, source: str) -> KeyTable:
    entries = []
    seen_labels = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split("\t")
        if len(fields) != 3:
            raise ValueError(
                f"{source}:{lineno}: expected index<TAB>pattern<TAB>min_count"
            )
        label = int(fields[0])
        if label in seen_labels:
            raise ValueError(f"{source}:{lineno}: duplicate key index {label}")
        seen_labels.add(label)
        min_count = int(fields[2])
        if min_count < 1:
            raise ValueError(f"{source}:{lineno}: min_count must be >= 1")
        entries.append((label, parse_pattern(fields[1]), min_count))
    if not entries:
        raise ValueError(f"{source}: key table is empty (zero-width fingerprint)")
    return KeyTable(entries=tuple(entries), source=source)


def key_fingerprint(mol: Molecule, table: KeyTable) -> BitFingerprint:
    """Bit i set iff the molecule matches key i at least min_count times."""
    bits = set()
    for i, (_, pattern, min_count) in enumerate(table.entries):
        hits = find_matches(pattern, mol, max_matches=min_count)
        if len(hits) >= min_count:
            bits.add(i)
    return BitFingerprint(width=len(table), bits=frozenset(bits))
