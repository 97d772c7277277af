"""Bit fingerprints: circular environments, bond paths, structural keys.

All hashing is a fixed 64-bit FNV-1a over canonical byte encodings, so bits
are stable across platforms, runs, and atom renumberings. Each distinct
encoding is hashed once per molecule, and a path key continues its prefix's
hash. Bit vectors are int masks and serialize as "width:hex" of the
little-endian mask bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .molgraph.model import Molecule, bond_code
from .molgraph.parser import read_digits
from .substructure import Pattern, compile_keys, key_bits, parse_pattern

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a(data: bytes, h: int = _FNV_OFFSET, mask: int = _MASK64) -> int:
    """FNV-1a of data, continued from the state h of the bytes before it.

    A mask of 2**k - 1 keeps only the low k bits of the state, which are all
    that decide h % 2**k: every step's XOR and product carries upward only.
    """
    prime = _FNV_PRIME & mask
    for byte in data:
        h = ((h ^ byte) * prime) & mask
    return h


@dataclass(frozen=True)
class BitFingerprint:
    """Fixed-width bit vector, bit i of the int ``bits``; the unit of Tanimoto."""

    width: int
    bits: int

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("fingerprint width must be positive")
        if self.bits < 0 or self.bits >> self.width:
            raise ValueError("bit index out of range")

    def serialize(self) -> str:
        return f"{self.width}:{self.bits.to_bytes((self.width + 7) // 8, 'little').hex()}"

    @classmethod
    def deserialize(cls, text: str) -> "BitFingerprint":
        """Parse "width:hex": exactly (width+7)//8 bytes, no bit past the width."""
        width_s, _, hex_s = text.partition(":")
        width = int(width_s)
        packed = bytes.fromhex(hex_s)
        if len(packed) != (width + 7) // 8:
            raise ValueError(f"fingerprint payload of {len(packed)} bytes for width {width}")
        return cls(width=width, bits=int.from_bytes(packed, "little"))


def tanimoto(a: BitFingerprint, b: BitFingerprint) -> float:
    """|A n B| / |A u B|; two empty fingerprints count as identical (1.0)."""
    if a.width != b.width:
        raise ValueError(f"fingerprint width mismatch: {a.width} != {b.width}")
    union = (a.bits | b.bits).bit_count()
    if union == 0:
        return 1.0
    return (a.bits & b.bits).bit_count() / union


@dataclass(frozen=True)
class FingerprintSpec:
    """Which family to compute and with what parameters."""

    kind: str = "circular"  # circular | path | key
    radius: int = 2
    min_path: int = 1
    max_path: int = 7
    width: int = 2048
    key_table: KeyTable | None = None  # None: the shipped table

    def __post_init__(self):
        if self.kind not in ("circular", "path", "key"):
            raise ValueError(f"unknown fingerprint kind {self.kind!r}")
        if self.key_table is not None and not isinstance(self.key_table, KeyTable):
            raise TypeError(f"key_table must be a KeyTable from load_key_table(path), "
                            f"not {type(self.key_table).__name__}")
        if self.width < 1:
            raise ValueError(f"fingerprint width must be at least 1, got {self.width}")
        if self.radius < 0:
            raise ValueError(f"fingerprint radius must be at least 0, got {self.radius}")
        if self.min_path < 1:
            raise ValueError(f"fingerprint min_path must be at least 1, got {self.min_path}")
        if self.max_path < self.min_path:
            raise ValueError(f"fingerprint max_path must be at least min_path "
                             f"({self.min_path}), got {self.max_path}")


def fingerprint(mol: Molecule, spec: FingerprintSpec) -> BitFingerprint:
    """Dispatch on the spec's kind."""
    if spec.kind == "circular":
        return circular_fingerprint(mol, spec)
    if spec.kind == "path":
        return path_fingerprint(mol, spec)
    table = spec.key_table if spec.key_table is not None else load_key_table()
    return key_fingerprint(mol, table)


def circular_fingerprint(mol: Molecule, spec: FingerprintSpec | None = None) -> BitFingerprint:
    """Morgan-style environment bits for radii 0..spec.radius.

    Bits accumulate over radii, so the radius-r fingerprint is a superset of
    the radius-(r-1) one for the same molecule and width.

    An environment is keyed at radius 0 by the atom's invariants, and at
    radius r by its radius-(r-1) hash with the sorted (bond code, neighbour
    hash) pairs. Each distinct key is spelled out and hashed once per call,
    however many atoms share it, and each distinct hash sets one bit.
    """
    spec = spec or FingerprintSpec(kind="circular")
    ring = mol.ring_membership
    degrees = mol.degrees
    hashes: dict[tuple, int] = {}
    env = []
    for i, a in enumerate(mol.atoms):
        key = (a.atomic_number, degrees[i], a.formal_charge, a.implicit_hydrogens, ring[i])
        h = hashes.get(key)
        if h is None:
            h = hashes[key] = fnv1a(b"%d|%d|%d|%d|%d" % key)
        env.append(h)
    adj: list[list[tuple[int, int]]] = [[] for _ in mol.atoms]
    for bond in mol.bonds:
        code = bond_code(bond)
        adj[bond.a].append((code, bond.b))
        adj[bond.b].append((code, bond.a))
    for _ in range(spec.radius):
        nxt = []
        for i, nbrs in enumerate(adj):
            key = (env[i], tuple(sorted([(code, env[w]) for code, w in nbrs])))
            h = hashes.get(key)
            if h is None:
                parts = [env[i].to_bytes(8, "big")]
                for code, w in key[1]:
                    parts.append(code.to_bytes(1, "big"))
                    parts.append(w.to_bytes(8, "big"))
                h = hashes[key] = fnv1a(b"".join(parts))
            nxt.append(h)
        env = nxt
    bits = 0
    for h in hashes.values():
        bits |= 1 << (h % spec.width)
    return BitFingerprint(width=spec.width, bits=bits)


def path_fingerprint(mol: Molecule, spec: FingerprintSpec | None = None) -> BitFingerprint:
    """Topological fingerprint over simple bond paths of min..max bonds.

    Each path hashes its direction-minimal atom/bond label sequence, so the
    bits are independent of atom numbering and traversal direction.

    The walk is a loop over an explicit stack. It carries the label sequence
    of the path as an interned id, extended by one "|bond code|atom label"
    step per bond, so a step costs one dict lookup whatever the path length.
    A new sequence is spelled forward and in reverse, and its FNV state is
    its prefix's carried over the new step's bytes alone. It sets its bit
    when it has min_path bonds or more and its forward spelling is not
    greater than its reverse: every path is walked from both ends, so that
    is the direction-minimal key. Every walk extends its start atom by at
    least one bond.
    """
    spec = spec or FingerprintSpec(kind="path")
    width = spec.width
    # A power-of-two width needs only the low bits of each state.
    mask = (width - 1) & _MASK64 if not width & (width - 1) else _MASK64
    labels = [
        b"%d.%d.%d" % (a.atomic_number, a.is_aromatic, a.formal_charge)
        for a in mol.atoms
    ]
    steps: list[list[tuple[int, bytes, bytes]]] = [[] for _ in mol.atoms]
    for bond in mol.bonds:
        code = b"|%d|" % bond_code(bond)
        steps[bond.a].append((bond.b, code + labels[bond.b], labels[bond.b] + code))
        steps[bond.b].append((bond.a, code + labels[bond.a], labels[bond.a] + code))

    # Label sequences are interned as they grow: ids maps (id, step) to the
    # id of the extended sequence, and each id has its forward and reverse
    # spelling and its FNV state; id 0 is the empty sequence, which a start
    # atom's label extends.
    ids: dict[tuple[int, bytes], int] = {}
    forward, reverse, states = [b""], [b""], [_FNV_OFFSET & mask]
    bits = 0

    def extend(sid: int, step: bytes, back: bytes, n_bonds: int) -> int:
        """The id of a new sequence, sequence sid extended by step."""
        nonlocal bits
        new = ids[(sid, step)] = len(states)
        f, r = forward[sid] + step, back + reverse[sid]
        h = fnv1a(step, states[sid], mask)
        forward.append(f)
        reverse.append(r)
        states.append(h)
        if n_bonds >= spec.min_path and f <= r:
            bits |= 1 << (h % width)
        return new

    on_path = [False] * len(mol.atoms)
    for start in range(len(mol.atoms)):
        label = labels[start]
        path = [start]
        sid = ids.get((0, label))
        seqs = [extend(0, label, label, 0) if sid is None else sid]
        walks = [iter(steps[start])]
        on_path[start] = True
        while walks:
            for w, step, back in walks[-1]:
                if on_path[w]:
                    continue
                n_bonds = len(path)
                sid = ids.get((seqs[-1], step))
                if sid is None:
                    sid = extend(seqs[-1], step, back, n_bonds)
                if n_bonds < spec.max_path:
                    path.append(w)
                    seqs.append(sid)
                    walks.append(iter(steps[w]))
                    on_path[w] = True
                    break
            else:
                walks.pop()
                seqs.pop()
                on_path[path.pop()] = False
    return BitFingerprint(width=width, bits=bits)


@dataclass(frozen=True)
class KeyTable:
    """Ordered structural keys; bit i is row i of the table."""

    entries: tuple[tuple[int, Pattern, int], ...] = field(repr=False)
    # The entries sorted by how substructure.key_bits answers them.
    compiled: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "compiled", compile_keys(
            (pattern, min_count) for _, pattern, min_count in self.entries
        ))

    def __len__(self) -> int:
        return len(self.entries)


_DEFAULT_TABLE: KeyTable | None = None


def load_key_table(path: str | Path | None = None) -> KeyTable:
    """Load a key table file; with no path, the shipped 166-key table (loaded once)."""
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
        label, pattern, min_count = fields
        try:
            label, pattern = _table_number("index", label), parse_pattern(pattern)
            min_count = _table_number("min_count", min_count)
        except ValueError as exc:
            raise ValueError(f"{source}:{lineno}: {exc}") from None
        if label in seen_labels:
            raise ValueError(f"{source}:{lineno}: duplicate key index {label}")
        seen_labels.add(label)
        if min_count < 1:
            raise ValueError(f"{source}:{lineno}: min_count must be >= 1")
        entries.append((label, pattern, min_count))
    if not entries:
        raise ValueError(f"{source}: key table is empty (zero-width fingerprint)")
    return KeyTable(entries=tuple(entries))


def _table_number(column: str, field: str) -> int:
    value, end = read_digits(field, 0, len(field))
    if value is None or end < len(field):
        raise ValueError(f"{column} must be ASCII digits 0-9, got {field!r}")
    return value


def key_fingerprint(mol: Molecule, table: KeyTable) -> BitFingerprint:
    """Bit i set iff the molecule matches key i at least min_count times."""
    return BitFingerprint(width=len(table), bits=key_bits(table.compiled, mol))
