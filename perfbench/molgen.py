"""Seeded molecule graphs and an independent SMILES writer and reader.

Nothing here imports rxnkit: the benchmark builds its inputs and checks the
program's outputs with this module alone. Graphs carry element, aromatic
flag, bond orders (4 = aromatic) and the hydrogen count each atom was built
with, so formulas are known before the program sees a single record.
"""

from __future__ import annotations

import hashlib
import random
import re
from collections import Counter

# (symbol, lowest valence, generator weight), in the style of a drug-like
# element mix: mostly carbon, some N/O, a few S/halogens/P.
ELEMENTS = (
    ("C", 4, 60), ("N", 3, 10), ("O", 2, 12), ("S", 2, 4),
    ("F", 1, 5), ("Cl", 1, 4), ("Br", 1, 2), ("P", 3, 1),
)
VALENCE = {sym: v for sym, v, _ in ELEMENTS}
_SYMS = [e[0] for e in ELEMENTS]
_WEIGHTS = [e[2] for e in ELEMENTS]
# Aromatic ring units written lowercase: benzene, pyridine, thiophene.
RING_UNITS = (("c",) * 6, ("n",) + ("c",) * 5, ("s",) + ("c",) * 4)
AROMATIC = 4


class Graph:
    """Heavy-atom graph with the hydrogen count the generator chose per atom."""

    def __init__(self) -> None:
        self.elem: list[str] = []      # element symbol, capitalised
        self.arom: list[bool] = []
        self.nbr: list[dict[int, int]] = []  # neighbour -> bond order
        self.used: list[int] = []  # valence spent on bonds

    def add_atom(self, sym: str, aromatic: bool = False) -> int:
        self.elem.append(sym)
        self.arom.append(aromatic)
        self.nbr.append({})
        # A bare aromatic c or n spends one valence on its Kekule double bond.
        self.used.append(1 if aromatic and sym in ("C", "N") else 0)
        return len(self.elem) - 1

    def add_bond(self, a: int, b: int, order: int) -> None:
        self.nbr[a][b] = order
        self.nbr[b][a] = order
        self.used[a] += 1 if order == AROMATIC else order
        self.used[b] += 1 if order == AROMATIC else order

    def __len__(self) -> int:
        return len(self.elem)

    def hydrogens(self, i: int) -> int:
        return max(VALENCE[self.elem[i]] - self.used[i], 0)

    def formula(self) -> Counter:
        counts = Counter(self.elem)
        counts["H"] = sum(self.hydrogens(i) for i in range(len(self)))
        return counts


def druglike(
    rng: random.Random,
    n_min: int = 5,
    n_max: int = 32,
    units: tuple = RING_UNITS,
    symbols: tuple = tuple(_SYMS),
    min_rings: int = 0,
    shape: random.Random | None = None,
) -> tuple[Graph, bool]:
    """A connected drug-like graph and whether the generator added a ring.

    Heavy atoms grow one at a time onto an atom with free valence, preferring
    recent atoms; aromatic 5- and 6-rings (drawn from ``units``) are attached
    as units, and up to two aliphatic ring closures join atoms four to six
    bonds apart. With ``min_rings`` the graph starts on a ring unit.

    ``shape``, when given, draws the size, the ring-unit budget and the
    number of ring closures, so that callers can hold the size and ring
    make-up of a corpus fixed while ``rng`` varies everything else.
    """
    shape = shape or rng
    n = shape.randint(n_min, n_max)
    ring_budget = max(shape.choices((0, 1, 2), weights=(35, 45, 20))[0], min_rings)
    closures = shape.choices((0, 1, 2), weights=(50, 35, 15))[0]
    g = Graph()
    added_ring = False
    pool = [sym for sym in _SYMS if sym in symbols]
    weights = [w for sym, w in zip(_SYMS, _WEIGHTS) if sym in symbols]

    def attachable() -> list[int]:
        return [i for i in range(len(g)) if g.hydrogens(i) >= 1]

    def add_ring_unit(anchor: int | None) -> None:
        unit = rng.choice(units)
        first = len(g)
        for sym in unit:
            g.add_atom(sym.upper(), aromatic=True)
        for k in range(len(unit)):
            g.add_bond(first + k, first + (k + 1) % len(unit), AROMATIC)
        if anchor is not None:
            g.add_bond(anchor, first + rng.randrange(1, len(unit)), 1)

    if ring_budget and (n >= 6 or min_rings):
        add_ring_unit(None)
        ring_budget -= 1
        added_ring = True
    else:
        g.add_atom("C")
    while len(g) < n:
        spots = attachable()
        anchor = rng.choice(spots[-6:]) if rng.random() < 0.7 else rng.choice(spots)
        if ring_budget and n - len(g) >= 6 and rng.random() < 0.3:
            add_ring_unit(anchor)
            ring_budget -= 1
            added_ring = True
            continue
        sym = rng.choices(pool, weights=weights)[0]
        order = 1
        if VALENCE[sym] >= 2 and g.hydrogens(anchor) >= 2 and not g.arom[anchor]:
            if min(VALENCE[sym], g.hydrogens(anchor)) >= 3 and rng.random() < 0.02:
                order = 3
            elif rng.random() < 0.15:
                order = 2
        # Keep an open valence while atoms remain to be placed.
        open_after = sum(g.hydrogens(i) for i in spots) + VALENCE[sym] - 2 * order
        if open_after < 1 and len(g) + 1 < n:
            sym, order = "C", 1
        g.add_bond(anchor, g.add_atom(sym), order)

    for _ in range(closures):
        open_atoms = [i for i in attachable() if not g.arom[i]]
        rng.shuffle(open_atoms)
        pair = next(
            ((a, b) for a in open_atoms for dist in [_distances(g, a)]
             for b in open_atoms if a < b and 4 <= dist[b] <= 6),
            None,
        )
        if pair is None:
            break
        g.add_bond(pair[0], pair[1], 1)
        added_ring = True
    return g, added_ring


def coupled(a: Graph, b: Graph, rng: random.Random) -> Graph | None:
    """The product of joining ``a`` and ``b`` by one new single bond.

    None when either side has no hydrogen to give up.
    """
    sites_a = [i for i in range(len(a)) if a.hydrogens(i)]
    sites_b = [i for i in range(len(b)) if b.hydrogens(i)]
    if not sites_a or not sites_b:
        return None
    g = Graph()
    for src in (a, b):
        offset = len(g)
        for i in range(len(src)):
            g.add_atom(src.elem[i], src.arom[i])
        for i in range(len(src)):
            for j, order in src.nbr[i].items():
                if i < j:
                    g.add_bond(offset + i, offset + j, order)
    g.add_bond(rng.choice(sites_a), len(a) + rng.choice(sites_b), 1)
    return g


def wl_key(g: Graph, rounds: int = 3) -> tuple:
    """Weisfeiler-Lehman label multiset: equal for isomorphic graphs.

    Graphs with distinct keys are certainly distinct molecules, which is how
    the generators rule out accidental duplicates.
    """
    labels = [f"{g.elem[i]}{g.arom[i]:d}{g.hydrogens(i)}" for i in range(len(g))]
    for _ in range(rounds):
        labels = [
            hashlib.blake2b(
                repr((labels[i], sorted((o, labels[j]) for j, o in g.nbr[i].items())))
                .encode(), digest_size=8,
            ).hexdigest()
            for i in range(len(g))
        ]
    return len(g), tuple(sorted(labels))


def _distances(g: Graph, a: int) -> dict[int, int]:
    seen = {a: 0}
    frontier = [a]
    while frontier:
        nxt = []
        for v in frontier:
            for w in g.nbr[v]:
                if w not in seen:
                    seen[w] = seen[v] + 1
                    nxt.append(w)
        frontier = nxt
    return seen


def write_smiles(g: Graph, rng: random.Random | None = None) -> str:
    """SMILES for a connected graph; ``rng`` picks the root and branch order.

    Different ``rng`` draws give different spellings of the same molecule,
    which is how the benchmark renumbers atoms without the program's help.
    """
    n = len(g)
    order = [sorted(g.nbr[v]) for v in range(n)]
    root = 0
    if rng is not None:
        for nbrs in order:
            rng.shuffle(nbrs)
        root = rng.randrange(n)
    visited = [False] * n
    children: list[list[int]] = [[] for _ in range(n)]
    stack = [(root, -1)]
    while stack:  # spanning tree; the remaining bonds become ring bonds
        v, parent = stack.pop()
        if visited[v]:
            continue
        visited[v] = True
        if parent >= 0:
            children[parent].append(v)
        stack.extend((w, v) for w in reversed(order[v]) if not visited[w])
    rank = {v: i for i, v in enumerate(_preorder(root, children))}
    tree = {(p, c) for p in range(n) for c in children[p]}
    opens: list[list[int]] = [[] for _ in range(n)]
    closes: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        for w in order[v]:
            if v < w and (v, w) not in tree and (w, v) not in tree:
                first, last = (v, w) if rank[v] < rank[w] else (w, v)
                opens[first].append(last)
                closes[last].append(first)

    out: list[str] = []
    digit_of: dict[tuple[int, int], int] = {}
    free_digits: list[int] = []

    def bond_symbol(a: int, b: int) -> str:
        o = g.nbr[a][b]
        if o == AROMATIC:
            return ""
        if o == 1:
            return "-" if g.arom[a] and g.arom[b] else ""
        return "=" if o == 2 else "#"

    def fmt(d: int) -> str:
        return str(d) if d < 10 else f"%{d}"

    def atom_symbol(v: int) -> str:
        return g.elem[v].lower() if g.arom[v] else g.elem[v]

    work: list = [(root, "")]  # atoms still to write, and parentheses
    while work:
        item = work.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        v, bond = item
        out.append(bond + atom_symbol(v))
        for w in sorted(closes[v], key=rank.get):
            d = digit_of.pop((w, v))
            out.append(fmt(d))
            free_digits.append(d)
        for w in sorted(opens[v], key=rank.get):
            if free_digits:
                d = min(free_digits)
                free_digits.remove(d)
            else:
                d = len(digit_of) + 1  # every digit handed out so far is open
            digit_of[(v, w)] = d
            out.append(bond_symbol(v, w) + fmt(d))
        kids = children[v]
        seq: list = []
        for i, c in enumerate(kids):
            if i < len(kids) - 1:
                seq += ["(", (c, bond_symbol(v, c)), ")"]
            else:
                seq.append((c, bond_symbol(v, c)))
        work.extend(reversed(seq))
    return "".join(out)


def _preorder(root: int, children: list[list[int]]) -> list[int]:
    out, stack = [], [root]
    while stack:
        v = stack.pop()
        out.append(v)
        stack.extend(reversed(children[v]))
    return out


# --- reading the program's output back, independently ----------------------

_TOKEN = re.compile(
    r"\[(?P<bracket>[^\]]+)\]|(?P<bare>Cl|Br|[BCNOPSFI]|[bcnops])"
    r"|(?P<ring>%\d\d|\d)|(?P<bond>[-=#:/\\])|(?P<open>\()|(?P<close>\))|(?P<dot>\.)"
)
_BRACKET = re.compile(
    r"(?P<iso>\d+)?(?P<sym>[A-Z][a-z]?|[a-z][a-z]?)(?P<chiral>@@?)?"
    r"(?:H(?P<h>\d*))?(?P<charge>[+-]\d*)?(?::\d+)?"
)
_BARE_VALENCES = {"B": (3,), "C": (4,), "N": (3, 5), "O": (2,), "P": (3, 5),
                  "S": (2, 4, 6), "F": (1,), "Cl": (1,), "Br": (1,), "I": (1,)}
_ORDER = {"-": 1, "=": 2, "#": 3, ":": AROMATIC, "/": 1, "\\": 1}


def formula_of_smiles(text: str) -> Counter:
    """Element counts, hydrogens included, read from SMILES text.

    Bare atoms take the usual SMILES implicit-hydrogen rule: fill up to the
    lowest standard valence; a bare aromatic carbon (or an aromatic n/p one
    short of a valence) spends one valence on its Kekule double bond.
    """
    atoms: list[tuple[str, bool, int | None]] = []  # symbol, aromatic, explicit H
    bonds: list[tuple[int, int, int | None]] = []
    prev = None
    pending = None
    stack: list[int | None] = []
    rings: dict[str, tuple[int, int | None]] = {}
    pos = 0
    for m in _TOKEN.finditer(text):
        if m.start() != pos:
            raise ValueError(f"unreadable SMILES at {pos}: {text!r}")
        pos = m.end()
        kind = m.lastgroup
        tok = m.group(kind)
        if kind in ("bare", "bracket"):
            if kind == "bare":
                atoms.append((tok.capitalize(), tok.islower(), None))
            else:
                b = _BRACKET.fullmatch(tok)
                if b is None:
                    raise ValueError(f"unreadable bracket atom [{tok}]")
                h = b.group("h")
                explicit = 0 if h is None else int(h or "1")
                if b.group("charge"):
                    raise ValueError(f"charged atom in {text!r}")
                atoms.append((b.group("sym").capitalize(), b.group("sym").islower(), explicit))
            idx = len(atoms) - 1
            if prev is not None:
                bonds.append((prev, idx, pending))
            prev, pending = idx, None
        elif kind == "ring":
            if tok in rings:
                other, sym = rings.pop(tok)
                bonds.append((other, prev, pending if pending is not None else sym))
            else:
                rings[tok] = (prev, pending)
            pending = None
        elif kind == "bond":
            pending = _ORDER[tok]
        elif kind == "open":
            stack.append(prev)
        elif kind == "close":
            prev = stack.pop()
        else:
            prev = None
    if pos != len(text) or rings or stack:
        raise ValueError(f"unbalanced SMILES: {text!r}")

    sigma = [0] * len(atoms)
    multiple = [False] * len(atoms)
    for a, b, order in bonds:
        if order is None:
            order = AROMATIC if atoms[a][1] and atoms[b][1] else 1
        for x in (a, b):
            sigma[x] += 1 if order == AROMATIC else order
            multiple[x] |= order in (2, 3)
    counts: Counter = Counter()
    for i, (sym, aromatic, explicit) in enumerate(atoms):
        counts[sym] += 1
        if explicit is not None:
            counts["H"] += explicit
            continue
        s = sigma[i]
        allowed = _BARE_VALENCES[sym]
        if aromatic and (
            (sym == "C" and not multiple[i])
            or (sym in ("N", "P") and s not in allowed and s + 1 in allowed)
        ):
            s += 1
        counts["H"] += next((v - s for v in allowed if v >= s), 0)
    return counts
