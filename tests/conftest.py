"""Shared fixtures: a deterministic generator of drug-like test molecules."""

from __future__ import annotations

import random
import tempfile

import pytest

from rxnkit._jsonl import TEMP_SUFFIX
from rxnkit.molgraph import Molecule, canonical_smiles, parse_smiles
from rxnkit.molgraph.model import H_SLOT, Atom, Bond


@pytest.fixture(autouse=True)
def no_temporary_output_left(request, monkeypatch):
    """Fail a test that leaves an output's temporary file in tmp_path.

    The temporary directory, where output for stdout is staged, is tmp_path
    too, so those files are checked as well.
    """
    if "tmp_path" not in request.fixturenames:
        yield
        return
    tmp_path = request.getfixturevalue("tmp_path")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    yield
    left = sorted(p.name for p in tmp_path.rglob(f"*{TEMP_SUFFIX}"))
    assert not left, f"temporary output files left behind: {left}"

# (atomic number, max valence, weight)
_ELEMENTS = (
    (6, 4, 60),
    (7, 3, 10),
    (8, 2, 12),
    (16, 2, 4),
    (9, 1, 5),
    (17, 1, 4),
    (35, 1, 2),
    (15, 3, 1),
)
_ZS = [e[0] for e in _ELEMENTS]
_MAXV = {e[0]: e[1] for e in _ELEMENTS}
_WEIGHTS = [e[2] for e in _ELEMENTS]


def build_random_molecule(rng: random.Random, n_min: int = 5, n_max: int = 32) -> Molecule:
    """Connected kekule molecule with rings, multiple bonds, valid valences."""
    n = rng.randint(n_min, n_max)
    zs = [6] + rng.choices(_ZS, weights=_WEIGHTS, k=n - 1)
    free = [_MAXV[z] for z in zs]
    bonds: list[Bond] = []
    adjacent: set[tuple[int, int]] = set()

    for i in range(1, n):
        parents = [j for j in range(i) if free[j] >= 1]
        if not parents:
            continue  # saturated so far; atom stays a fully hydrogenated fragment
        j = rng.choice(parents[-6:]) if rng.random() < 0.7 else rng.choice(parents)
        order = 1
        if free[i] >= 2 and free[j] >= 2 and rng.random() < 0.15:
            order = 2
        if free[i] >= 3 and free[j] >= 3 and rng.random() < 0.02:
            order = 3
        bonds.append(Bond(j, i, order))
        adjacent.add((j, i))
        free[i] -= order
        free[j] -= order

    for _ in range(rng.randint(0, 3)):
        open_atoms = [k for k in range(n) if free[k] >= 1]
        rng.shuffle(open_atoms)
        made = False
        for a in open_atoms:
            for b in open_atoms:
                if b <= a or (a, b) in adjacent:
                    continue
                bonds.append(Bond(a, b, 1))
                adjacent.add((a, b))
                free[a] -= 1
                free[b] -= 1
                made = True
                break
            if made:
                break

    atoms = tuple(
        Atom(atomic_number=z, implicit_hydrogens=f) for z, f in zip(zs, free)
    )
    return Molecule(atoms, tuple(bonds))


def random_smiles(rng: random.Random, n_min: int = 5, n_max: int = 32) -> str:
    """Canonical SMILES of a random molecule.

    The directly-built graph never went through perception, so its first
    serialization is kekule; one parse round applies aromaticity and yields
    the stable canonical form.
    """
    raw = canonical_smiles(build_random_molecule(rng, n_min, n_max))
    return canonical_smiles(parse_smiles(raw))


def renumbered(mol: Molecule, order: list[int]) -> Molecule:
    """mol with its atoms permuted: new atom i is old atom order[i].

    Every bond keeps its direction and every chirality entry its tag, with
    the stereo neighbour orders remapped, so the result denotes the same
    (stereo-)molecule. Molecule.subgraph would drop that stereo.
    """
    if sorted(order) != list(range(len(mol))):
        raise ValueError("order must be a permutation of atom indices")
    new_of_old = {old: new for new, old in enumerate(order)}
    bonds = tuple(Bond(new_of_old[b.a], new_of_old[b.b], b.order, b.is_aromatic, b.stereo)
                  for b in mol.bonds)
    chirality = tuple(
        None if mol.chirality[old] is None
        else (mol.chirality[old][0],
              tuple(s if s == H_SLOT else new_of_old[s] for s in mol.chirality[old][1]))
        for old in order
    )
    return Molecule(tuple(mol.atoms[old] for old in order), bonds, chirality)


def shuffled(mol: Molecule, rng: random.Random) -> Molecule:
    perm = list(range(len(mol)))
    rng.shuffle(perm)
    return renumbered(mol, perm)


def kekule_acene(n: int) -> str:
    """Kekule SMILES of the linear acene of n fused six-rings (2 <= n <= 99)."""
    label = [str(i) if i < 10 else f"%{i}" for i in range(n + 1)]
    inner = "".join(f"C=C{label[i]}" for i in range(3, n + 1))
    outer = "".join(f"=CC{label[i]}" for i in range(n - 1, 1, -1))
    return f"C1=CC=C2{inner}C=CC=CC{label[n]}{outer}=C1"


CURATED_SMILES = [
    "C",
    "CCO",
    "c1ccccc1",
    "Cc1ccccc1",
    "c1ccncc1",
    "c1cc[nH]c1",
    "c1ccoc1",
    "c1ccsc1",
    "Cn1cccc1",
    "c1ccc2ccccc2c1",
    "c1ccc2[nH]ccc2c1",
    "O=c1cccc[nH]1",
    "CN1C=NC2=C1C(=O)N(C(=O)N2C)C",
    "CC(=O)OC1=CC=CC=C1C(=O)O",
    "CC(C)Cc1ccc(cc1)C(C)C(=O)O",
    "[Na+].[Cl-]",
    "CC(=O)[O-].[NH4+]",
    "O=C=O",
    "N#Cc1ccccc1",
    "OC[C@@H](O)[C@@H](O)[C@H](O)[C@H](O)CO",
    "N[C@@H](C)C(=O)O",
    "F/C=C/F",
    "C/C=C\\C",
    "C1CC2CCC1CC2",
    "O=C1C=CC(=O)C=C1",
    "C1CCCCC1",
    "[2H]OC",
    "[H][H]",
    "S=C=S",
    "O=S(=O)(O)O",
    "CCOP(=O)(OCC)OCC",
]


@pytest.fixture(scope="session")
def corpus() -> list[str]:
    """Mixed fixture corpus: curated cases plus 120 generated molecules."""
    rng = random.Random(20240613)
    generated = [random_smiles(rng) for _ in range(120)]
    return [canonical_smiles(parse_smiles(s)) for s in CURATED_SMILES] + generated


def ladder_polymer(n: int) -> str:
    """SMILES of the ladder polymer of n carbons (n even): two chains of n / 2
    joined by a rung at each position, a row of fused four-rings.

    It is spelled along a zig-zag path that takes rungs and rails in turn;
    each rail bond off the path joins atoms three apart as a ring bond, so
    no ring number above 2 is needed.
    """
    tokens = []
    number_at: dict[int, int] = {}  # path position -> ring number opened there
    free = [2, 1]
    for p in range(n):
        token = "C"
        if p % 2 and p >= 3:
            number = number_at.pop(p - 3)
            token += str(number)
            free.append(number)
        if p % 2 == 0 and p + 3 < n:
            number = free.pop()
            number_at[p] = number
            token += str(number)
        tokens.append(token)
    return "".join(tokens)
