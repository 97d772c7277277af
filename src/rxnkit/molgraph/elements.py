"""Periodic-table data and the valence model used for implicit hydrogens."""

from __future__ import annotations

SYMBOLS = (
    "H", "He", "Li", "Be", "B", "C", "N", "O", "F", "Ne",
    "Na", "Mg", "Al", "Si", "P", "S", "Cl", "Ar", "K", "Ca",
    "Sc", "Ti", "V", "Cr", "Mn", "Fe", "Co", "Ni", "Cu", "Zn",
    "Ga", "Ge", "As", "Se", "Br", "Kr", "Rb", "Sr", "Y", "Zr",
    "Nb", "Mo", "Tc", "Ru", "Rh", "Pd", "Ag", "Cd", "In", "Sn",
    "Sb", "Te", "I", "Xe", "Cs", "Ba", "La", "Ce", "Pr", "Nd",
    "Pm", "Sm", "Eu", "Gd", "Tb", "Dy", "Ho", "Er", "Tm", "Yb",
    "Lu", "Hf", "Ta", "W", "Re", "Os", "Ir", "Pt", "Au", "Hg",
    "Tl", "Pb", "Bi", "Po", "At", "Rn", "Fr", "Ra", "Ac", "Th",
    "Pa", "U", "Np", "Pu", "Am", "Cm", "Bk", "Cf", "Es", "Fm",
    "Md", "No", "Lr", "Rf", "Db", "Sg", "Bh", "Hs", "Mt", "Ds",
    "Rg", "Cn", "Nh", "Fl", "Mc", "Lv", "Ts", "Og",
)

ATOMIC_NUMBER = {sym: z for z, sym in enumerate(SYMBOLS, start=1)}
SYMBOL = {z: sym for sym, z in ATOMIC_NUMBER.items()}

# The symbols an atom may be written with outside brackets (the organic
# subset and its aromatic forms): symbol -> (atomic number, aromatic).
BARE_ATOMS = {sym: (ATOMIC_NUMBER[sym.capitalize()], sym.islower())
              for sym in "B C N O P S F Cl Br I b c n o p s".split()}
# The symbols legal in brackets: every element, the bare aromatic ones, se, as.
BRACKET_ATOMS = {sym: (z, False) for sym, z in ATOMIC_NUMBER.items()}
BRACKET_ATOMS.update({sym: atom for sym, atom in BARE_ATOMS.items() if atom[1]})
BRACKET_ATOMS.update({"se": (34, True), "as": (33, True)})

# Allowed total valences for the neutral element (standard organic subset).
# Atoms whose shifted element falls outside this table accept any valence,
# unchecked.
VALENCES: dict[int, tuple[int, ...]] = {
    1: (1,),             # H
    5: (3,),             # B
    6: (4,),             # C
    7: (3, 5),           # N
    8: (2,),             # O
    9: (1,),             # F
    15: (3, 5),          # P
    16: (2, 4, 6),       # S
    17: (1,),            # Cl
    35: (1,),            # Br
    53: (1,),            # I
}


def allowed_valences(atomic_number: int, charge: int = 0) -> tuple[int, ...] | None:
    """Valences admissible for an atom, or None when the element is untabulated.

    Charge is handled by the isoelectronic shift: a charged atom bonds like
    the element with atomic number Z - charge (N+ like C, O- like F, B- like
    C). Hydrogen is special-cased so [H+] and [H-] carry zero bonds.
    """
    if atomic_number == 1:
        return (1,) if charge == 0 else (0,)
    shifted = atomic_number - charge
    table = VALENCES.get(shifted)
    if table is None:
        return None
    return table


def hydrogens_to_fill(allowed: tuple[int, ...] | None, bond_order_sum: int) -> int:
    """Implicit hydrogens a bare (unbracketed) atom receives, given its
    allowed valences.

    Fills up to the smallest allowed valence that is >= the bond-order sum;
    zero for an untabulated element (None), or when the bond-order sum
    already exceeds every allowed valence (the valence check rejects such
    atoms separately).
    """
    if allowed is None:
        return 0
    for valence in allowed:
        if valence >= bond_order_sum:
            return valence - bond_order_sum
    return 0


def takes_double_bond(
    z: int, charge: int, sigma: int, explicit_multiple: bool, bare: bool
) -> bool:
    """Whether an aromatic atom takes exactly one double bond in a kekule form.

    ``sigma`` is its hydrogens plus its bond orders, an aromatic bond counted
    as 1; ``explicit_multiple``, whether a non-aromatic multiple bond meets
    it. A bare carbon takes one unless such a bond saturates it; any other
    atom when one short of an allowed valence, except B, O, S and Se.
    """
    if bare and z == 6:
        return not explicit_multiple
    allowed = allowed_valences(z, charge)
    return (
        allowed is not None and sigma not in allowed and sigma + 1 in allowed
        and z not in (5, 8, 16, 34)
    )
