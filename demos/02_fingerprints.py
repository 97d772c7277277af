"""The three fingerprint families and Tanimoto similarity.

Run with: python demos/02_fingerprints.py
"""

from rxnkit import parse_smiles
from rxnkit.fingerprint import (
    FingerprintSpec,
    circular_fingerprint,
    key_fingerprint,
    load_key_table,
    path_fingerprint,
    tanimoto,
)

aspirin = parse_smiles("CC(=O)Oc1ccccc1C(=O)O")
salicylic = parse_smiles("OC(=O)c1ccccc1O")
caffeine = parse_smiles("Cn1cnc2c1c(=O)n(C)c(=O)n2C")

# Circular fingerprints hash growing atom neighborhoods (radius 2, 2048
# bits by default); path fingerprints hash simple bond paths of 1-7 bonds;
# key fingerprints set one bit per entry of a fixed structural-key table.
table = load_key_table()
print(f"shipped key table: {len(table)} keys")

for name, mol in [("aspirin", aspirin), ("salicylic acid", salicylic),
                  ("caffeine", caffeine)]:
    c = circular_fingerprint(mol)
    p = path_fingerprint(mol)
    k = key_fingerprint(mol, table)
    print(f"{name:15s} circular={c.bits.bit_count():3d} bits  "
          f"path={p.bits.bit_count():3d} bits  keys={k.bits.bit_count():3d} bits")

# Tanimoto similarity |A&B| / |A|B| over each family. Related molecules
# score high, unrelated ones low.
pairs = [("aspirin vs salicylic", aspirin, salicylic),
         ("aspirin vs caffeine", aspirin, caffeine)]
for label, m1, m2 in pairs:
    sims = [
        tanimoto(circular_fingerprint(m1), circular_fingerprint(m2)),
        tanimoto(path_fingerprint(m1), path_fingerprint(m2)),
        tanimoto(key_fingerprint(m1, table), key_fingerprint(m2, table)),
    ]
    print(f"{label}: circular={sims[0]:.3f} path={sims[1]:.3f} keys={sims[2]:.3f}")

# Fingerprints serialize as width:hex strings for JSONL fields.
spec = FingerprintSpec(kind="circular", radius=1, width=128)
fp = circular_fingerprint(aspirin, spec)
print("serialized:", fp.serialize())
