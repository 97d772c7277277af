"""Fingerprint families and Tanimoto similarity."""

import random
import re

import pytest

from rxnkit import fingerprint as fp_module
from rxnkit.fingerprint import (
    BitFingerprint,
    FingerprintSpec,
    circular_fingerprint,
    fingerprint,
    fnv1a,
    key_fingerprint,
    load_key_table,
    path_fingerprint,
    tanimoto,
)
from rxnkit.molgraph import parse_smiles
from rxnkit.scaffold import max_similarity_to_set

from conftest import random_smiles, shuffled
from oracles import (
    SetFingerprint,
    mask_of,
    reference_circular_fingerprint,
    reference_key_fingerprint,
    reference_max_similarity_to_set,
    reference_path_fingerprint,
    reference_tanimoto,
)


class TestTanimoto:
    def test_identical(self):
        fp = BitFingerprint(width=16, bits=(1 << 1) | (1 << 5) | (1 << 9))
        assert tanimoto(fp, fp) == 1.0

    def test_half_overlap(self):
        a = BitFingerprint(width=16, bits=0b1110)
        b = BitFingerprint(width=16, bits=0b11100)
        assert tanimoto(a, b) == 0.5

    def test_disjoint(self):
        a = BitFingerprint(width=16, bits=1 << 1)
        b = BitFingerprint(width=16, bits=1 << 2)
        assert tanimoto(a, b) == 0.0

    def test_both_empty_is_one(self):
        a = BitFingerprint(width=16, bits=0)
        assert tanimoto(a, a) == 1.0

    def test_width_mismatch(self):
        a = BitFingerprint(width=16, bits=0)
        b = BitFingerprint(width=32, bits=0)
        with pytest.raises(ValueError):
            tanimoto(a, b)

    def test_bounds_and_symmetry(self):
        rng = random.Random(5)
        for _ in range(50):
            a = BitFingerprint(64, mask_of(rng.sample(range(64), rng.randint(0, 20))))
            b = BitFingerprint(64, mask_of(rng.sample(range(64), rng.randint(0, 20))))
            t = tanimoto(a, b)
            assert 0.0 <= t <= 1.0
            assert t == tanimoto(b, a)


class TestSpecRanges:
    @pytest.mark.parametrize("options, wanted", [
        ({"radius": -1}, "radius must be at least 0, got -1"),
        ({"min_path": 0}, "min_path must be at least 1, got 0"),
        ({"kind": "path", "max_path": 0}, r"max_path must be at least min_path \(1\), got 0"),
        ({"min_path": 5, "max_path": 3}, r"max_path must be at least min_path \(5\), got 3"),
    ], ids=["radius", "min_path", "max_path", "empty_window"])
    def test_a_range_it_cannot_honour_is_an_error(self, options, wanted):
        with pytest.raises(ValueError, match=wanted):
            FingerprintSpec(**options)


class TestCircular:
    def test_single_atom_radius_zero(self):
        fp = circular_fingerprint(parse_smiles("C"), FingerprintSpec(radius=0))
        assert fp.bits.bit_count() == 1

    def test_renumbering_invariance(self):
        assert circular_fingerprint(parse_smiles("OCC")) == circular_fingerprint(
            parse_smiles("CCO")
        )

    def test_bit_count_bound(self):
        fp = circular_fingerprint(parse_smiles("CCO"), FingerprintSpec(radius=2))
        assert fp.bits.bit_count() <= 9  # 3 atoms x 3 radii

    def test_radius_superset(self, corpus):
        for s in corpus[:30]:
            mol = parse_smiles(s)
            prev = circular_fingerprint(mol, FingerprintSpec(radius=0)).bits
            for r in (1, 2, 3):
                cur = circular_fingerprint(mol, FingerprintSpec(radius=r)).bits
                assert prev & ~cur == 0
                prev = cur

    @pytest.mark.parametrize("radius", [0, 1, 2, 3])
    def test_chain_hashes_each_distinct_environment_once(self, monkeypatch, radius):
        # A 384-atom chain has r + 2 distinct environments at radius r:
        # the ends, r atoms next to them, and the middle.
        hashed = []

        def counting(data, *state):
            hashed.append(data)
            return fnv1a(data, *state)

        monkeypatch.setattr(fp_module, "fnv1a", counting)
        mol = parse_smiles("C" * 384)
        spec = FingerprintSpec(radius=radius)
        assert circular_fingerprint(mol, spec) == reference_circular_fingerprint(mol, spec)
        assert len(hashed) == len(set(hashed)) == sum(r + 2 for r in range(radius + 1))

    def test_differs_between_molecules(self):
        a = circular_fingerprint(parse_smiles("CCO"))
        b = circular_fingerprint(parse_smiles("CCN"))
        assert a.bits != b.bits


class TestPath:
    def test_single_bond_single_bit(self):
        fp = path_fingerprint(parse_smiles("CC"))
        assert fp.bits.bit_count() == 1

    def test_butane_bit_bound(self):
        # path multiset {C-C x3, C-C-C x2, C-C-C-C x1} collapses to <= 3 bits
        fp = path_fingerprint(parse_smiles("CCCC"))
        assert 1 <= fp.bits.bit_count() <= 3

    def test_renumbering_invariance(self):
        assert path_fingerprint(parse_smiles("OCC")) == path_fingerprint(
            parse_smiles("CCO")
        )

    def test_path_window(self):
        spec = FingerprintSpec(kind="path", min_path=2, max_path=2)
        fp = path_fingerprint(parse_smiles("CC"), spec)
        assert fp.bits == 0


class TestKeys:
    def test_default_table_size(self):
        assert len(load_key_table()) == 166

    def test_benzene_oxygen_key_clear(self, tmp_path):
        table = tmp_path / "keys.txt"
        table.write_text("1\t[#8]\t1\n")
        kt = load_key_table(table)
        assert key_fingerprint(parse_smiles("c1ccccc1"), kt).bits == 0
        assert key_fingerprint(parse_smiles("CCO"), kt).bits == 1

    def test_min_count(self, tmp_path):
        table = tmp_path / "keys.txt"
        table.write_text("1\t[#8]\t2\n")
        kt = load_key_table(table)
        assert key_fingerprint(parse_smiles("CCO"), kt).bits == 0
        assert key_fingerprint(parse_smiles("OCCO"), kt).bits == 1

    def test_empty_table_rejected(self, tmp_path):
        table = tmp_path / "keys.txt"
        table.write_text("# nothing here\n")
        with pytest.raises(ValueError):
            load_key_table(table)

    def test_width_equals_table_length(self):
        fp = key_fingerprint(parse_smiles("CCO"), load_key_table())
        assert fp.width == 166

    @pytest.mark.parametrize("row, message", [
        ("2\t[#6&Q]\t1", "unsupported token 'Q'"),
        ("x\t[#8]\t1", "index .* got 'x'"),
        ("2\t[#8]\ty", "min_count .* got 'y'"),
        ("1_0\t[#8]\t1", "index must be ASCII digits 0-9, got '1_0'"),
        ("٣\t[#8]\t1", "index must be ASCII digits"),
        ("2\t[#8]\t 4", "min_count must be ASCII digits 0-9, got ' 4'"),
        ("2\t[#8]\t+1", "min_count must be ASCII digits 0-9, got '\\+1'"),
        ("2\tC٣CC٣\t1", "unsupported token"),
        ("1\t[#7]\t1", "duplicate key index 1"),
        ("2\t[#8]\t0", "min_count must be >= 1"),
    ])
    def test_errors_name_the_file_and_line(self, tmp_path, row, message):
        table = tmp_path / "keys.txt"
        table.write_text(f"# keys\n1\t[#8]\t1\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(table))}:3: .*{message}"):
            load_key_table(table)

    def test_spec_reads_its_table_file_once(self, tmp_path, corpus, monkeypatch):
        from rxnkit import fingerprint as fp_module

        path = tmp_path / "keys.txt"
        path.write_text(CUSTOM_KEYS)
        parse = fp_module._parse_key_table
        parses = []

        def counting(text, source):
            parses.append(source)
            return parse(text, source)

        monkeypatch.setattr(fp_module, "_parse_key_table", counting)
        table = load_key_table(path)
        spec = FingerprintSpec(kind="key", key_table=table)
        mols = [parse_smiles(s) for s in corpus[:100]]
        fps = [fingerprint(mol, spec) for mol in mols]
        assert parses == [str(path)]  # a spec holds the loaded table
        assert fps == [key_fingerprint(mol, table) for mol in mols]

    def test_spec_takes_only_a_loaded_table(self, tmp_path):
        from rxnkit.fingerprint import KeyTable

        with pytest.raises(TypeError, match="^key_table must be a KeyTable .* not str$"):
            FingerprintSpec(kind="key", key_table=str(tmp_path / "keys.txt"))
        # An empty table is the table given, not a cue for the shipped one.
        spec = FingerprintSpec(kind="key", key_table=KeyTable(entries=()))
        with pytest.raises(ValueError, match="width must be positive"):
            fingerprint(parse_smiles("CCO"), spec)


class TestInvariance:
    def test_all_kinds_invariant_under_renumbering(self, corpus):
        rng = random.Random(11)
        table = load_key_table()
        for s in corpus[:25]:
            mol = parse_smiles(s)
            base = (
                circular_fingerprint(mol),
                path_fingerprint(mol),
                key_fingerprint(mol, table),
            )
            twin = shuffled(mol, rng)
            assert circular_fingerprint(twin) == base[0]
            assert path_fingerprint(twin) == base[1]
            assert key_fingerprint(twin, table) == base[2]

    def test_self_similarity_exactly_one(self, corpus):
        for s in corpus[:25]:
            mol = parse_smiles(s)
            for kind in ("circular", "path"):
                fp = fingerprint(mol, FingerprintSpec(kind=kind))
                assert tanimoto(fp, fp) == 1.0


class TestSerialization:
    def test_round_trip(self):
        fp = circular_fingerprint(parse_smiles("CC(=O)Oc1ccccc1C(=O)O"))
        text = fp.serialize()
        width, _, payload = text.partition(":")
        assert int(width) == 2048
        assert BitFingerprint.deserialize(text) == fp

    def test_deterministic_across_runs(self):
        # FNV-1a is seedless: a frozen value guards against drift
        fp = circular_fingerprint(parse_smiles("C"), FingerprintSpec(radius=0, width=64))
        assert fp == BitFingerprint.deserialize(fp.serialize())
        assert fp.bits.bit_count() == 1


class TestStrictDeserialize:
    @pytest.mark.parametrize("text", [
        "9:ff", "9:ff0100", "8:", "166:" + "00" * 20, "2048:" + "00" * 257,
    ])
    def test_payload_of_the_wrong_length(self, text):
        with pytest.raises(ValueError, match="payload"):
            BitFingerprint.deserialize(text)

    @pytest.mark.parametrize("text", ["7:80", "9:0002", "1:02", "166:" + "00" * 20 + "40"])
    def test_bit_past_the_width(self, text):
        with pytest.raises(ValueError, match="out of range"):
            BitFingerprint.deserialize(text)

    def test_mask_range_check(self):
        assert BitFingerprint(9, (1 << 9) - 1).serialize() == "9:ff01"
        for bits in (1 << 9, -1, (1 << 20) | 1):
            with pytest.raises(ValueError, match="out of range"):
                BitFingerprint(9, bits)


class TestSetOracleEquality:
    """The int bitmask against the frozenset fingerprint it replaced."""

    WIDTHS = (1, 7, 8, 9, 64, 166, 2048)

    @staticmethod
    def bit_sets(rng, width):
        full = frozenset(range(width))
        sets = [frozenset(), full, frozenset({0}), frozenset({width - 1})]
        for density in (0.02, 0.1, 0.5, 0.9):
            for _ in range(4):
                sets.append(frozenset(i for i in range(width) if rng.random() < density))
        return sets

    def test_serialize_deserialize_tanimoto_scan(self):
        rng = random.Random(2024)
        pairs = 0
        for width in self.WIDTHS:
            sets = self.bit_sets(rng, width)
            oracle = [SetFingerprint(width, bits) for bits in sets]
            masks = [BitFingerprint(width, mask_of(bits)) for bits in sets]
            for ref, fp in zip(oracle, masks):
                text = ref.serialize()
                assert fp.serialize() == text
                assert BitFingerprint.deserialize(text) == fp
                assert SetFingerprint.deserialize(text) == ref
            for i in range(len(sets)):
                for j in range(len(sets)):
                    want = reference_tanimoto(oracle[i], oracle[j])
                    assert tanimoto(masks[i], masks[j]).hex() == want.hex()
                    pairs += 1
                picks = rng.sample(range(len(sets)), rng.randint(0, len(sets)))
                want = reference_max_similarity_to_set(oracle[i], [oracle[k] for k in picks])
                got = max_similarity_to_set(masks[i], [masks[k] for k in picks])
                assert got.hex() == want.hex()
        assert pairs == len(self.WIDTHS) * 20 * 20

    def test_corpus_fingerprints(self, corpus):
        fps = [fingerprint(parse_smiles(s), FingerprintSpec(kind=kind))
               for s in corpus[:30] for kind in ("circular", "path")]
        sets = [SetFingerprint(fp.width, frozenset(i for i in range(fp.width) if fp.bits >> i & 1))
                for fp in fps]
        for i, (fp, ref) in enumerate(zip(fps, sets)):
            assert fp.serialize() == ref.serialize()
            for other, other_ref in zip(fps, sets):
                assert tanimoto(fp, other).hex() == reference_tanimoto(ref, other_ref).hex()
            got = max_similarity_to_set(fp, fps[:i] + fps[i + 1:])
            assert got.hex() == reference_max_similarity_to_set(ref, sets[:i] + sets[i + 1:]).hex()

    def test_width_mismatch_raises_the_same_error(self):
        rng = random.Random(7)
        for wa in self.WIDTHS:
            for wb in self.WIDTHS:
                if wa == wb:
                    continue
                sa = rng.choice(self.bit_sets(rng, wa))
                sb = rng.choice(self.bit_sets(rng, wb))
                a, b = BitFingerprint(wa, mask_of(sa)), BitFingerprint(wb, mask_of(sb))
                oa, ob = SetFingerprint(wa, sa), SetFingerprint(wb, sb)
                with pytest.raises(ValueError) as want:
                    reference_tanimoto(oa, ob)
                with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
                    tanimoto(a, b)
                # The scan raises on a mismatched reference it reaches ...
                with pytest.raises(ValueError) as want:
                    reference_max_similarity_to_set(oa, [ob, oa])
                with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
                    max_similarity_to_set(a, [b, a])
                # ... and reaches none after a similarity of 1.0.
                assert reference_max_similarity_to_set(oa, [oa, ob]) == 1.0
                assert max_similarity_to_set(a, [a, b]) == 1.0


# A key table beyond the shipped one: counts above one, ring closures, and
# the '~', ':', '!' and ',' query forms.
CUSTOM_KEYS = """\
1\t[#8]\t2
2\tc1ccccc1\t1
3\t[#6]1~[#6]~[#6]~[#6]~[#6]1\t1
4\t[#6]~[#7]\t2
5\tc:c:c\t2
6\t[!#6&!#1]\t3
7\t[#7,#8]~[#6]=[#8]\t1
8\t[#6](~[#8])~[#8]\t2
9\t[!R]-[R]\t3
10\t[D3,D4]~[!#6]\t1
11\t[#6]1[#6][#6][#6]1\t1
12\t[#7,#8,#16&H1]\t1
"""


class TestReferenceEquality:
    """The loop-based key and path fingerprints equal the recursive references,
    and the circular fingerprint the one that hashes every environment."""

    WINDOWS = [(1, 7), (1, 3), (2, 5)]

    def test_conftest_molecules_with_renumberings(self):
        rng = random.Random(40411)
        table = load_key_table()
        specs = [
            FingerprintSpec(kind="path", min_path=lo, max_path=hi, width=64)
            for lo, hi in self.WINDOWS
        ]
        checked = 0
        for _ in range(1000):
            mol = parse_smiles(random_smiles(rng, 5, 14))
            key_ref = reference_key_fingerprint(mol, table).serialize()
            twins = (mol, shuffled(mol, rng), shuffled(mol, rng))
            # Each numbering checks the keys and one path window.
            for spec, twin in zip(specs, twins):
                assert key_fingerprint(twin, table).serialize() == key_ref
                assert (
                    path_fingerprint(twin, spec).serialize()
                    == reference_path_fingerprint(mol, spec).serialize()
                )
                checked += 1
        assert checked == 3000

    def test_default_path_spec_on_corpus(self, corpus):
        rng = random.Random(3)
        for s in corpus:
            mol = parse_smiles(s)
            ref = reference_path_fingerprint(mol).serialize()
            assert path_fingerprint(mol).serialize() == ref
            assert path_fingerprint(shuffled(mol, rng)).serialize() == ref

    # Widths that are not powers of two, widths below a byte's 256 values,
    # and paths of at least 2, 3 and 7 bonds.
    PATH_SPECS = [(1000, 1, 7), (2047, 1, 7), (16, 1, 7), (1, 1, 7),
                  (2048, 2, 7), (1000, 3, 5), (16, 2, 4), (64, 7, 7)]

    @pytest.mark.parametrize("width, lo, hi", PATH_SPECS)
    def test_path_widths_and_windows(self, corpus, width, lo, hi):
        rng = random.Random(width * 100 + lo * 10 + hi)
        spec = FingerprintSpec(kind="path", width=width, min_path=lo, max_path=hi)
        smiles = corpus[::3] + [random_smiles(rng, 5, 20) for _ in range(40)]
        for s in smiles:
            mol = parse_smiles(s)
            ref = reference_path_fingerprint(mol, spec)
            assert path_fingerprint(mol, spec) == ref
            assert path_fingerprint(shuffled(mol, rng), spec) == ref

    @pytest.mark.parametrize("radius", [0, 1, 2, 3])
    def test_circular_on_corpus_and_renumbered_molecules(self, corpus, radius):
        rng = random.Random(radius)
        specs = [FingerprintSpec(radius=radius, width=w) for w in (2048, 1000, 16)]
        smiles = corpus + [random_smiles(rng) for _ in range(60)]
        for i, s in enumerate(smiles):
            mol = parse_smiles(s)
            spec = specs[i % len(specs)]
            ref = reference_circular_fingerprint(mol, spec)
            assert circular_fingerprint(mol, spec) == ref
            assert circular_fingerprint(shuffled(mol, rng), spec) == ref

    def test_custom_key_table(self, tmp_path, corpus):
        path = tmp_path / "keys.txt"
        path.write_text(CUSTOM_KEYS)
        table = load_key_table(path)
        rng = random.Random(17)
        smiles = corpus + [random_smiles(rng) for _ in range(150)]
        set_bits = 0
        for s in smiles:
            mol = parse_smiles(s)
            ref = reference_key_fingerprint(mol, table)
            set_bits |= ref.bits
            assert key_fingerprint(mol, table) == ref
            assert key_fingerprint(shuffled(mol, rng), table) == ref
        assert set_bits.bit_count() == len(table)  # every key is hit somewhere


# One- and two-atom keys, answered from the predicate and bond-kind masks.
SHORTCUT_KEYS = """\
1\t[#6]~[#6]\t2
2\t[#6]=[#8]\t2
3\t[#6]:[#6]\t1
4\t[#8]\t3
"""


def counting_find_matches(monkeypatch) -> list:
    """Patch substructure.find_matches to record the pattern of each call."""
    from rxnkit import substructure

    calls = []
    find = substructure.find_matches

    def counting(pattern, mol, max_matches=None):
        calls.append(pattern)
        return find(pattern, mol, max_matches)

    monkeypatch.setattr(substructure, "find_matches", counting)
    return calls


class TestKeyShortcuts:
    @pytest.mark.parametrize("smiles, expected", [
        ("CC", set()),
        ("CCC", {0}),  # two C~C bonds
        ("O=C=O", {1}),  # two C=O bonds share the carbon
        ("c1ccccc1", {0, 2}),
        ("C1CCCCC1", {0}),  # no aromatic bond
        ("OCCO", set()),
        ("OCC(O)CO", {0, 3}),
    ])
    def test_against_reference_without_a_search(self, tmp_path, monkeypatch,
                                                smiles, expected):
        path = tmp_path / "keys.txt"
        path.write_text(SHORTCUT_KEYS)
        table = load_key_table(path)
        calls = counting_find_matches(monkeypatch)
        rng = random.Random(smiles)
        mol = parse_smiles(smiles)
        ref = reference_key_fingerprint(mol, table)
        assert ref.bits == mask_of(expected)
        for twin in (mol, shuffled(mol, rng), shuffled(mol, rng)):
            assert key_fingerprint(twin, table) == ref
        assert calls == []

    def test_two_atoms_without_a_bond_are_searched(self, monkeypatch):
        from rxnkit.fingerprint import KeyTable
        from rxnkit.substructure import Pattern

        # Any oxygen with any other carbon: a count no bond mask gives.
        pattern = Pattern(text="[#8].[#6]", atoms=(("elem", 8), ("elem", 6)), bonds=())
        table = KeyTable(entries=((1, pattern, 4),))
        calls = counting_find_matches(monkeypatch)
        rng = random.Random(4)
        for smiles, bit in [("CO", 0), ("OCCO", 1), ("CCCO", 0), ("CCCCO", 1)]:
            mol = parse_smiles(smiles)
            ref = reference_key_fingerprint(mol, table)
            assert ref.bits == bit
            assert key_fingerprint(mol, table) == ref
            assert key_fingerprint(shuffled(mol, rng), table) == ref
        assert calls == [pattern] * 8

    def test_shipped_table_searches_only_larger_keys(self, monkeypatch, corpus):
        table = load_key_table()
        larger = [pattern for _, pattern, _ in table.entries if len(pattern) > 2]
        assert len(larger) == 48
        calls = counting_find_matches(monkeypatch)
        for s in corpus[:30]:
            key_fingerprint(parse_smiles(s), table)
            assert calls == larger
            calls.clear()
        empty = parse_smiles("CCO").subgraph([])
        assert key_fingerprint(empty, table).bits == 0
        assert calls == []

    def test_filled_memo_gives_fresh_matches(self, corpus):
        from rxnkit.substructure import find_matches, parse_pattern

        from test_substructure import PATTERNS

        table = load_key_table()
        patterns = [pattern for _, pattern, _ in table.entries]
        patterns += [parse_pattern(p) for p in PATTERNS]
        for s in corpus[:40]:
            used = parse_smiles(s)
            key_fingerprint(used, table)
            for pattern in patterns:
                for limit in (None, 1, 3):
                    assert find_matches(pattern, used, limit) == find_matches(
                        pattern, parse_smiles(s), limit), (pattern.text, s, limit)

    def test_pickled_table_gives_the_same_bits(self, tmp_path, corpus):
        import pickle

        path = tmp_path / "keys.txt"
        path.write_text(CUSTOM_KEYS)
        table = load_key_table(path)
        loaded = pickle.loads(pickle.dumps(table))
        assert loaded == table
        for s in corpus[:40]:
            mol = parse_smiles(s)
            assert key_fingerprint(mol, loaded) == key_fingerprint(mol, table)
