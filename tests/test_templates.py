"""Template rendering against the golden transcriptions, plus extraction."""

import hashlib
import json
from pathlib import Path

import pytest

from rxnkit.templates import (
    TASKS,
    TemplateError,
    TemplateRegistry,
    builtin_registry,
    extract,
    render,
)

GOLDEN_DIR = Path(__file__).parent / "data" / "templates"

# Fixed bindings used to produce the golden files (one set per task).
GOLDEN_BINDINGS = {
    "caption": {"molecule": "<molecule>", "caption": "This molecule is an alcohol"},
    "iupac_to_formula": {"iupac": "ethanol", "formula": "C2H6O"},
    "iupac_to_smiles": {"iupac": "ethanol", "smiles": "CCO"},
    "graph_to_formula": {"molecule": "<molecule>", "formula": "C2H6O"},
    "graph_to_iupac": {"molecule": "<molecule>", "iupac": "ethanol"},
    "graph_to_smiles": {"molecule": "<molecule>", "smiles": "CCO"},
    "forward": {"reactants": ["r1", "r2"], "products": ["p1"]},
    "retro": {"products": ["p1", "p2"], "reactants": ["r1", "r2"]},
    "catalyst": {"reactants": ["r1", "r2"], "products": ["p1"], "catalyst": "c1"},
    "reagent": {"reactants": ["r1", "r2"], "products": ["p1"], "reagent": "g1"},
    "solvent": {"reactants": ["r1", "r2"], "products": ["p1"], "solvent": "s1"},
    "reagent_selection": {
        "reactant": "r1",
        "reagents": ["g1", "g2"],
        "solvent": "s1",
        "candidates": ["x1", "x2"],
        "answer": "x2",
    },
    "ligand_selection": {
        "reactants": ["r1", "r2"],
        "reagent": "g1",
        "solvent": "s1",
        "candidates": ["L1", "L2"],
        "answer": "L1",
    },
    "solvent_selection": {
        "reactants": ["r1", "r2"],
        "ligand": "L1",
        "base": "b1",
        "candidates": ["s1", "s2"],
        "answer": "s2",
    },
    "yield": {"reactants": ["r1", "r2"], "products": ["p1"], "ratio": "0.85"},
    "reaction_class": {"reactants": ["r1", "r2"], "products": ["p1"], "class_number": "42"},
}


def load_golden(task: str) -> dict[str, str]:
    sections: dict[str, list[str]] = {}
    current = None
    for line in (GOLDEN_DIR / f"{task}.txt").read_text().splitlines():
        if line.startswith("=== ") and line.endswith(" ==="):
            current = line[4:-4]
            sections[current] = []
        else:
            sections[current].append(line)
    return {name: "\n".join(lines) for name, lines in sections.items()}


class TestGoldens:
    def test_sixteen_tasks(self):
        assert len(TASKS) == 16
        assert set(GOLDEN_BINDINGS) == set(TASKS)

    @pytest.mark.parametrize("task", sorted(GOLDEN_BINDINGS))
    def test_byte_equal_to_golden(self, task):
        golden = load_golden(task)
        rendered = render(task, GOLDEN_BINDINGS[task])
        assert rendered["system"] == golden["system"]
        assert rendered["instruction"] == golden["instruction"]
        assert rendered["output"] == golden["output"]


class TestRender:
    def test_spec_forward_example(self):
        out = render("forward", {"reactants": ["r1", "r2"], "products": ["p1"]})
        assert out["instruction"] == (
            "Using r1.r2 as the reactants and reagents, tell me the potential product."
        )

    def test_spec_yield_example(self):
        out = render("yield", GOLDEN_BINDINGS["yield"])
        assert out["output"] == "The yield ratio is 0.85."

    def test_unknown_placeholder_named(self):
        with pytest.raises(TemplateError, match="reactants"):
            render("forward", {"products": ["p1"]})

    def test_unknown_task(self):
        with pytest.raises(TemplateError):
            render("alchemy", {})

    def test_output_omitted_without_target(self):
        out = render("forward", {"reactants": ["r1"]})
        assert "output" not in out

    def test_deterministic(self):
        a = render("catalyst", GOLDEN_BINDINGS["catalyst"])
        b = render("catalyst", GOLDEN_BINDINGS["catalyst"])
        assert a == b

    def test_graph_record_binding(self):
        from rxnkit.molgraph import parse_smiles, to_graph_record

        graph = to_graph_record(parse_smiles("CCO"))
        out = render("graph_to_formula", {"molecule": graph, "formula": "C2H6O"})
        assert '"nodes"' in out["instruction"]

    @pytest.mark.parametrize("sentinel, sha", [
        (False, "104084cde84a2bf6dc24b04807de7ff4217675279f4de1a7320abffb138cf91f"),
        (True, "a2c0f5b59d0cd75d1a5e8e60fa95521f069d097579e762ea7de1634ccf95af60"),
    ])
    def test_graph_binding_bytes(self, sentinel, sha):
        from rxnkit.molgraph import parse_smiles, to_graph_record

        graph = to_graph_record(parse_smiles("c1ccncc1O"))
        out = render("graph_to_formula", {"molecule": graph, "formula": "C5H5NO"},
                     sentinel_molecules=sentinel)
        text = json.dumps(out, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == sha

    def test_sentinel_mode(self):
        out = render(
            "forward",
            {"reactants": ["CCO", "CCN"], "products": ["CCOCC"]},
            sentinel_molecules=True,
        )
        assert out["instruction"] == (
            "Using <molecule>.<molecule> as the reactants and reagents, "
            "tell me the potential product."
        )
        assert out["molecules"] == ["CCO", "CCN", "CCOCC"]


class TestExtract:
    @pytest.mark.parametrize("task", sorted(GOLDEN_BINDINGS))
    def test_round_trip(self, task):
        bindings = GOLDEN_BINDINGS[task]
        rendered = render(task, bindings)
        recovered = extract(task, rendered["instruction"])
        assert recovered  # every task's instruction has a slot
        for name, text in recovered.items():
            value = bindings[name]
            expected = ".".join(value) if isinstance(value, list) else str(value)
            assert text == expected

    def test_multifragment_slot_recovered_joined(self):
        rendered = render("forward", {"reactants": ["CC.O", "N"], "products": ["P"]})
        assert extract("forward", rendered["instruction"])["reactants"] == "CC.O.N"

    def test_mismatch_raises(self):
        with pytest.raises(TemplateError):
            extract("forward", "This is not a forward instruction.")


class TestRegistry:
    def test_variant_registration_and_seeded_choice(self):
        registry = TemplateRegistry()
        base = builtin_registry().get("forward")
        registry.register(base)
        registry.register({**base, "instruction": "Predict the product of {reactants}."})
        seen = {
            registry.get("forward", seed=s)["instruction"] for s in range(16)
        }
        assert len(seen) == 2
        assert registry.get("forward", seed=3) == registry.get("forward", seed=3)

    @pytest.mark.parametrize("variant", [-1, 1])
    def test_variant_outside_the_list_is_an_error(self, variant):
        with pytest.raises(TemplateError, match=f"has no variant {variant} \\(1 registered\\)"):
            builtin_registry().get("forward", variant)

    def test_variant_0_without_seed(self):
        registry = builtin_registry()
        assert registry.get("retro", seed=None) == registry.get("retro", 0)
        # A seed draws among the variants, and a task with one has only variant 0.
        assert all(registry.get("retro", seed=s) == registry.get("retro") for s in range(8))

    def test_load_file(self, tmp_path):
        import json

        path = tmp_path / "extra.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "task": "forward",
                        "system": "s",
                        "instruction": "i {reactants}",
                        "output": "o {products}",
                    }
                ]
            )
        )
        registry = TemplateRegistry()
        registry.load_file(path)
        assert registry.get("forward")["system"] == "s"
