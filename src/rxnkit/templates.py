"""Instruction-template registry, deterministic rendering, slot extraction.

The registry ships one template per task (6 pretraining, 10 downstream);
users may register extra variants per task and select among them by seeded
choice. Rendering joins multi-molecule slots with '.', writes the reaction
arrow literally as " >> ", and is byte-deterministic. A per-task regex
recovers the bound slot strings from rendered instructions.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from ._jsonl import loads

_PLACEHOLDER_RE = re.compile(r"\{(\w+)\}")
MOLECULE_SENTINEL = "<molecule>"


class TemplateError(ValueError):
    """Unknown task, missing placeholder, or unextractable instruction."""


@dataclass
class TemplateRegistry:
    """Task -> its variants, each an object of the registry file; variant 0 is
    the shipped one."""

    _templates: dict[str, list[dict]] = field(default_factory=dict)

    def register(self, template: dict) -> None:
        """Add a variant: {"task", "system", "instruction", "output"} and an
        optional "molecule_slots" list."""
        for key in ("task", "system", "instruction", "output"):
            template[key]  # KeyError names a missing key
        if not isinstance(template.get("molecule_slots", []), list):
            raise TypeError(f"molecule_slots must be a list, got {template['molecule_slots']!r}")
        self._templates.setdefault(template["task"], []).append(template)

    def load_file(self, path: str | Path) -> None:
        for template in loads(Path(path).read_text(encoding="utf-8")):
            self.register(template)

    @property
    def tasks(self) -> tuple[str, ...]:
        return tuple(self._templates)

    def get(self, task: str, variant: int = 0, seed: int | str | None = None) -> dict:
        """A task's variant; a seed, when given, draws the variant instead."""
        variants = self._templates.get(task)
        if not variants:
            raise TemplateError(f"unknown task {task!r}")
        if seed is not None:
            variant = random.Random(seed).randrange(len(variants))
        if not 0 <= variant < len(variants):  # a negative index would wrap around
            raise TemplateError(
                f"task {task!r} has no variant {variant} ({len(variants)} registered)")
        return variants[variant]


_BUILTIN: TemplateRegistry | None = None


def builtin_registry() -> TemplateRegistry:
    """The shipped 16-task registry (loaded once)."""
    global _BUILTIN
    if _BUILTIN is None:
        registry = TemplateRegistry()
        for template in loads(resources.files("rxnkit").joinpath("data/templates.json")
                              .read_text(encoding="utf-8")):
            registry.register(template)
        _BUILTIN = registry
    return _BUILTIN


def __getattr__(name: str):
    """TASKS: the 16 shipped tasks in file order, from the registry on first use."""
    if name == "TASKS":
        return builtin_registry().tasks
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _format_value(value, sentinel: bool) -> str:
    if isinstance(value, dict):
        return MOLECULE_SENTINEL if sentinel else json.dumps(
            value, separators=(",", ":")
        )
    if isinstance(value, (list, tuple)):
        return ".".join(_format_value(v, sentinel) for v in value)
    if sentinel:
        return MOLECULE_SENTINEL
    return str(value)


def render(
    task: str,
    bindings: dict,
    registry: TemplateRegistry | None = None,
    variant: int = 0,
    seed: int | str | None = None,
    sentinel_molecules: bool = False,
) -> dict:
    """Render a task's template with the given slot bindings.

    Lists join with '.'; dicts (graph objects) render as compact JSON (or as the
    molecule sentinel when ``sentinel_molecules`` is set, with the real
    strings returned under "molecules"). The "output" key is present only
    when every output placeholder is bound. The template is
    ``registry.get(task, variant, seed)``. Raises TemplateError for an
    unknown task or variant, or a missing placeholder.
    """
    registry = registry or builtin_registry()
    template = registry.get(task, variant, seed)

    molecules: list[str] = []

    def fill(pattern: str) -> str:
        def substitute(match: re.Match) -> str:
            name = match.group(1)
            if name not in bindings:
                raise TemplateError(
                    f"task {task!r}: placeholder {name!r} is not bound"
                )
            value = bindings[name]
            use_sentinel = sentinel_molecules and name in template.get("molecule_slots", ())
            if use_sentinel:
                # One sidecar entry per sentinel token emitted.
                items = value if isinstance(value, (list, tuple)) else [value]
                molecules.extend(_format_value(v, sentinel=False) for v in items)
            return _format_value(value, sentinel=use_sentinel)

        return _PLACEHOLDER_RE.sub(substitute, pattern)

    result = {
        "task": task,
        "system": template["system"],
        "instruction": fill(template["instruction"]),
    }
    output_names = _PLACEHOLDER_RE.findall(template["output"])
    if all(name in bindings for name in output_names):
        result["output"] = fill(template["output"])
    if sentinel_molecules:
        result["molecules"] = molecules
    return result


def extraction_regex(template: dict) -> re.Pattern:
    """Compile the instruction pattern into a slot-capturing regex."""
    pattern = template["instruction"]
    parts = ["^"]
    pos = 0
    for match in _PLACEHOLDER_RE.finditer(pattern):
        parts.append(re.escape(pattern[pos : match.start()]))
        parts.append(f"(?P<{match.group(1)}>.+?)")
        pos = match.end()
    parts.append(re.escape(pattern[pos:]))
    parts.append("$")
    return re.compile("".join(parts), re.DOTALL)


def extract(task: str, instruction: str) -> dict[str, str]:
    """Recover the bound slot strings from an instruction rendered with the
    builtin registry's first variant of the task."""
    match = extraction_regex(builtin_registry().get(task)).match(instruction)
    if match is None:
        raise TemplateError(
            f"instruction does not match the {task!r} template"
        )
    return match.groupdict()
