"""Spans around the public functions of each rxnkit layer, from outside.

A Tracer wraps each target function and installs the wrapper in every
rxnkit namespace that holds the original (``from x import f`` copies the
name into the importing module, so patching only the defining module would
miss those calls). Each call records its duration and its self time: the
duration minus the time spent in traced calls it made.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

# (module, attribute, span name). "Class.method" patches the class.
TARGETS = (
    ("rxnkit.cli", "main", "cli.main"),
    ("rxnkit.molgraph.parser", "parse_draft", "parser.parse_draft"),
    ("rxnkit.molgraph.perception", "parse_smiles", "perception.parse_smiles"),
    ("rxnkit.molgraph.perception", "molecule_from_draft", "perception.molecule_from_draft"),
    ("rxnkit.molgraph.model", "_non_bridge_edges", "model._non_bridge_edges"),
    ("rxnkit.molgraph.canon", "canonical_ranks", "canon.canonical_ranks"),
    ("rxnkit.molgraph.canon", "canonical_smiles", "canon.canonical_smiles"),
    ("rxnkit.fingerprint", "circular_fingerprint", "fingerprint.circular"),
    ("rxnkit.fingerprint", "path_fingerprint", "fingerprint.path"),
    ("rxnkit.fingerprint", "key_fingerprint", "fingerprint.key"),
    ("rxnkit.fingerprint", "BitFingerprint.serialize", "fingerprint.serialize"),
    ("rxnkit.fingerprint", "tanimoto", "fingerprint.tanimoto"),
    ("rxnkit.substructure", "find_matches", "substructure.find_matches"),
    ("rxnkit.scaffold", "murcko_scaffold", "scaffold.murcko_scaffold"),
    ("rxnkit.scaffold", "max_similarity_to_set", "scaffold.max_similarity_to_set"),
    ("rxnkit.scaffold", "resample_test_set", "scaffold.resample_test_set"),
    ("rxnkit.scaffold", "detect_leakage", "scaffold.detect_leakage"),
    ("rxnkit.reaction", "parse_reaction", "reaction.parse_reaction"),
    ("rxnkit.reaction", "reaction_key", "reaction.reaction_key"),
    ("rxnkit.corpus", "build_interleaved", "corpus.build_interleaved"),
    ("rxnkit.corpus", "build_name_conversion", "corpus.build_name_conversion"),
    ("rxnkit.templates", "render", "templates.render"),
    ("rxnkit.metrics", "eval_generation", "metrics.eval_generation"),
    ("rxnkit.metrics", "levenshtein", "metrics.levenshtein"),
)


def _size_of(span: str, args: tuple, result) -> int | None:
    """Atoms for the growth fits; references scanned for max_similarity_to_set."""
    if span == "perception.parse_smiles":
        return len(result)
    if span == "canon.canonical_ranks":
        return len(args[0])
    if span == "scaffold.max_similarity_to_set":
        return len(args[1])
    return None


def _label(span: str, args: tuple) -> str:
    """What a growth sample needs to know of its input: the SMILES text, or
    for a molecule ``c`` if it has an aromatic atom, else ``N`` if it has a
    nitrogen, else ``C``."""
    if span == "canon.canonical_ranks":
        atoms = args[0].atoms
        if any(a.is_aromatic for a in atoms):
            return "c"
        return "N" if any(a.atomic_number == 7 for a in atoms) else "C"
    return str(args[0]) if args else ""


class Tracer:
    """Per-pipeline call counts, self and total times for each span."""

    def __init__(self) -> None:
        self.pipeline = ""
        self._stack: list[list[float]] = []
        # (pipeline, span) -> [calls, self seconds, total seconds, size sum]
        self.stats: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        # span -> [(size, total seconds, input label)] for growth fits
        self.samples: dict[str, list] = defaultdict(list)
        self.installed: dict[str, list[str]] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, span: str, fn):
        stack, stats, samples = self._stack, self.stats, self.samples

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                st = stats[(self.pipeline, span)]
                st[0] += 1
                st[1] += elapsed - frame[0]
                st[2] += elapsed
            size = _size_of(span, args, result)
            if size is not None:
                st[3] += size
                samples[span].append((size, elapsed, _label(span, args)))
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "rxnkit" or name.startswith("rxnkit."))]
        for module_name, attr, span in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(span, original))
                self.installed[span] = [f"{module_name}.{cls_name}"]
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span, original)
            self.installed[span] = []
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)
                        self.installed[span].append(module.__name__)
        return self

    def _patch(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def __exit__(self, *exc) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    def clear(self) -> None:
        self.stats.clear()
        self.samples.clear()

    def state(self) -> tuple[dict, dict]:
        """The spans recorded so far, as plain data a child process can send."""
        return dict(self.stats), dict(self.samples)

    def merge(self, state: tuple[dict, dict]) -> None:
        stats, samples = state
        for key, st in stats.items():
            self.stats[key] = [a + b for a, b in zip(self.stats[key], st)]
        for span, points in samples.items():
            self.samples[span].extend(points)

    # --- reading the spans back ---------------------------------------------

    def total(self, span: str, pipeline: str | None = None) -> list:
        """[calls, self s, total s, size sum] summed over pipelines (or one)."""
        out = [0, 0.0, 0.0, 0]
        for (pipe, name), st in self.stats.items():
            if name == span and (pipeline is None or pipe == pipeline):
                out = [a + b for a, b in zip(out, st)]
        return out

    def calls(self, span: str, pipeline: str | None = None) -> int:
        return self.total(span, pipeline)[0]

    def self_per_call(self, span: str, scale: float) -> float:
        calls, self_s, _, _ = self.total(span)
        return self_s / calls * scale if calls else 0.0


def growth_exponent(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(seconds) against log(atoms)."""
    xs = [math.log(n) for n, t in points if n > 0 and t > 0]
    ys = [math.log(t) for n, t in points if n > 0 and t > 0]
    if len(set(xs)) < 2:
        return 0.0
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
