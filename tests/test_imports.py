"""Standard library only: rxnkit imports nothing else, and every subcommand
runs, with the same outputs, where `import numpy` fails. Nothing public is
unused: every public def, class and method is reached from the CLI, a demo,
the benchmark or the documentation."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from rxnkit.cli import main
from test_cli import write_eval_pairs, write_jsonl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Runs the CLI on its arguments in an interpreter where `import numpy` fails.
NUMPY_BLOCKED = (
    "import sys; sys.modules['numpy'] = None; "
    "from rxnkit.cli import main; sys.exit(main(sys.argv[1:]))"
)


def python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60)


def test_modules_import_only_the_standard_library():
    allowed = sys.stdlib_module_names | {"rxnkit"}
    outside = []
    for path in sorted((SRC / "rxnkit").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.relative_to(SRC).as_posix(), name) for name in names
                        if name.partition(".")[0] not in allowed]
    assert outside == []


IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
CODE = re.compile(r"```.*?```|`[^`]+`", re.DOTALL)  # fenced blocks, then backtick spans
DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def referenced_names(nodes, classes: set[str], strings: bool = False) -> set[str]:
    """The names, attributes and imported names in the nodes; an attribute
    of one of the classes' names counts as "Class.attr". With strings, also
    the parts of each string that is a dotted name (the benchmark names what
    it traces that way)."""
    names = set()
    for node in (sub for top in nodes for sub in ast.walk(top)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            names.add(f"{owner}.{node.attr}" if owner in classes else node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED_NAME.fullmatch(node.value)):
            names.update(node.value.split("."))
    return names


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreached_public_defs(root: Path) -> list[str]:
    """The public defs, classes and methods under root/src that no use reaches.

    The roots are cli.main, the names the demos and the benchmark use, and
    the identifiers in the code of README.md and docs/*.md: its fenced
    blocks and backtick spans, not its prose. A def is reached when its
    name is (a method also needs its class reached), and then reaches every
    name its body refers to. Module code outside defs runs on import, and a
    dunder method runs with its class, so their names count as their
    module's or class's. Names are matched by spelling, not resolved, so a
    name reaches every def it spells, except that an attribute of a class's
    name, as in `Class.method`, reaches that class's method only; a leading
    underscore marks a def private and exempts it.
    """
    # (qualified name, the spellings that reach it, qualified name of its
    # class or None, names used)
    defs = []
    names, renames = {"main"}, {}
    modules = {path.relative_to(root / "src").with_suffix("").as_posix().replace("/", "."):
               ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted((root / "src" / "rxnkit").rglob("*.py"))}
    classes = {node.name for tree in modules.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                cls = f"{module}.{node.name}"
                methods = [item for item in node.body if isinstance(item, ast.FunctionDef)
                           and not is_dunder(item.name)]
                own = [item for item in node.body if item not in methods]
                defs.append((cls, {node.name}, None, referenced_names(
                    own + node.decorator_list + node.bases + node.keywords, classes)))
                defs += [(f"{cls}.{m.name}", {m.name, f"{node.name}.{m.name}"}, cls,
                          referenced_names([m], classes)) for m in methods]
            elif isinstance(node, ast.FunctionDef) and not is_dunder(node.name):
                defs.append((f"{module}.{node.name}", {node.name}, None,
                             referenced_names([node], classes)))
            elif isinstance(node, ast.ImportFrom):
                renames |= {alias.asname: alias.name for alias in node.names if alias.asname}
            elif not isinstance(node, ast.Import):
                names |= referenced_names([node], classes)
    for path in sorted([*(root / "demos").glob("*.py"), *(root / "perfbench").glob("*.py")]):
        names |= referenced_names([ast.parse(path.read_text(encoding="utf-8"))], classes,
                                  strings=True)
    for path in [root / "README.md", *sorted((root / "docs").glob("*.md"))]:
        for code in CODE.findall(path.read_text(encoding="utf-8")):
            names |= set(IDENTIFIER.findall(code))

    reached: set[str] = set()
    while True:
        names |= {renames[name] for name in names & renames.keys()}
        new = [(qualname, used) for qualname, spellings, cls, used in defs
               if qualname not in reached and spellings & names and cls in reached | {None}]
        if not new:
            break
        for qualname, used in new:
            reached.add(qualname)
            names |= used
    return [qualname for qualname, _, _, _ in defs
            if qualname not in reached and not qualname.rpartition(".")[2].startswith("_")]


def test_every_public_def_is_reached():
    assert unreached_public_defs(ROOT) == []


def str_of_an_id(source: str) -> list[int]:
    """The lines of the source that call str() on x["id"] or x.get("id", ...).

    An id that is a key goes through record_id, which keeps 1 and "1" apart;
    an id written out is written as given.
    """
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "str" and node.args):
            continue
        arg = node.args[0]
        if isinstance(arg, ast.Subscript):
            key = arg.slice
        elif (isinstance(arg, ast.Call) and isinstance(arg.func, ast.Attribute)
              and arg.func.attr == "get" and arg.args):
            key = arg.args[0]
        else:
            continue
        if isinstance(key, ast.Constant) and key.value == "id":
            lines.append(node.lineno)
    return lines


def test_no_id_is_made_a_string():
    assert str_of_an_id('str(r["id"])\nstr(r.get("id"))\nstr(r.get("id", c))\nstr(r["x"])\n'
                        'str(r.get("x"))\nrecord_id(r)') == [1, 2, 3]
    found = [f"{path.relative_to(SRC).as_posix()}:{line}"
             for path in sorted((SRC / "rxnkit").rglob("*.py"))
             for line in str_of_an_id(path.read_text(encoding="utf-8"))]
    assert found == []


def json_reads(source: str) -> list[int]:
    """The lines of the source that call json.load or json.loads, or import
    either from json.

    Records and files are read through _jsonl.loads, whose one decoder
    refuses NaN and Infinity, which json.loads reads and dumps writes back.
    """
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
                and node.func.attr in ("load", "loads")):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "json"
              and any(alias.name in ("load", "loads") for alias in node.names)):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_jsonl_reads_json():
    assert json_reads('json.loads(t)\njson.load(fh)\nfrom json import loads\n'
                      'json.dumps(x)\nloads(t)\nx.json.loads(t)') == [1, 2, 3]
    found = [f"{path.relative_to(SRC).as_posix()}:{line}"
             for path in sorted((SRC / "rxnkit").rglob("*.py")) if path.name != "_jsonl.py"
             for line in json_reads(path.read_text(encoding="utf-8"))]
    assert found == []


def private_rxnkit_imports(source: str) -> list[str]:
    """The names starting with '_' that the source imports from rxnkit."""
    return sorted(alias.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) and node.module
                  and node.module.split(".")[0] == "rxnkit"
                  for alias in node.names if alias.name.startswith("_"))


def test_oracles_import_nothing_private():
    # An oracle that calls a private helper of the code it checks cannot
    # catch a slip in that helper.
    assert private_rxnkit_imports(
        "from rxnkit.molgraph.canon import _adjusted_tag\n"
        "from rxnkit.molgraph import Molecule, _x\nfrom json import _default_decoder\n"
        "from rxnkitx import _y\nfrom . import _z") == ["_adjusted_tag", "_x"]
    oracles = Path(__file__).resolve().parent / "oracles.py"
    assert private_rxnkit_imports(oracles.read_text(encoding="utf-8")) == []


def json_converters(root: Path) -> list[str]:
    """Class.method for each to_dict, from_dict or to_json a class under root defines."""
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                found += [f"{node.name}.{item.name}" for item in node.body
                          if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                          and item.name in ("to_dict", "from_dict", "to_json")]
    return found


def test_no_class_converts_json():
    # A record is the JSON object docs/formats.md shows, with no class between
    # it and the library.
    assert json_converters(SRC) == []


def process_names(source: str) -> list[str]:
    """'import <module>' for each import of multiprocessing, and 'Pool' for
    each name, attribute or imported name spelled Pool, in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
            found += ["Pool" for alias in node.names if alias.name == "Pool"]
        else:
            modules = []
            if (isinstance(node, ast.Name) and node.id == "Pool"
                    or isinstance(node, ast.Attribute) and node.attr == "Pool"):
                found.append("Pool")
        found += [f"import {m}" for m in modules if m.partition(".")[0] == "multiprocessing"]
    return found


def test_only_jsonl_owns_processes():
    # One module starts, drives and ends the worker processes, without a
    # multiprocessing.Pool and the helper threads it runs.
    assert process_names("import multiprocessing.pool\nfrom multiprocessing import Pool\n"
                         "from multiprocessing.connection import wait\nx = mp.Pool(2)") == [
        "import multiprocessing.pool", "Pool", "import multiprocessing",
        "import multiprocessing.connection", "Pool"]
    found = {path.relative_to(SRC).as_posix(): process_names(path.read_text(encoding="utf-8"))
             for path in sorted((SRC / "rxnkit").rglob("*.py"))}
    assert {path: names for path, names in found.items() if names} == {
        "rxnkit/_jsonl.py": ["import multiprocessing", "import multiprocessing.connection"]}

def test_importing_the_cli_leaves_numpy_unloaded():
    done = python(
        "import sys, rxnkit.cli; from rxnkit.fingerprint import load_key_table; "
        "load_key_table(); print('numpy' in sys.modules)"
    )
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


def module_constant(path: Path, name: str):
    """The literal value a module assigns to name at its top level, read
    without importing the module."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name for target in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{path.name} assigns no {name}")


def test_trace_targets_resolve():
    # The benchmark's tracer wraps each (module, attribute, span) target; a
    # target that moved or was renamed is otherwise seen only as a span that
    # no call reached in a traced run.
    targets = module_constant(ROOT / "perfbench" / "trace.py", "TARGETS")
    missing = []
    for module, attribute, _ in targets:
        owner = importlib.import_module(module)
        for part in attribute.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attribute}")
    assert missing == []
    spans = {span for _, _, span in targets}
    uses = module_constant(ROOT / "perfbench" / "run.py", "USES")
    assert {span for used in uses.values() for span in used} <= spans


MOLS = ["OCC", "c1ccccc1CC", "CC(=O)Oc1ccccc1C(=O)O", "C1CCOC1", "c1ccncc1C", "C1CC2CCC1CC2"]
INPUTS = {
    "mols": [{"id": f"m{i}", "smiles": s} for i, s in enumerate(MOLS)],
    "ref": [{"id": f"r{i}", "smiles": s} for i, s in enumerate(["CCO", "c1ccccc1C"])],
    "rxns": [{"id": "x0", "rxn": "CO>>C1CCCCC1O"}, {"id": "x1", "rxn": "OC>>OC1CCCCC1"},
             {"id": "x2", "smiles": "CCO"}],
    "procedures": [{"id": "p0", "text": "add ethanol", "entities": [
        {"span": [4, 11], "smiles": "CCO"}]}],
    "names": [{"id": "n0", "smiles": "CCO", "iupac": "ethanol"}],
    "bindings": [{"id": "b0", "reactants": ["CCO"], "products": ["CC"]}],
    "gen_ref": [{"id": 0, "reference": "CCO"}, {"id": 1, "reference": "c1ccccc1"}],
    "gen_pred": [{"id": 0, "prediction": "OCC"}, {"id": 1, "prediction": "C1=CC=CC=C1C"}],
    "sel_ref": [{"id": 0, "reference": "A", "candidates": ["A", "B"],
                 "candidate_yield_ranks": [2, 1]}],
    "sel_pred": [{"id": 0, "prediction": "B"}],
    "cls_ref": [{"id": i, "reference": g} for i, g in enumerate([0, 1, 2, 1, 7])],
    "cls_pred": [{"id": i, "prediction": p} for i, p in enumerate([0, 2, 2, 1, 0])],
    "reg_ref": [{"id": i, "reference": g} for i, g in enumerate([1.0, 2.5, -3, 0.1])],
    "reg_pred": [{"id": i, "prediction": p} for i, p in enumerate([1.5, 2.0, -2.0, 0.3])],
}
# Every subcommand, with {input} files, its {out} (by --out unless given)
# and, for some, a second output {extra}.
COMMANDS = {
    "canon": ["canon", "--in", "{mols}"],
    "validate": ["validate", "--in", "{mols}"],
    "fp-circular": ["fp", "--in", "{mols}"],
    "fp-path": ["fp", "--fp-kind", "path", "--in", "{mols}"],
    "fp-key": ["fp", "--fp-kind", "key", "--in", "{mols}"],
    "sim": ["sim", "--in", "{mols}", "--ref", "{ref}"],
    "scaffold": ["scaffold", "--in", "{mols}"],
    "split": ["split", "--candidates", "{mols}", "--train", "{ref}", "--band", "0:0.9",
              "--n", "3"],
    "leakcheck": ["leakcheck", "--split", "a={rxns}", "--split", "b={rxns}"],
    "interleave": ["corpus", "interleave", "--in", "{procedures}", "--stats", "{extra}"],
    "nameconv": ["corpus", "nameconv", "--in", "{names}"],
    "render": ["render", "--task", "forward", "--in", "{bindings}", "--seed", "3"],
    "eval-gen": ["eval", "gen", "--pred", "{gen_pred}", "--ref", "{gen_ref}",
                 "--details", "{extra}"],
    "eval-sel": ["eval", "sel", "--pred", "{sel_pred}", "--ref", "{sel_ref}"],
    "eval-cls": ["eval", "cls", "--pred", "{cls_pred}", "--ref", "{cls_ref}",
                 "--details", "{extra}"],
    "eval-reg": ["eval", "reg", "--pred", "{reg_pred}", "--ref", "{reg_ref}"],
    "stats": ["corpus", "interleave", "--in", "{procedures}", "--out", os.devnull,
              "--stats", "{out}"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_subcommand_runs_without_numpy(tmp_path, capsys, name):
    paths = {stem: tmp_path / stem for stem in INPUTS}
    for stem, records in INPUTS.items():
        write_jsonl(paths[stem], records)

    def argv(run: str) -> list[str]:
        outputs = {"out": tmp_path / f"{run}.out", "extra": tmp_path / "extra"}
        words = COMMANDS[name] + ["--out", "{out}"] * ("{out}" not in COMMANDS[name])
        return [w.format(**paths, **outputs) for w in words]

    assert main(argv("open")) == 0
    want = {p.name: p.read_bytes() for p in tmp_path.glob("*") if p.name not in INPUTS}
    done = python(NUMPY_BLOCKED, *argv("blocked"))
    assert done.returncode == 0, done.stderr
    assert done.stderr == capsys.readouterr().err
    assert (tmp_path / "blocked.out").read_bytes() == want["open.out"]
    if "extra" in want:
        assert (tmp_path / "extra").read_bytes() == want["extra"]


# The reports and details that eval cls|reg wrote when numpy computed their
# metrics, on the fixtures of test_cli.py; DETAILS stands for the details path.
EVAL_REPORTS = {
    "cls": ("""{
  "details_path": "DETAILS",
  "errors": [],
  "metrics": {
    "accuracy": 1.0,
    "cen": 0.0,
    "mcc": 1.0
  },
  "sample_count": 9,
  "task_family": "classification"
}
""", '{"gold":0,"pred":0}\n{"gold":1,"pred":1}\n{"gold":2,"pred":2}\n' * 3),
    "reg": ("""{
  "details_path": "DETAILS",
  "errors": [],
  "metrics": {
    "mae": 0.3333333333333333,
    "mse": 0.3333333333333333,
    "r2": 0.5
  },
  "sample_count": 3,
  "task_family": "regression"
}
""", '{"gold":1.0,"pred":1.0}\n{"gold":2.0,"pred":2.0}\n{"gold":3.0,"pred":4.0}\n'),
    "cls-pairs": ("""{
  "details_path": "DETAILS",
  "errors": [],
  "metrics": {
    "accuracy": 0.5,
    "cen": 0.396240625180289,
    "mcc": 0.0
  },
  "sample_count": 2,
  "task_family": "classification"
}
""", '{"gold":0,"pred":0}\n{"gold":1,"pred":0}\n'),
    "reg-pairs": ("""{
  "details_path": "DETAILS",
  "errors": [],
  "metrics": {
    "mae": 0.25,
    "mse": 0.125,
    "r2": 0.5
  },
  "sample_count": 2,
  "task_family": "regression"
}
""", '{"gold":1.0,"pred":1.5}\n{"gold":2.0,"pred":2.0}\n'),
}


@pytest.mark.parametrize("case", sorted(EVAL_REPORTS))
def test_eval_cls_reg_reports_are_unchanged(tmp_path, capsys, case):
    task = case[:3]
    ref, pred = tmp_path / "ref.jsonl", tmp_path / "pred.jsonl"
    if case.endswith("-pairs"):
        write_eval_pairs(tmp_path, task)
    elif task == "cls":  # TestRenderAndEval.test_eval_cls
        write_jsonl(ref, [{"id": i, "reference": i % 3} for i in range(9)])
        write_jsonl(pred, [{"id": i, "prediction": i % 3} for i in range(9)])
    else:  # TestRenderAndEval.test_eval_reg
        write_jsonl(ref, [{"id": i, "reference": float(v)} for i, v in enumerate([1, 2, 3])])
        write_jsonl(pred, [{"id": i, "prediction": float(v)} for i, v in enumerate([1, 2, 4])])
    out, details = tmp_path / "m.json", tmp_path / "d.jsonl"
    assert main(["eval", task, "--pred", str(pred), "--ref", str(ref),
                 "--out", str(out), "--details", str(details)]) == 0
    report, rows = EVAL_REPORTS[case]
    assert out.read_text() == report.replace("DETAILS", str(details))
    assert details.read_text() == rows
    capsys.readouterr()
