"""Command-line front door wiring the library into JSONL pipelines.

Subcommands: canon, validate, fp, sim, scaffold, split, leakcheck,
corpus interleave, corpus nameconv, render, eval gen|cls|reg|sel.
Inputs and outputs are JSONL (schemas in docs/formats.md); reports are JSON.
Identical inputs and flags produce byte-identical outputs for any worker
count. Per-record failures are collected and reported on stderr unless
--strict makes them fatal.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from functools import partial
from itertools import chain

from ._jsonl import (
    Workers,
    dumps,
    iter_lines,
    loads,
    parallel_map,
    read_record,
    record_id,
    write_json,
    write_jsonl,
)
from .corpus import (
    DEFAULT_ENTITY_LIMIT,
    DEFAULT_TOKEN_LIMIT,
    build_interleaved,
    build_name_conversion,
    filter_and_stat,
)
from .fingerprint import FingerprintSpec, fingerprint, load_key_table
from .metrics import (
    eval_classification,
    eval_generation,
    eval_regression,
    eval_selection,
    generation_specs,
    score_generation,
)
from .molgraph import canonicalize, parse_smiles, validate
from .scaffold import (
    detect_leakage,
    max_similarity_to_set,
    murcko_scaffold,
    record_key,
    resample_test_set,
    split_features,
)
from .templates import TemplateRegistry, builtin_registry, render as render_template


class Fatal(Exception):
    """Unrecoverable CLI failure; carries the exit code."""

    def __init__(self, message: str, code: int = 2) -> None:
        super().__init__(message)
        self.code = code


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    run = parser.parse_args(argv, Run())
    try:
        if run.config:
            run = _apply_config(parser, run, argv)
        if run.workers is None:
            env = os.environ.get("RXNKIT_WORKERS", "1")
            try:
                run.workers = _integer(env)
            except argparse.ArgumentTypeError as exc:
                raise Fatal(f"RXNKIT_WORKERS {exc}") from None
        if run.workers < 1:
            raise Fatal(f"workers must be at least 1, got {run.workers}")
        with Workers(run.workers) as run.pool:  # no worker outlives the run
            run.handler(run)
    except (Fatal, OSError, ValueError) as exc:
        run.list_rows()  # the rows so far, before the run's error
        sys.stderr.write(dumps({"error": str(exc)}) + "\n")
        return exc.code if isinstance(exc, Fatal) else 2
    run.list_rows()
    return 0


def _integer(text: str) -> int:
    """The value of an integer option: ASCII digits after an optional sign.

    int() alone would also read 1_0 as 10 and the Arabic-Indic 2 (U+0662) as 2.
    """
    if re.fullmatch(r"[+-]?[0-9]+", text) is None:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rxnkit",
        description="Molecule, reaction, corpus, and evaluation pipelines.",
    )
    parser.add_argument("--config", help="JSON file with default option values; "
                        "it comes before the subcommand")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, fp: bool = False, kind: bool = True) -> None:
        p.add_argument("--workers", type=_integer, default=None,
                       help="worker processes (env RXNKIT_WORKERS, default 1)")
        p.add_argument("--strict", action="store_true",
                       help="fail fast on the first bad record")
        p.set_defaults(parser=p)  # for --config to check its keys against
        if fp:
            if kind:  # eval gen computes all three kinds
                p.add_argument("--fp-kind", choices=["circular", "path", "key"],
                               default=None)
            p.add_argument("--radius", type=_integer, default=None)
            p.add_argument("--width", type=_integer, default=None)
            p.add_argument("--min-path", type=_integer, default=None)
            p.add_argument("--max-path", type=_integer, default=None)
            p.add_argument("--key-table", default=None)

    p = sub.add_parser("canon", help="canonicalize molecule records")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(handler=partial(_run_records, fn=_canon))

    p = sub.add_parser("validate", help="classify SMILES validity")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(handler=partial(_run_records, fn=_validate))

    p = sub.add_parser("fp", help="fingerprint molecule records")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", default=None)
    common(p, fp=True)
    p.set_defaults(handler=_cmd_fp)

    p = sub.add_parser("sim", help="max similarity of each record to a reference set")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--out", default=None)
    common(p, fp=True)
    p.set_defaults(handler=_cmd_sim)

    p = sub.add_parser("scaffold", help="Murcko scaffold keys")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(handler=partial(_run_records, fn=_scaffold))

    p = sub.add_parser("split", help="scaffold-similarity test-set resampling")
    p.add_argument("--candidates", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--band", default="0.5:0.6", help="low:high similarity band")
    p.add_argument("--n", type=_integer, required=True)
    common(p, fp=True)
    p.set_defaults(handler=_cmd_split)

    p = sub.add_parser("leakcheck", help="cross-split duplicate audit")
    p.add_argument("--split", action="append", required=True,
                   metavar="NAME=PATH", help="repeatable named split")
    p.add_argument("--out", default=None)
    p.add_argument("--merge-agents", action="store_true",
                   help="fold reagents into reactants when keying")
    common(p)
    p.set_defaults(handler=_cmd_leakcheck)

    corpus = sub.add_parser("corpus", help="pretraining corpus construction")
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)

    p = corpus_sub.add_parser("interleave", help="build interleaved records")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--stats", default=None, help="also write a stats JSON")
    p.add_argument("--entity-limit", type=_integer, default=DEFAULT_ENTITY_LIMIT)
    p.add_argument("--token-limit", type=_integer, default=DEFAULT_TOKEN_LIMIT)
    common(p)
    p.set_defaults(handler=_cmd_interleave)

    p = corpus_sub.add_parser("nameconv", help="expand name-conversion tasks")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(handler=partial(_run_records, fn=_nameconv))

    p = sub.add_parser("render", help="render instruction templates")
    p.add_argument("--task", required=True)
    p.add_argument("--in", dest="input", required=True,
                   help="JSONL of binding records (non-id fields bind slots)")
    p.add_argument("--out", default=None)
    p.add_argument("--templates", default=None,
                   help="JSON registry file with extra template variants")
    p.add_argument("--variant", type=_integer, default=None,
                   help="the task's variant, counted from 0 (default 0)")
    p.add_argument("--seed", type=_integer, default=None,
                   help="per-record seeded choice among a task's variants, "
                        "in place of --variant")
    p.add_argument("--sentinel", action="store_true",
                   help="render molecule slots as sentinels with sidecar SMILES")
    common(p)
    p.set_defaults(handler=_cmd_render)

    ev = sub.add_parser("eval", help="downstream evaluation metrics")
    ev_sub = ev.add_subparsers(dest="eval_command", required=True)
    for name, handler in (
        ("gen", _cmd_eval_gen),
        ("cls", _cmd_eval_cls),
        ("reg", _cmd_eval_reg),
        ("sel", _cmd_eval_sel),
    ):
        p = ev_sub.add_parser(name)
        p.add_argument("--pred", required=True)
        p.add_argument("--ref", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--details", default=None, help="per-sample detail JSONL")
        common(p, fp=name == "gen", kind=False)
        if name == "cls":
            p.add_argument("--n-classes", type=_integer, default=None)
        p.set_defaults(handler=handler)

    return parser


def _apply_config(parser, args, argv) -> Run:
    """args parsed again with the --config values as defaults; flags win.

    Every key must name an optional flag of the subcommand, and its value
    must have the type of that flag's value: true or false for a switch.
    """
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = loads(fh.read())
    except (OSError, ValueError, RecursionError) as exc:
        raise Fatal(f"cannot read config {args.config}: {exc}")
    if not isinstance(config, dict):
        raise Fatal(f"config {args.config} is not a JSON object")
    options = {a.dest: a for a in args.parser._actions
               if a.option_strings and not a.required and a.default is not argparse.SUPPRESS}
    for key, value in config.items():
        action = options.get(key.replace("-", "_"))
        if action is None:
            raise Fatal(f"config {args.config}: {key!r} is not an option of {args.command}")
        if action.nargs == 0:
            ok, want = type(value) is bool, "true or false"
        elif action.choices:
            ok, want = value in action.choices, f"one of {action.choices}"
        else:
            kind = int if action.type is _integer else str
            ok, want = type(value) is kind, kind.__name__
        if not ok:
            raise Fatal(f"config {args.config}: {key!r} must be {want}, got {value!r}")
        args.parser.set_defaults(**{action.dest: value})
    return parser.parse_args(argv, Run())


def _fp_spec(run: Run) -> FingerprintSpec:
    """The fingerprint options given; an option left unset keeps its default.

    A key table file is read here, once per run, so that a table that cannot
    be read or parsed fails the run instead of every record.
    """
    options = {
        name: getattr(run, name, None)
        for name in ("radius", "width", "min_path", "max_path", "key_table")
    }
    options["kind"] = getattr(run, "fp_kind", None)  # eval gen takes every kind
    if options["key_table"] is not None:
        try:
            options["key_table"] = load_key_table(options["key_table"])
        except (OSError, ValueError) as exc:
            raise Fatal(f"cannot load key table: {exc}")
    return FingerprintSpec(**{k: v for k, v in options.items() if v is not None})


def _parse_band(text: str) -> tuple[float, float]:
    try:
        low, high = (float(bound) for bound in text.split(":"))
    except ValueError:
        low = high = math.nan
    if not (math.isfinite(low) and math.isfinite(high)):  # NaN and Infinity are not JSON
        raise Fatal(f"--band must look like 0.5:0.6, got {text!r}")
    if low > high:
        raise Fatal(f"--band low must be <= high, got {text!r}")
    return low, high


# --- the record driver ------------------------------------------------------

def _guarded(fn, item: tuple[int, str]) -> tuple[dict | None, object]:
    """(None, fn(lineno, record)) for the record on the line, or (its error row, None).

    The row has the record's id when the line held an object with an id.
    """
    lineno, line = item
    record = None
    try:
        record = read_record(line)
        return None, fn(lineno, record)
    except Exception as exc:
        row = {"line": lineno, "error": str(exc)}
        if record is not None and "id" in record:
            row["id"] = record["id"]
        return row, None


class Run(argparse.Namespace):
    """One CLI run: the options argparse fills in, the workers (pool) and the
    error rows, in the order they arrive: the files in the order the handler
    reads them, and the lines of a file in line order.
    """

    def __init__(self) -> None:
        super().__init__()
        self.rows: list[dict] = []

    def list_rows(self) -> None:
        if self.rows:
            sys.stderr.write(dumps({"record_errors": self.rows, "count": len(self.rows)}) + "\n")

    def records(self, path: str, fn, workers: Workers | None = None):
        """fn(lineno, record) over the records of path, in input order, on the
        run's workers (or those given); each error row is listed, and under
        --strict the first one ends the run."""
        guarded = partial(_guarded, fn)
        for row, result in parallel_map(guarded, iter_lines(path), workers or self.pool):
            if row is None:
                yield result
                continue
            self.rows.append(row)
            if self.strict:
                raise Fatal(f"--strict: line {row['line']} of {path} is an error row", code=1)


def _run_records(run: Run, fn) -> None:
    """Write the rows fn returns for each input record."""
    write_jsonl(run.out, chain.from_iterable(run.records(run.input, fn)))


# --- per-record functions (module level so process pools can pickle them) ---

def _canon(lineno, record):
    return [{"id": record.get("id"), "smiles": canonicalize(record["smiles"])}]


def _validate(lineno, record):
    return [{"id": record.get("id"), **validate(record["smiles"])}]


def _fingerprint(lineno, record, spec: FingerprintSpec):
    return fingerprint(parse_smiles(record["smiles"]), spec)


def _fp(lineno, record, spec: FingerprintSpec):
    return [{"id": record.get("id"), "fp": _fingerprint(lineno, record, spec).serialize()}]


def _sim(lineno, record, spec: FingerprintSpec, ref_fps: list):
    best = max_similarity_to_set(_fingerprint(lineno, record, spec), ref_fps)
    return [{"id": record.get("id"), "max_similarity": best}]


def _scaffold(lineno, record):
    return [{"id": record.get("id"), "scaffold": murcko_scaffold(parse_smiles(record["smiles"]))}]


def _split_train(lineno, record, spec: FingerprintSpec):
    return split_features(record, spec)


def _split_candidate(lineno, record, spec: FingerprintSpec):
    return (record_id(record), *split_features(record, spec))


def _leak_key(lineno, record, merge_agents: bool):
    key = record_key(record, merge_agents)  # a record that cannot be keyed says so first
    return record_id(record), key


def _interleave(lineno, record, entity_limit: int, token_limit: int):
    return build_interleaved(record, entity_limit, token_limit)


def _nameconv(lineno, record):
    return build_name_conversion(record)


def _render(lineno, record, task, variant, seed, sentinel, registry):
    bindings = {k: v for k, v in record.items() if k != "id"}
    # Seeded per-record choice stays worker-count independent: the draw
    # depends only on the seed and the record's input line.
    record_seed = None if seed is None else f"{seed}:{lineno}"
    rendered = render_template(
        task, bindings, registry=registry,
        variant=variant, seed=record_seed, sentinel_molecules=sentinel,
    )
    return [{"id": record.get("id"), **rendered}]


# --- subcommand handlers ----------------------------------------------------

def _cmd_fp(run):
    _run_records(run, partial(_fp, spec=_fp_spec(run)))


def _cmd_sim(run):
    spec = _fp_spec(run)
    ref_fps = list(run.records(run.ref, partial(_fingerprint, spec=spec)))
    if not ref_fps:
        raise Fatal(f"no reference fingerprint ({len(run.rows)} error rows)")
    _run_records(run, partial(_sim, spec=spec, ref_fps=ref_fps))


def _cmd_split(run):
    band, spec = _parse_band(run.band), _fp_spec(run)
    if run.n < 1:  # checked before the records are fingerprinted
        raise Fatal(f"--n must be >= 1, got {run.n}")
    train = list(run.records(run.train, partial(_split_train, spec=spec)))
    candidates = list(run.records(run.candidates, partial(_split_candidate, spec=spec)))
    write_json(run.out, resample_test_set(candidates, train, band, run.n))


def _cmd_leakcheck(run):
    paths = {}  # checked before any file is read
    for split in run.split:
        name, _, path = split.partition("=")
        if not name or not path:
            raise Fatal(f"--split must be NAME=PATH, got {split!r}")
        if name in paths:
            raise Fatal(f"--split name {name!r} is given twice")
        paths[name] = path
    keyed, errors = {}, []
    key = partial(_leak_key, merge_agents=run.merge_agents)
    for name, path in paths.items():
        first = len(run.rows)
        keyed[name] = list(run.records(path, key))
        errors += [{"split": name, **row} for row in run.rows[first:]]
    write_json(run.out, {**detect_leakage(keyed), "errors": errors})


def _cmd_interleave(run):
    for flag, limit in (("--entity-limit", run.entity_limit), ("--token-limit", run.token_limit)):
        if limit < 0:  # checked before any record is read
            raise Fatal(f"{flag} must be >= 0, got {limit}")
    worker = partial(_interleave, entity_limit=run.entity_limit, token_limit=run.token_limit)
    kept, stats = filter_and_stat(run.records(run.input, worker))
    write_jsonl(run.out, kept)
    if run.stats:
        write_json(run.stats, stats)


def _cmd_render(run):
    if run.variant is not None and run.seed is not None:
        raise Fatal("--variant and --seed exclude each other: the seed draws the variant")
    variant = run.variant or 0
    registry = None  # the builtin one, which the row function need not carry
    if run.templates:  # read once, before the first record; the row function carries it
        registry = TemplateRegistry()
        for task in builtin_registry().tasks:
            registry.register(builtin_registry().get(task))
        try:
            registry.load_file(run.templates)
        except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
            raise Fatal(f"cannot load templates: {exc}")
    (registry or builtin_registry()).get(run.task, variant)  # a bad task or variant ends the run
    _run_records(run, partial(
        _render, task=run.task, variant=variant, seed=run.seed,
        sentinel=run.sentinel, registry=registry,
    ))


def _join_by_id(run, row) -> list:
    """row(lineno, reference, prediction) for each reference, in reference order.

    Predictions pair with references by record_id; the references stream. A
    repeated prediction id, a reference without a prediction, or a pair whose
    row cannot be built, is an error row. When no row is left the run fails,
    and its error rows are still reported.
    """
    serial = Workers(1)  # the rows are built here, next to the predictions
    preds = {}  # id -> (line, prediction) of the first prediction with it

    def keep(lineno, pred):
        first, _ = preds.setdefault(record_id(pred), (lineno, pred))
        if first != lineno:
            raise ValueError(f"id repeats the prediction on line {first}")

    list(run.records(run.pred, keep, serial))  # keep fills preds as the lines are read

    def pair(lineno, ref):
        _, pred = preds.get(record_id(ref), (None, None))
        if pred is None:
            raise LookupError("no prediction")
        return row(lineno, ref, pred)

    rows = list(run.records(run.ref, pair, serial))
    if not rows:
        raise Fatal(f"no pair left to score ({len(run.rows)} error rows)")
    return rows


def _write_report(run, task_family: str, metrics: dict, details: list[dict]) -> None:
    """Write the metric report of an eval run and, with --details, its detail rows."""
    report = {
        "task_family": task_family,
        "sample_count": len(details),
        "metrics": metrics,
        "errors": [],  # the pairs that could not be scored are rows on stderr
    }
    if run.details:
        write_jsonl(run.details, details)
        report["details_path"] = run.details
    write_json(run.out, report)


def _cmd_eval_gen(run):
    specs = generation_specs(_fp_spec(run))  # a bad --key-table fails before any record
    scored = _join_by_id(run, lambda _, ref, pred: score_generation(
        {**ref, "prediction": pred["prediction"]}, specs))
    _write_report(run, "generation", *eval_generation(scored))


def _class_label(value, n_classes: int | None) -> int:
    """A class label: an int, not a bool, at least 0 and below n_classes."""
    if type(value) is not int or value < 0:
        raise ValueError(f"class label must be an integer >= 0, got {value!r}")
    if n_classes is not None and value >= n_classes:
        raise ValueError(f"class label {value} outside 0..{n_classes - 1}")
    return value


def _regression_value(value) -> float:
    """A regression value: a finite int or float, not a bool."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"regression value must be a finite number, got {value!r}")
    return float(value)


def _cmd_eval_cls(run):
    labeled = _join_by_id(run, lambda _, ref, pred: (
        _class_label(ref["reference"], run.n_classes),
        _class_label(pred["prediction"], run.n_classes)))
    _write_report(run, "classification", *eval_classification(labeled, n_classes=run.n_classes))


def _cmd_eval_reg(run):
    series = _join_by_id(run, lambda _, ref, pred: (
        _regression_value(ref["reference"]), _regression_value(pred["prediction"])))
    _write_report(run, "regression", *eval_regression(series))


def _selection_pair(lineno, ref, pred) -> dict:
    """The eval_selection record of a pair, the reference with the prediction
    added: candidates are a list, and ranks, if given, are one int per candidate."""
    candidates = ref["candidates"]
    if not isinstance(candidates, list):
        raise ValueError(f"candidates must be a list, got {candidates!r}")
    ranks = ref.get("candidate_yield_ranks")
    if ranks is not None:
        if not isinstance(ranks, list) or len(ranks) != len(candidates):
            raise ValueError("candidate_yield_ranks must hold one rank per candidate")
        for rank in ranks:
            if type(rank) is not int:
                raise ValueError(f"candidate_yield_ranks must be integers, got {rank!r}")
    return {**ref, "reference": ref["reference"], "prediction": pred["prediction"]}


def _cmd_eval_sel(run):
    _write_report(run, "selection", *eval_selection(_join_by_id(run, _selection_pair)))


if __name__ == "__main__":
    sys.exit(main())
