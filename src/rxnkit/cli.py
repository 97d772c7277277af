"""Command-line front door wiring the library into JSONL pipelines.

Subcommands: canon, validate, fp, sim, scaffold, split, leakcheck,
corpus interleave, corpus nameconv, render, eval gen|cls|reg|sel, stats.
Inputs and outputs are JSONL (schemas in docs/formats.md); reports are JSON.
Identical inputs and flags produce byte-identical outputs for any worker
count. Per-record failures are collected and reported on stderr unless
--strict makes them fatal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache, partial
from itertools import chain

from ._jsonl import (
    SchemaError,
    dumps,
    iter_jsonl,
    parallel_map,
    read_jsonl,
    write_json,
    write_jsonl,
)
from .corpus import (
    AnnotatedProcedure,
    CorpusStats,
    InterleavedRecord,
    build_interleaved,
    build_name_conversion,
)
from .fingerprint import FingerprintSpec, fingerprint, load_key_table
from .metrics import (
    eval_classification,
    eval_generation,
    eval_regression,
    eval_selection,
)
from .molgraph import canonicalize, parse_smiles, validate
from .scaffold import (
    detect_leakage,
    max_similarity_to_set,
    murcko_scaffold,
    resample_test_set,
)
from .templates import render as render_template


class Fatal(Exception):
    """Unrecoverable CLI failure; carries the exit code and any error rows."""

    def __init__(self, message: str, code: int = 2, errors: list[dict] | None = None) -> None:
        super().__init__(message)
        self.code = code
        self.errors = errors or []


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        errors = args.handler(args)
    except Fatal as exc:
        _write_record_errors(exc.errors)
        sys.stderr.write(dumps({"error": str(exc)}) + "\n")
        return exc.code
    except (OSError, ValueError) as exc:
        sys.stderr.write(dumps({"error": str(exc)}) + "\n")
        return 2
    _write_record_errors(errors)
    return 0


def _write_record_errors(errors: list[dict]) -> None:
    if errors:
        sys.stderr.write(dumps({"record_errors": errors, "count": len(errors)}) + "\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rxnkit",
        description="Molecule, reaction, corpus, and evaluation pipelines.",
    )
    parser.add_argument("--config", help="JSON file with default option values")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, fp: bool = False) -> None:
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes (env RXNKIT_WORKERS, default 1)")
        p.add_argument("--strict", action="store_true",
                       help="fail fast on the first bad record")
        if fp:
            p.add_argument("--fp-kind", choices=["circular", "path", "key"],
                           default=None)
            p.add_argument("--radius", type=int, default=None)
            p.add_argument("--width", type=int, default=None)
            p.add_argument("--min-path", type=int, default=None)
            p.add_argument("--max-path", type=int, default=None)
            p.add_argument("--key-table", default=None)

    p = sub.add_parser("canon", help="canonicalize molecule records")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(handler=_cmd_canon)

    p = sub.add_parser("validate", help="classify SMILES validity")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(handler=_cmd_validate)

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
    p.set_defaults(handler=_cmd_scaffold)

    p = sub.add_parser("split", help="scaffold-similarity test-set resampling")
    p.add_argument("--candidates", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--band", default="0.5:0.6", help="low:high similarity band")
    p.add_argument("--n", type=int, required=True)
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
    p.add_argument("--entity-limit", type=int, default=None)
    p.add_argument("--token-limit", type=int, default=None)
    common(p)
    p.set_defaults(handler=_cmd_interleave)

    p = corpus_sub.add_parser("nameconv", help="expand name-conversion tasks")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(handler=_cmd_nameconv)

    p = sub.add_parser("render", help="render instruction templates")
    p.add_argument("--task", required=True)
    p.add_argument("--in", dest="input", required=True,
                   help="JSONL of binding records (non-id fields bind slots)")
    p.add_argument("--out", default=None)
    p.add_argument("--templates", default=None,
                   help="JSON registry file with extra template variants")
    p.add_argument("--variant", type=int, default=0)
    p.add_argument("--seed", type=int, default=None,
                   help="per-record seeded choice among a task's variants")
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
        if name == "gen":
            common(p, fp=True)
        else:
            common(p)
        if name == "cls":
            p.add_argument("--n-classes", type=int, default=None)
        p.set_defaults(handler=handler)

    p = sub.add_parser("stats", help="corpus filter statistics only")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--entity-limit", type=int, default=None)
    p.add_argument("--token-limit", type=int, default=None)
    common(p)
    p.set_defaults(handler=_cmd_stats)

    return parser


def _apply_config(args: argparse.Namespace) -> None:
    """Fill unset options from --config JSON; explicit flags win.

    Every key must name an option of the subcommand being run.
    """
    if getattr(args, "config", None):
        try:
            config = json.loads(open(args.config, encoding="utf-8").read())
        except (OSError, json.JSONDecodeError) as exc:
            raise Fatal(f"cannot read config {args.config}: {exc}")
        if not isinstance(config, dict):
            raise Fatal(f"config {args.config} is not a JSON object")
        for key, value in config.items():
            attr = key.replace("-", "_")
            if not hasattr(args, attr):
                raise Fatal(f"config {args.config}: {key!r} is not an option of {args.command}")
            if getattr(args, attr) is None:
                setattr(args, attr, value)
    if getattr(args, "workers", None) is None:
        args.workers = int(os.environ.get("RXNKIT_WORKERS", "1"))


def _fp_spec(args: argparse.Namespace, kind: str | None = None) -> FingerprintSpec:
    """The fingerprint options given; an option left unset keeps its default.

    A key table file is read here, once per run, so that a table that cannot
    be read or parsed fails the run instead of every record.
    """
    kind = kind or getattr(args, "fp_kind", None) or "circular"
    options = {
        name: getattr(args, name, None)
        for name in ("radius", "width", "min_path", "max_path", "key_table")
    }
    if kind == "key" and options["key_table"] is not None:
        try:
            options["key_table"] = load_key_table(options["key_table"])
        except (OSError, ValueError) as exc:
            raise Fatal(f"cannot load key table: {exc}")
    return FingerprintSpec(kind=kind, **{k: v for k, v in options.items() if v is not None})


def _parse_band(text: str) -> tuple[float, float]:
    try:
        low_s, high_s = text.split(":")
        low, high = float(low_s), float(high_s)
    except ValueError:
        raise Fatal(f"--band must look like 0.5:0.6, got {text!r}")
    if low > high:
        raise Fatal(f"--band low must be <= high, got {text!r}")
    return low, high


# --- the record driver ------------------------------------------------------

def _load_records(path: str, errors: list[dict], strict: bool) -> list[tuple[int, dict]]:
    items = []
    for lineno, record in iter_jsonl(path):
        if isinstance(record, SchemaError):
            if strict:
                raise Fatal(str(record), code=1)
            errors.append({"line": record.lineno, "error": record.message})
            continue
        items.append((lineno, record))
    return items


def _guarded(fn, item: tuple[int, dict]) -> tuple[dict | None, object]:
    """(None, fn(lineno, record)), or (error row, None) when fn raises."""
    lineno, record = item
    try:
        return None, fn(lineno, record)
    except Exception as exc:
        return {"line": lineno, "id": record.get("id"), "error": str(exc)}, None


def _collect(guarded_results, errors: list[dict], strict: bool):
    """Yield the results; error rows go to errors, or end the run under --strict."""
    for error, result in guarded_results:
        if error is None:
            yield result
        elif strict:
            raise Fatal(dumps(error), code=1)
        else:
            errors.append(error)


def _map_records(args, path: str, fn, errors: list[dict]):
    """fn(lineno, record) over the records of path, in input order.

    The file is read before the first result is asked for, so under --strict
    a malformed line fails the run before any output file is opened.
    """
    items = _load_records(path, errors, args.strict)
    return _collect(parallel_map(partial(_guarded, fn), items, args.workers),
                    errors, args.strict)


def _run_records(args, fn) -> list[dict]:
    """Write the rows fn returns for each input record; return the error rows."""
    errors: list[dict] = []
    write_jsonl(args.out, chain.from_iterable(_map_records(args, args.input, fn, errors)))
    return errors


# --- per-record functions (module level so process pools can pickle them) ---

def _canon(lineno, record):
    return [{"id": record.get("id"), "smiles": canonicalize(record["smiles"])}]


def _validate(lineno, record):
    verdict = validate(record["smiles"])
    return [{"id": record.get("id"), "status": verdict.status, "detail": verdict.detail}]


def _fingerprint(lineno, record, spec: FingerprintSpec):
    return fingerprint(parse_smiles(record["smiles"]), spec)


def _fp(lineno, record, spec: FingerprintSpec):
    return [{"id": record.get("id"), "fp": _fingerprint(lineno, record, spec).serialize()}]


def _sim(lineno, record, spec: FingerprintSpec, ref_fps: list):
    best = max_similarity_to_set(_fingerprint(lineno, record, spec), ref_fps)
    return [{"id": record.get("id"), "max_similarity": best}]


def _scaffold(lineno, record):
    return [{"id": record.get("id"), "scaffold": murcko_scaffold(parse_smiles(record["smiles"]))}]


def _interleave(lineno, record, entity_limit: int, token_limit: int):
    return build_interleaved(AnnotatedProcedure.from_dict(record), entity_limit, token_limit)


def _nameconv(lineno, record):
    return [r.to_dict() for r in build_name_conversion(record)]


@lru_cache(maxsize=4)
def _render_registry(templates_path: str | None):
    if not templates_path:
        return None  # the builtin registry
    from .templates import TemplateRegistry, builtin_registry

    registry = TemplateRegistry()
    for task in builtin_registry().tasks:
        registry.register(builtin_registry().get(task))
    registry.load_file(templates_path)
    return registry


def _render(lineno, record, task, variant, seed, sentinel, templates_path):
    bindings = {k: v for k, v in record.items() if k != "id"}
    # Seeded per-record choice stays worker-count independent: the draw
    # depends only on the seed and the record's input line.
    record_seed = None if seed is None else f"{seed}:{lineno}"
    rendered = render_template(
        task, bindings, registry=_render_registry(templates_path),
        variant=variant, seed=record_seed, sentinel_molecules=sentinel,
    )
    return [{"id": record.get("id"), **rendered}]


# --- subcommand handlers ----------------------------------------------------

def _cmd_canon(args):
    return _run_records(args, _canon)


def _cmd_validate(args):
    return _run_records(args, _validate)


def _cmd_fp(args):
    return _run_records(args, partial(_fp, spec=_fp_spec(args)))


def _cmd_sim(args):
    spec = _fp_spec(args)
    errors: list[dict] = []
    ref_fps = list(_map_records(args, args.ref, partial(_fingerprint, spec=spec), errors))
    return errors + _run_records(args, partial(_sim, spec=spec, ref_fps=ref_fps))


def _cmd_scaffold(args):
    return _run_records(args, _scaffold)


def _cmd_split(args):
    candidates = read_jsonl(args.candidates)
    train = read_jsonl(args.train)
    report = resample_test_set(
        candidates, train, band=_parse_band(args.band), n=args.n,
        fp_spec=_fp_spec(args), workers=args.workers,
    )
    write_json(args.out, report.to_dict())
    return []


def _cmd_leakcheck(args):
    splits = {}
    for spec in args.split:
        name, _, path = spec.partition("=")
        if not path:
            raise Fatal(f"--split must be NAME=PATH, got {spec!r}")
        splits[name] = read_jsonl(path)
    report = detect_leakage(splits, merge_agents=args.merge_agents)
    write_json(args.out, report.to_dict())
    return []


def _corpus_outcomes(args, errors: list[dict], stats: CorpusStats):
    """Interleave outcomes of the input procedures, each observed by stats."""
    worker = partial(
        _interleave,
        entity_limit=20 if args.entity_limit is None else args.entity_limit,
        token_limit=1024 if args.token_limit is None else args.token_limit,
    )
    outcomes = _map_records(args, args.input, worker, errors)

    def observed():
        for outcome in outcomes:
            stats.observe(outcome)
            yield outcome

    return observed()


def _cmd_interleave(args):
    errors: list[dict] = []
    stats = CorpusStats()
    outcomes = _corpus_outcomes(args, errors, stats)
    write_jsonl(args.out, (o.to_dict() for o in outcomes if isinstance(o, InterleavedRecord)))
    if args.stats:
        write_json(args.stats, stats.to_dict())
    return errors


def _cmd_stats(args):
    errors: list[dict] = []
    stats = CorpusStats()
    for _ in _corpus_outcomes(args, errors, stats):
        pass
    write_json(args.out, stats.to_dict())
    return errors


def _cmd_nameconv(args):
    return _run_records(args, _nameconv)


def _cmd_render(args):
    return _run_records(args, partial(
        _render, task=args.task, variant=args.variant, seed=args.seed,
        sentinel=args.sentinel, templates_path=args.templates,
    ))


def _join_by_id(args, row) -> tuple[list, list[dict]]:
    """row(reference, prediction) for each reference, in reference order.

    Predictions pair with references by id. A reference without a
    prediction, or a pair whose row cannot be built, is an error row. When
    no row is left the run fails, and its error rows are still reported.
    """
    errors: list[dict] = []
    preds = {str(p.get("id")): p for _, p in _load_records(args.pred, errors, args.strict)}

    def pair(lineno, ref):
        pred = preds.get(str(ref.get("id")))
        if pred is None:
            raise LookupError("no prediction")
        return row(ref, pred)

    refs = _load_records(args.ref, errors, args.strict)
    rows = list(_collect(map(partial(_guarded, pair), refs), errors, args.strict))
    if not rows:
        raise Fatal(f"no pair left to score ({len(errors)} error rows)", errors=errors)
    return rows, errors


def _write_report(args, report) -> None:
    payload = report.to_dict(include_details=False)
    if args.details:
        write_jsonl(args.details, report.details)
        payload["details_path"] = args.details
    write_json(args.out, payload)


def _cmd_eval_gen(args):
    records, errors = _join_by_id(args, lambda ref, pred: {
        "id": ref.get("id"), "prediction": pred["prediction"], "reference": ref["reference"],
    })
    fp_specs = {kind: _fp_spec(args, kind) for kind in ("circular", "path")}
    report = eval_generation(records, fp_specs=fp_specs)
    _write_report(args, report)
    return errors + report.errors


def _cmd_eval_cls(args):
    labeled, errors = _join_by_id(
        args, lambda ref, pred: (int(ref["reference"]), int(pred["prediction"])))
    _write_report(args, eval_classification(labeled, n_classes=args.n_classes))
    return errors


def _cmd_eval_reg(args):
    series, errors = _join_by_id(
        args, lambda ref, pred: (float(ref["reference"]), float(pred["prediction"])))
    _write_report(args, eval_regression(series))
    return errors


def _selection_pair(ref, pred) -> dict:
    """The eval_selection record of a pair; ranks, if given, are one int per candidate."""
    candidates = list(ref["candidates"])
    ranks = ref.get("candidate_yield_ranks")
    if ranks is not None:
        if not isinstance(ranks, list) or len(ranks) != len(candidates):
            raise ValueError("candidate_yield_ranks must hold one rank per candidate")
        for rank in ranks:
            if type(rank) is not int:
                raise ValueError(f"candidate_yield_ranks must be integers, got {rank!r}")
    return {
        "id": ref.get("id"),
        "gold_item": ref["reference"],
        "predicted_item": pred["prediction"],
        "candidates": candidates,
        "candidate_yield_ranks": ranks,
    }


def _cmd_eval_sel(args):
    records, errors = _join_by_id(args, _selection_pair)
    _write_report(args, eval_selection(records))
    return errors


if __name__ == "__main__":
    sys.exit(main())
