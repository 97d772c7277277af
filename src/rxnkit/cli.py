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
from .fingerprint import FingerprintSpec, fingerprint, load_key_table, tanimoto
from .metrics import (
    eval_classification,
    eval_generation,
    eval_regression,
    eval_selection,
)
from .molgraph import canonicalize, parse_smiles, validate
from .scaffold import detect_leakage, murcko_scaffold, resample_test_set
from .templates import render as render_template


class Fatal(Exception):
    """Unrecoverable CLI failure; carries the exit code."""

    def __init__(self, message: str, code: int = 2) -> None:
        super().__init__(message)
        self.code = code


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _apply_config(args)
    try:
        errors = args.handler(args)
    except Fatal as exc:
        sys.stderr.write(dumps({"error": str(exc)}) + "\n")
        return exc.code
    except (OSError, ValueError) as exc:
        sys.stderr.write(dumps({"error": str(exc)}) + "\n")
        return 2
    if errors:
        sys.stderr.write(
            dumps({"record_errors": errors, "count": len(errors)}) + "\n"
        )
    return 0


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
    """Fill unset options from --config JSON; explicit flags win."""
    if getattr(args, "config", None):
        try:
            config = json.loads(open(args.config, encoding="utf-8").read())
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(f"cannot read config {args.config}: {exc}")
        for key, value in config.items():
            attr = key.replace("-", "_")
            if getattr(args, attr, None) is None:
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


def _run_records(args, worker, out_path: str | None) -> list[dict]:
    """Shared per-record pipeline: read, map (maybe parallel), write."""
    errors: list[dict] = []
    items = _load_records(args.input, errors, args.strict)

    def emit():
        for result in parallel_map(worker, items, args.workers):
            if result.get("ok"):
                yield result["out"]
            else:
                if args.strict:
                    raise Fatal(dumps(result["error"]), code=1)
                errors.append(result["error"])

    write_jsonl(out_path, emit())
    return errors


def _record_error(lineno: int, record: dict, exc: Exception) -> dict:
    return {
        "ok": False,
        "error": {"line": lineno, "id": record.get("id"), "error": str(exc)},
    }


# --- per-record workers (module level so process pools can pickle them) ----

def _w_canon(item):
    lineno, record = item
    try:
        out = {"id": record.get("id"), "smiles": canonicalize(record["smiles"])}
    except (KeyError, ValueError) as exc:
        return _record_error(lineno, record, exc)
    return {"ok": True, "out": out}


def _w_validate(item):
    lineno, record = item
    try:
        verdict = validate(record["smiles"])
    except KeyError as exc:
        return _record_error(lineno, record, exc)
    return {
        "ok": True,
        "out": {
            "id": record.get("id"),
            "status": verdict.status,
            "detail": verdict.detail,
        },
    }


def _w_fp(item, spec: FingerprintSpec):
    lineno, record = item
    try:
        fp = fingerprint(parse_smiles(record["smiles"]), spec)
    except (KeyError, ValueError) as exc:
        return _record_error(lineno, record, exc)
    return {"ok": True, "out": {"id": record.get("id"), "fp": fp.serialize()}}


def _w_sim(item, spec: FingerprintSpec, ref_fps: list):
    lineno, record = item
    try:
        fp = fingerprint(parse_smiles(record["smiles"]), spec)
        best = 0.0
        for ref in ref_fps:
            t = tanimoto(fp, ref)
            if t > best:
                best = t
    except (KeyError, ValueError) as exc:
        return _record_error(lineno, record, exc)
    return {"ok": True, "out": {"id": record.get("id"), "max_similarity": best}}


def _w_scaffold(item):
    lineno, record = item
    try:
        key = murcko_scaffold(parse_smiles(record["smiles"]))
    except (KeyError, ValueError) as exc:
        return _record_error(lineno, record, exc)
    return {"ok": True, "out": {"id": record.get("id"), "scaffold": key}}


def _w_interleave(item, entity_limit: int, token_limit: int):
    lineno, record = item
    try:
        proc = AnnotatedProcedure.from_dict(record)
        outcome = build_interleaved(proc, entity_limit, token_limit)
    except (KeyError, ValueError) as exc:
        return _record_error(lineno, record, exc)
    return {"ok": True, "outcome": outcome}


def _w_nameconv(item):
    lineno, record = item
    try:
        records = [r.to_dict() for r in build_name_conversion(record)]
    except (KeyError, ValueError) as exc:
        return _record_error(lineno, record, exc)
    return {"ok": True, "records": records}


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


def _w_render(item, task, variant, seed, sentinel, templates_path):
    lineno, record = item
    bindings = {k: v for k, v in record.items() if k != "id"}
    # Seeded per-record choice stays worker-count independent: the draw
    # depends only on the seed and the record's input line.
    record_seed = None if seed is None else f"{seed}:{lineno}"
    try:
        rendered = render_template(
            task, bindings, registry=_render_registry(templates_path),
            variant=variant, seed=record_seed, sentinel_molecules=sentinel,
        )
    except ValueError as exc:
        return _record_error(lineno, record, exc)
    out = {"id": record.get("id"), **rendered}
    return {"ok": True, "out": out}


# --- subcommand handlers ----------------------------------------------------

def _cmd_canon(args):
    return _run_records(args, _w_canon, args.out)


def _cmd_validate(args):
    return _run_records(args, _w_validate, args.out)


def _cmd_fp(args):
    return _run_records(args, partial(_w_fp, spec=_fp_spec(args)), args.out)


def _cmd_sim(args):
    spec = _fp_spec(args)
    errors: list[dict] = []
    ref_fps = []
    for lineno, record in _load_records(args.ref, errors, args.strict):
        try:
            ref_fps.append(fingerprint(parse_smiles(record["smiles"]), spec))
        except (KeyError, ValueError) as exc:
            err = _record_error(lineno, record, exc)["error"]
            if args.strict:
                raise Fatal(dumps(err), code=1)
            errors.append(err)
    worker = partial(_w_sim, spec=spec, ref_fps=ref_fps)
    return errors + _run_records(args, worker, args.out)


def _cmd_scaffold(args):
    return _run_records(args, _w_scaffold, args.out)


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


def _cmd_interleave(args):
    entity_limit = args.entity_limit if args.entity_limit is not None else 20
    token_limit = args.token_limit if args.token_limit is not None else 1024
    errors: list[dict] = []
    items = _load_records(args.input, errors, args.strict)
    worker = partial(_w_interleave, entity_limit=entity_limit, token_limit=token_limit)
    stats = CorpusStats()

    def emit():
        for result in parallel_map(worker, items, args.workers):
            if not result.get("ok"):
                if args.strict:
                    raise Fatal(dumps(result["error"]), code=1)
                errors.append(result["error"])
                continue
            outcome = result["outcome"]
            stats.observe(outcome)
            if isinstance(outcome, InterleavedRecord):
                yield outcome.to_dict()

    write_jsonl(args.out, emit())
    if args.stats:
        write_json(args.stats, stats.to_dict())
    return errors


def _cmd_nameconv(args):
    errors: list[dict] = []
    items = _load_records(args.input, errors, args.strict)

    def emit():
        for result in parallel_map(_w_nameconv, items, args.workers):
            if result.get("ok"):
                yield from result["records"]
            else:
                if args.strict:
                    raise Fatal(dumps(result["error"]), code=1)
                errors.append(result["error"])

    write_jsonl(args.out, emit())
    return errors


def _cmd_render(args):
    worker = partial(
        _w_render, task=args.task, variant=args.variant, seed=args.seed,
        sentinel=args.sentinel, templates_path=args.templates,
    )
    return _run_records(args, worker, args.out)


def _join_by_id(pred_path: str, ref_path: str) -> tuple[list[tuple[dict, dict]], list[dict]]:
    """Pair reference records with predictions by id, in reference order."""
    errors: list[dict] = []
    preds: dict[str, dict] = {}
    for lineno, record in iter_jsonl(pred_path):
        if isinstance(record, SchemaError):
            errors.append({"line": record.lineno, "error": record.message})
            continue
        preds[str(record.get("id"))] = record
    pairs = []
    for lineno, record in iter_jsonl(ref_path):
        if isinstance(record, SchemaError):
            errors.append({"line": record.lineno, "error": record.message})
            continue
        rid = str(record.get("id"))
        if rid not in preds:
            errors.append({"line": lineno, "id": rid, "error": "no prediction"})
            continue
        pairs.append((record, preds[rid]))
    return pairs, errors


def _write_report(args, report) -> None:
    payload = report.to_dict(include_details=False)
    if args.details:
        write_jsonl(args.details, report.details)
        payload["details_path"] = args.details
    write_json(args.out, payload)


def _cmd_eval_gen(args):
    pairs, errors = _join_by_id(args.pred, args.ref)
    records = [
        {"id": ref.get("id"), "prediction": pred.get("prediction", ""),
         "reference": ref["reference"]}
        for ref, pred in pairs
    ]
    fp_specs = {kind: _fp_spec(args, kind) for kind in ("circular", "path")}
    report = eval_generation(records, fp_specs=fp_specs)
    _write_report(args, report)
    return errors + report.errors


def _cmd_eval_cls(args):
    pairs, errors = _join_by_id(args.pred, args.ref)
    labeled = [
        (int(ref["reference"]), int(pred["prediction"])) for ref, pred in pairs
    ]
    report = eval_classification(labeled, n_classes=args.n_classes)
    _write_report(args, report)
    return errors


def _cmd_eval_reg(args):
    pairs, errors = _join_by_id(args.pred, args.ref)
    series = [
        (float(ref["reference"]), float(pred["prediction"])) for ref, pred in pairs
    ]
    report = eval_regression(series)
    _write_report(args, report)
    return errors


def _cmd_eval_sel(args):
    pairs, errors = _join_by_id(args.pred, args.ref)
    records = [
        {
            "id": ref.get("id"),
            "gold_item": ref["reference"],
            "predicted_item": pred.get("prediction"),
            "candidates": ref["candidates"],
            "candidate_yield_ranks": ref.get("candidate_yield_ranks"),
        }
        for ref, pred in pairs
    ]
    report = eval_selection(records)
    _write_report(args, report)
    return errors


def _cmd_stats(args):
    entity_limit = args.entity_limit if args.entity_limit is not None else 20
    token_limit = args.token_limit if args.token_limit is not None else 1024
    errors: list[dict] = []
    items = _load_records(args.input, errors, args.strict)
    stats = CorpusStats()
    worker = partial(_w_interleave, entity_limit=entity_limit, token_limit=token_limit)
    for result in parallel_map(worker, items, args.workers):
        if not result.get("ok"):
            if args.strict:
                raise Fatal(dumps(result["error"]), code=1)
            errors.append(result["error"])
            continue
        stats.observe(result["outcome"])
    write_json(args.out, stats.to_dict())
    return errors


if __name__ == "__main__":
    sys.exit(main())
