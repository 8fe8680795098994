"""Command-line pipeline: ingest, link, resolve, score, stratify, report, record.

Flags are long-form; an optional config file supplies key=value defaults
mirroring the flags, and explicit flags win.  Credentials travel only
through the environment variable named by --api-key-env, never flags.
Exit codes: 0 all artifacts written, 1 partial linking failures (artifacts
still flushed), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import json
import math
import sys
from functools import partial
from typing import Dict, List, Mapping, Optional, Sequence, Set, Union

# Every command reads its inputs through this module, so it is no extra cost.
from .records import not_utf8, read_records

# The names the commands use from each module.  Every import compiles its
# module from source when there is no bytecode cache, so a command imports
# only the modules it runs (see _bind) and start-up pays for nothing else.
_NAMES = {
    "backends": ("BackendConfig", "BackendError", "batch_complete", "fixture_entry"),
    "baseline": ("RESOLUTION_NOT_FOUND", "RESOLUTION_TITLE", "load_external_predictions"),
    "benchmark": ("benchmark_stats", "load_benchmark", "save_benchmark"),
    "kb": ("load_mapping", "title_to_qid"),
    "manifest": ("build_run_manifest", "write_manifest"),
    "parsing": ("STATUS_UNPARSEABLE", "PredictedLink", "PredictionRecord", "load_predictions",
                "parse_predictions", "save_predictions"),
    "popularity": ("DEFAULT_THETAS", "STRATIFY_CSV_FIELDS", "load_counts", "stratify",
                   "stratify_csv_rows"),
    "prompting": ("build_prompt", "load_template"),
    "scoring": ("CSV_FIELDS", "MatchConfig", "build_report", "csv_fields", "report_to_dict",
                "score"),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}


def _bind(*modules: str) -> None:
    """Import modules and bind their _NAMES as globals of this module.

    The commands call those names through these globals, so a name already
    bound, such as a replacement set on this module from outside, is kept.
    """
    for module in modules:
        loaded = importlib.import_module(f".{module}", __package__)
        for name in _NAMES[module]:
            globals().setdefault(name, getattr(loaded, name))


def __getattr__(name: str):
    """Any name of _NAMES reads as an attribute before a command binds it."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_MODULE_OF[name])
    return globals()[name]


# scoring.NIL_POLICIES, spelt out so that building the parser imports no
# elbench module.
_NIL_POLICIES = ("exclude-gold-and-ignore-matching-preds", "exclude-gold-only")

# The words a config file may give a store_true flag.
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def load_config(path: str, actions: Mapping[str, argparse.Action]) -> Dict[str, object]:
    """key=value per line; blank lines and # comments ignored.

    Every key must name a flag of actions, and name it once, so a misspelt
    or repeated option fails instead of silently leaving another value in
    force.  Each value is converted as its flag's would be (see _convert);
    errors name the line.
    """
    values: Dict[str, object] = {}
    first_line: Dict[str, int] = {}
    # Lines end at "\n" alone, as in records.read_records: a lone "\r" stays
    # inside its line.
    with open(path, "r", encoding="utf-8", newline="\n") as handle:
        try:
            lines = handle.readlines()
        except UnicodeDecodeError:
            raise not_utf8(path) from None
    for lineno, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in actions:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}; "
                             f"expected one of {', '.join(sorted(actions))}")
        if key in first_line:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r} "
                             f"(first set on line {first_line[key]})")
        first_line[key] = lineno
        try:
            values[key] = _convert(actions[key], value.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return values


def _convert(action: argparse.Action, raw: str) -> object:
    """A config value as its flag's action turns it into an option value:
    through its type and checked against its choices.  A store_true flag
    takes one of _BOOLEANS, and an nargs="+" value is split on whitespace."""
    if action.nargs == 0:
        if raw.lower() not in _BOOLEANS:
            raise ValueError(f"expected one of {'/'.join(_BOOLEANS)}, got {raw!r}")
        return _BOOLEANS[raw.lower()]
    items = raw.split() if action.nargs == "+" else [raw]
    if not items:
        raise ValueError("expected at least one value")
    try:
        values = [action.type(item) if action.type else item for item in items]
    except ValueError:
        raise ValueError(f"invalid {action.type.__name__} value: {raw!r}") from None
    for value in values:
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"invalid choice: {value!r} "
                             f"(choose from {', '.join(map(repr, action.choices))})")
    return values if action.nargs == "+" else values[0]


def _require(args: argparse.Namespace, *flags: str) -> None:
    """Fail on the first of flags that no flag or config file has set."""
    for flag in flags:
        if getattr(args, flag.replace("-", "_")) is None:
            raise ValueError(f"missing required option --{flag}")


def cmd_ingest(args: argparse.Namespace) -> int:
    _bind("benchmark")
    _require(args, "input")
    benchmark = load_benchmark(args.input, args.format, name=args.name)
    stats = benchmark_stats(benchmark)
    for name in ("sentences", "tokens", "unique_qids", "types", "nil_mentions", "total_mentions"):
        print(f"{name}: {getattr(stats, name)}")
    if args.out:
        save_benchmark(benchmark, args.out, args.out_format)
        print(f"wrote {args.out}")
    return 0


def cmd_link(args: argparse.Namespace) -> int:
    from dataclasses import fields
    _bind("benchmark", "prompting", "backends", "parsing", "manifest")
    _require(args, "benchmark", "out", "backend")
    benchmark = load_benchmark(args.benchmark, args.format)
    template = load_template(args.template)
    # The flags whose dest names a BackendConfig field set it; one left
    # unset keeps the field's default.
    cfg = BackendConfig(kind=args.backend, **{
        field.name: getattr(args, field.name) for field in fields(BackendConfig)
        if getattr(args, field.name, None) is not None})
    prompts = [build_prompt(template, sentence.text) for sentence in benchmark.sentences]
    results = batch_complete(cfg, prompts)
    records: List[PredictionRecord] = []
    status_counts: Dict[str, int] = {}
    failures: List[str] = []
    for sentence, result in zip(benchmark.sentences, results):
        if isinstance(result, BackendError):
            records.append(PredictionRecord(sentence_id=sentence.sentence_id, links=(),
                                            status=STATUS_UNPARSEABLE, error=result.code))
            failures.append(f"{sentence.sentence_id}: [{result.code}] {result}")
            status_counts["failed"] = status_counts.get("failed", 0) + 1
            continue
        outcome = parse_predictions(result.raw_text)
        records.append(PredictionRecord(sentence_id=sentence.sentence_id,
                                        links=outcome.links, status=outcome.status))
        status_counts[outcome.status] = status_counts.get(outcome.status, 0) + 1
    save_predictions(records, args.out)
    inputs = {"benchmark": args.benchmark}
    if cfg.kind == "replay":
        inputs["fixture"] = cfg.fixture_path
    manifest = build_run_manifest(inputs, template_text=template.text,
                                  template_version=template.version, backend_config=cfg,
                                  backend_model=_answering_models(results))
    write_manifest(manifest, args.out + ".manifest.json")
    summary = ", ".join(f"{count} {name}" for name, count in sorted(status_counts.items()))
    print(f"linked {len(records)} sentence(s): {summary or 'nothing to do'}")
    print(f"wrote {args.out}")
    if failures:
        print(f"{len(failures)} sentence(s) failed:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


def _answering_models(results: Sequence[object]) -> Union[str, List[str]]:
    """The model that gave the answers, live or from the fixture: its ID, or
    the sorted distinct IDs when several did ("" when none is known)."""
    ids = set()
    for result in results:
        if not isinstance(result, BackendError):
            model = result.backend_meta.get("model_id")
            if isinstance(model, str) and model:
                ids.add(model)
    ordered = sorted(ids)
    return ordered[0] if len(ordered) == 1 else ordered or ""


def _gold_qids(benchmark: Benchmark) -> Set[str]:
    return {m.qid for sentence in benchmark.sentences for m in sentence.mentions if not m.is_nil}


def _titles(records: Sequence[PredictionRecord]) -> Set[str]:
    """The distinct non-blank raw titles of the records' links."""
    return {link.title for record in records for link in record.links
            if link.title is not None and link.title.strip()}


def cmd_resolve(args: argparse.Namespace) -> int:
    _bind("parsing", "kb", "baseline", "manifest")
    _require(args, "kb", "out")
    kb_path, out, external, predictions = args.kb, args.out, args.external, args.predictions
    if bool(external) == bool(predictions):
        raise ValueError("exactly one of --external and --predictions is required")
    if external:
        records, tally = load_external_predictions(external, partial(load_mapping, kb_path))
        source = external
    else:
        tally = {RESOLUTION_TITLE: 0, RESOLUTION_NOT_FOUND: 0}
        records = []
        loaded = load_predictions(predictions)
        # Each distinct raw title is resolved, and so normalized, only once.
        titles = _titles(loaded)
        kb = load_mapping(kb_path, titles=titles)
        qids = {title: title_to_qid(kb, title) for title in titles}
        for record in loaded:
            links = []
            for link in record.links:
                qid = qids.get(link.title)
                resolution = RESOLUTION_TITLE if qid is not None else RESOLUTION_NOT_FOUND
                tally[resolution] += 1
                links.append(PredictedLink(link.surface, link.title, link.origin, qid, resolution))
            records.append(PredictionRecord(record.sentence_id, tuple(links), record.status,
                                            record.error))
        source = predictions
    save_predictions(records, out)
    manifest = build_run_manifest({"predictions": source, "kb": kb_path})
    write_manifest(manifest, out + ".manifest.json")
    total = sum(tally.values())
    detail = ", ".join(f"{count} {name}" for name, count in sorted(tally.items()))
    print(f"resolved {total} link(s): {detail}")
    print(f"wrote {out}")
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    _bind("benchmark", "parsing", "kb", "scoring", "manifest")
    _require(args, "benchmark", "predictions", "out")
    out, mode, kb_path = args.out, args.mode, args.kb
    benchmark = load_benchmark(args.benchmark, args.format)
    preds = load_predictions(args.predictions)
    kb = load_mapping(kb_path, qids=_gold_qids(benchmark)) if kb_path else None
    cfg = MatchConfig(mode=mode, nil_policy=args.nil_policy)
    report = score(benchmark, preds, cfg, kb, system_id=args.system,
                   keep_per_sentence=args.per_sentence)
    inputs = {"benchmark": args.benchmark, "predictions": args.predictions}
    if kb_path:
        inputs["kb"] = kb_path
    manifest = build_run_manifest(inputs, params={"mode": mode, "nil_policy": cfg.nil_policy})
    artifact = {"mode": mode, "nil_policy": cfg.nil_policy, **report_to_dict(report),
                "manifest": manifest}
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, ensure_ascii=False, indent=2)
        handle.write("\n")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(CSV_FIELDS)
            writer.writerow(csv_fields(report))
    print(f"{report.system_id}: P={report.precision_pct()} R={report.recall_pct()} "
          f"F1={report.f1_pct()} (tp={report.tp} fp={report.fp} fn={report.fn})")
    print(f"wrote {out}")
    return 0


def cmd_stratify(args: argparse.Namespace) -> int:
    _bind("benchmark", "parsing", "kb", "scoring", "popularity", "manifest")
    _require(args, "benchmark", "predictions", "counts", "out")
    out, mode, kb_path, system_id = args.out, args.mode, args.kb, args.system
    benchmark = load_benchmark(args.benchmark, args.format)
    preds = load_predictions(args.predictions)
    pop = load_counts(args.counts)
    kb = (load_mapping(kb_path, titles=_titles(preds), qids=_gold_qids(benchmark))
          if kb_path else None)
    cfg = MatchConfig(mode=mode, nil_policy=args.nil_policy)
    thetas = ([token for token in args.thetas.split(",") if token.strip()]
              if args.thetas else DEFAULT_THETAS)
    strict = not args.lenient
    slices = stratify(benchmark, preds, cfg, kb, pop, thetas, strict=strict, system_id=system_id)
    rows = stratify_csv_rows(slices)
    with open(out, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(STRATIFY_CSV_FIELDS)
        writer.writerows(rows)
    inputs = {"benchmark": args.benchmark, "predictions": args.predictions, "counts": args.counts}
    if kb_path:
        inputs["kb"] = kb_path
    theta_param = ",".join(row[1] for row in rows)
    manifest = build_run_manifest(inputs, params={"mode": mode, "nil_policy": cfg.nil_policy,
                                                  "thetas": theta_param, "strict": strict})
    write_manifest(manifest, out + ".manifest.json")
    if args.json:
        payload = {"system": system_id, "mode": mode, "nil_policy": cfg.nil_policy,
                   "slices": [{"theta": "inf" if math.isinf(item.theta) else int(item.theta),
                               **report_to_dict(item.report)} for item in slices],
                   "manifest": manifest}
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, ensure_ascii=False, indent=2)
            handle.write("\n")
    print(f"wrote {out} ({len(slices)} slice(s))")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    _bind("scoring", "manifest")
    _require(args, "inputs", "out")
    input_paths, out = args.inputs, args.out
    reports = []
    modes = set()
    for path in input_paths:
        with open(path, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: invalid JSON: {exc}") from None
            except UnicodeDecodeError:
                raise not_utf8(path) from None
        if not isinstance(data, dict):
            raise ValueError(f"{path}: a score report must be a JSON object")
        for field in ("system", "tp", "fp", "fn"):
            if field not in data:
                raise ValueError(f"{path}: missing field {field!r}")
        if not isinstance(data["system"], str):
            raise ValueError(f"{path}: system must be a string, got {data['system']!r}")
        for field in ("tp", "fp", "fn"):
            # type(), not isinstance(): JSON true/false are ints to isinstance.
            if type(data[field]) is not int or data[field] < 0:
                raise ValueError(f"{path}: {field} must be a nonnegative integer, "
                                 f"got {data[field]!r}")
        modes.add(data.get("mode", ""))
        reports.append(build_report(data["system"], "all", data["tp"], data["fp"], data["fn"], {}))
    if len(modes) > 1 and not args.force:
        raise ValueError(f"refusing to merge reports with mixed match modes {sorted(modes)}; "
                         "pass --force to override")
    entries = sorted(((r.system_id, r.precision_pct(), r.recall_pct(), r.f1_pct())
                      for r in reports), key=lambda entry: (-entry[3], entry[0]))
    with open(out, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("system", "precision", "recall", "f1"))
        for system, p, r, f in entries:
            writer.writerow((system, str(p), str(r), str(f)))
    manifest = build_run_manifest({f"report{i}": path for i, path in enumerate(input_paths)})
    write_manifest(manifest, out + ".manifest.json")
    width = max(len(entry[0]) for entry in entries)
    for system, p, r, f in entries:
        print(f"{system:<{width}}  P={p} R={r} F1={f}")
    print(f"wrote {out}")
    return 0


def cmd_record(args: argparse.Namespace) -> int:
    _bind("benchmark", "prompting", "backends")
    _require(args, "benchmark", "completions", "out")
    out, default_model = args.out, args.model
    benchmark = load_benchmark(args.benchmark, args.format)
    template = load_template(args.template)
    known = {sentence.sentence_id for sentence in benchmark.sentences}
    rows: Dict[str, Dict[str, str]] = {}

    def check(entry: Dict[str, object], lineno: int, errors: List[str]) -> None:
        sentence_id = entry.get("sentence_id")
        raw_text = entry.get("raw_text")
        if not isinstance(sentence_id, str) or not sentence_id:
            errors.append(f"line {lineno}: sentence_id must be a non-empty string")
        elif not isinstance(raw_text, str):
            errors.append(f"line {lineno}: raw_text must be a string")
        elif sentence_id not in known:
            errors.append(f"line {lineno}: unknown sentence_id {sentence_id!r}")
        elif sentence_id in rows:
            errors.append(f"line {lineno}: duplicate sentence_id {sentence_id!r}")
        else:
            model_id = entry.get("model_id", default_model)
            if not isinstance(model_id, str):
                errors.append(f"line {lineno}: model_id must be a string")
            # Kept even then, so a later line for the sentence reads as a duplicate.
            rows[sentence_id] = {"raw_text": raw_text, "model_id": model_id}

    read_records(args.completions, check)
    written = 0
    skipped = 0
    with open(out, "w", encoding="utf-8") as handle:
        for sentence in benchmark.sentences:
            entry = rows.get(sentence.sentence_id)
            if entry is None:
                skipped += 1
                continue
            prompt = build_prompt(template, sentence.text)
            handle.write(fixture_entry(prompt, entry["raw_text"], entry["model_id"]))
            written += 1
    note = f", {skipped} sentence(s) had no completion" if skipped else ""
    print(f"recorded {written} completion(s){note}")
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="elbench",
                                     description="Entity linking benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="validate a benchmark, print stats, optionally convert")
    ingest.add_argument("--input")
    ingest.add_argument("--format", choices=("jsonl", "tsv"), default="jsonl")
    ingest.add_argument("--name")
    ingest.add_argument("--out")
    ingest.add_argument("--out-format", choices=("jsonl", "tsv"), default="jsonl")
    ingest.add_argument("--config")
    ingest.set_defaults(func=cmd_ingest)

    link = sub.add_parser("link", help="prompt a backend over every sentence")
    link.add_argument("--benchmark")
    link.add_argument("--format", choices=("jsonl", "tsv"), default="jsonl")
    link.add_argument("--template")
    link.add_argument("--backend", choices=("http", "replay"))
    # From here to --api-key-env each flag sets the BackendConfig field of
    # its dest and defaults to None: the field's default is the only one.
    link.add_argument("--endpoint")
    link.add_argument("--model", dest="model_id")
    link.add_argument("--fixture", dest="fixture_path",
                      help="replay fixture; with --backend http, answers found there are not "
                      "asked again and new ones are appended")
    link.add_argument("--temperature", type=float)
    link.add_argument("--max-output-tokens", type=int)
    link.add_argument("--timeout", dest="request_timeout", type=float)
    link.add_argument("--max-retries", type=int)
    link.add_argument("--retry-backoff", type=float)
    link.add_argument("--parallelism", type=int)
    link.add_argument("--wire", choices=("completions", "chat"))
    link.add_argument("--api-key-env")
    link.add_argument("--out")
    link.add_argument("--config")
    link.set_defaults(func=cmd_link)

    resolve = sub.add_parser("resolve", help="attach QIDs to predictions")
    resolve.add_argument("--kb")
    resolve.add_argument("--external", help="external system rows (page_id/title/qid)")
    resolve.add_argument("--predictions", help="linker output whose titles need QIDs")
    resolve.add_argument("--out")
    resolve.add_argument("--config")
    resolve.set_defaults(func=cmd_resolve)

    score_p = sub.add_parser("score", help="micro P/R/F1 for one system")
    score_p.add_argument("--benchmark")
    score_p.add_argument("--format", choices=("jsonl", "tsv"), default="jsonl")
    score_p.add_argument("--predictions")
    score_p.add_argument("--mode", choices=("title", "qid"), default="title")
    score_p.add_argument("--kb")
    score_p.add_argument("--nil-policy", choices=_NIL_POLICIES, default=_NIL_POLICIES[0])
    score_p.add_argument("--system", default="system")
    score_p.add_argument("--per-sentence", action="store_true")
    score_p.add_argument("--out")
    score_p.add_argument("--csv")
    score_p.add_argument("--config")
    score_p.set_defaults(func=cmd_score)

    stratify_p = sub.add_parser("stratify", help="θ-threshold metric series")
    stratify_p.add_argument("--benchmark")
    stratify_p.add_argument("--format", choices=("jsonl", "tsv"), default="jsonl")
    stratify_p.add_argument("--predictions")
    stratify_p.add_argument("--mode", choices=("title", "qid"), default="title")
    stratify_p.add_argument("--kb")
    stratify_p.add_argument("--nil-policy", choices=_NIL_POLICIES, default=_NIL_POLICIES[0])
    stratify_p.add_argument("--counts")
    stratify_p.add_argument("--thetas", help="comma-separated, e.g. 20,40,60,80,100,inf; "
                            "'all' for every distinct count of the run plus inf")
    stratify_p.add_argument("--lenient", action="store_true",
                            help="treat missing popularity counts as infinite instead of failing")
    stratify_p.add_argument("--system", default="system")
    stratify_p.add_argument("--out")
    stratify_p.add_argument("--json")
    stratify_p.add_argument("--config")
    stratify_p.set_defaults(func=cmd_stratify)

    report_p = sub.add_parser("report", help="merge score reports into one table")
    report_p.add_argument("--inputs", nargs="+")
    report_p.add_argument("--out")
    report_p.add_argument("--force", action="store_true",
                          help="allow mixing title- and qid-mode reports")
    report_p.add_argument("--config")
    report_p.set_defaults(func=cmd_report)

    record_p = sub.add_parser("record", help="turn a completions log into a replay fixture")
    record_p.add_argument("--benchmark")
    record_p.add_argument("--format", choices=("jsonl", "tsv"), default="jsonl")
    record_p.add_argument("--template")
    record_p.add_argument("--completions", help="JSONL of {sentence_id, raw_text, model_id?}")
    record_p.add_argument("--model", default="",
                          help="model_id recorded for rows that do not carry one")
    record_p.add_argument("--out")
    record_p.add_argument("--config")
    record_p.set_defaults(func=cmd_record)

    # A config file may set any long flag of its subcommand but --config and --help.
    for subparser in sub.choices.values():
        subparser.set_defaults(config_actions={
            flag[2:]: action for action in subparser._actions for flag in action.option_strings
            if flag.startswith("--") and flag not in ("--config", "--help")})
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # The file's values become its subcommand's defaults, and the
            # command line, parsed again, overrides them.
            for key, value in load_config(args.config, args.config_actions).items():
                args.config_actions[key].default = value
            args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Only a command that bound the backends can raise a BackendError.
        if "BackendError" not in globals() or not isinstance(exc, BackendError):
            raise
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
