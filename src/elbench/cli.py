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
import os
import sys
from dataclasses import replace
from functools import partial
from typing import Collection, Dict, List, Optional, Sequence, Set, Union

# The names the commands use from each module.  Every import compiles its
# module from source when there is no bytecode cache, so a command imports
# only the modules it runs (see _bind) and start-up pays for nothing else.
_NAMES = {
    "backends": ("DEFAULT_API_KEY_ENV", "BackendConfig", "BackendError", "batch_complete",
                 "prompt_digest"),
    "baseline": ("RESOLUTION_NOT_FOUND", "RESOLUTION_TITLE", "load_external_predictions"),
    "benchmark": ("benchmark_stats", "load_benchmark", "save_benchmark"),
    "kb": ("load_mapping", "title_to_qid"),
    "manifest": ("build_run_manifest", "write_manifest"),
    "parsing": ("STATUS_UNPARSEABLE", "PredictionRecord", "load_predictions",
                "parse_predictions", "save_predictions"),
    "popularity": ("DEFAULT_THETAS", "STRATIFY_CSV_FIELDS", "load_counts", "stratify",
                   "stratify_csv_rows"),
    "prompting": ("DEFAULT_TEMPLATE_VERSION", "build_prompt", "default_template_text",
                  "parse_template"),
    "scoring": ("CSV_FIELDS", "NIL_EXCLUDE_AND_IGNORE", "MatchConfig", "csv_fields", "percent",
                "report_to_dict", "score"),
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


def load_config(path: str, keys: Collection[str]) -> Dict[str, str]:
    """key=value per line; blank lines and # comments ignored.

    Every key must be one of keys, so a misspelt option fails instead of
    silently leaving its default in force.
    """
    values: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key not in keys:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}; "
                                 f"expected one of {', '.join(sorted(keys))}")
            values[key] = value.strip()
    return values


def _parse_bool(raw: str) -> bool:
    return raw.strip().lower() in ("1", "true", "yes", "on")


class _Options:
    """Flag values with config-file fallback; explicit flags win."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = (load_config(args.config, args.config_keys)
                       if getattr(args, "config", None) else {})

    def get(self, key: str, default=None, cast=None):
        value = getattr(self.args, key.replace("-", "_"))
        if value is not None:
            return value
        if key in self.config:
            raw = self.config[key]
            return cast(raw) if cast else raw
        return default

    def require(self, key: str, cast=None):
        value = self.get(key, cast=cast)
        if value is None:
            raise ValueError(f"missing required option --{key}")
        return value


def _load_template_opt(path: Optional[str]):
    if path:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        version = os.path.splitext(os.path.basename(path))[0]
    else:
        text = default_template_text()
        version = DEFAULT_TEMPLATE_VERSION
    return parse_template(text, version=version), text, version


def cmd_ingest(args: argparse.Namespace) -> int:
    _bind("benchmark")
    opts = _Options(args)
    path = opts.require("input")
    benchmark = load_benchmark(path, opts.get("format", "jsonl"), name=opts.get("name"))
    stats = benchmark_stats(benchmark)
    for name in ("sentences", "tokens", "unique_qids", "types", "nil_mentions", "total_mentions"):
        print(f"{name}: {getattr(stats, name)}")
    out = opts.get("out")
    if out:
        save_benchmark(benchmark, out, opts.get("out-format", "jsonl"))
        print(f"wrote {out}")
    return 0


def cmd_link(args: argparse.Namespace) -> int:
    _bind("benchmark", "prompting", "backends", "parsing", "manifest")
    opts = _Options(args)
    benchmark_path = opts.require("benchmark")
    out = opts.require("out")
    benchmark = load_benchmark(benchmark_path, opts.get("format", "jsonl"))
    template, template_text, template_version = _load_template_opt(opts.get("template"))
    cfg = BackendConfig(
        kind=opts.require("backend"),
        endpoint=opts.get("endpoint", ""),
        model_id=opts.get("model", ""),
        fixture_path=opts.get("fixture", ""),
        temperature=opts.get("temperature", 0.0, float),
        max_output_tokens=opts.get("max-output-tokens", 512, int),
        request_timeout=opts.get("timeout", 30.0, float),
        max_retries=opts.get("max-retries", 3, int),
        retry_backoff=opts.get("retry-backoff", 0.5, float),
        parallelism=opts.get("parallelism", 4, int),
        wire=opts.get("wire", "completions"),
        api_key_env=opts.get("api-key-env", DEFAULT_API_KEY_ENV),
        record_path=opts.get("record", ""),
    )
    cfg.validate()
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
    save_predictions(records, out)
    inputs = {"benchmark": benchmark_path}
    model_id: Union[str, List[str]] = cfg.model_id
    if cfg.kind == "replay":
        inputs["fixture"] = cfg.fixture_path
        model_id = _replayed_model_ids(results)
    manifest = build_run_manifest(inputs, template_text=template_text,
                                  template_version=template_version, backend_config=cfg,
                                  backend_model=model_id)
    write_manifest(manifest, out + ".manifest.json")
    summary = ", ".join(f"{count} {name}" for name, count in sorted(status_counts.items()))
    print(f"linked {len(records)} sentence(s): {summary or 'nothing to do'}")
    print(f"wrote {out}")
    if failures:
        print(f"{len(failures)} sentence(s) failed:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


def _replayed_model_ids(results: Sequence[object]) -> Union[str, List[str]]:
    """The model that recorded the replayed answers: its ID, or the sorted
    distinct IDs when the fixture mixes models ("" when none is recorded)."""
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
    opts = _Options(args)
    kb_path = opts.require("kb")
    out = opts.require("out")
    external = opts.get("external")
    predictions = opts.get("predictions")
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
                links.append(replace(link, qid=qid, resolution=resolution))
            records.append(replace(record, links=tuple(links)))
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
    opts = _Options(args)
    benchmark_path = opts.require("benchmark")
    predictions_path = opts.require("predictions")
    out = opts.require("out")
    mode = opts.get("mode", "title")
    benchmark = load_benchmark(benchmark_path, opts.get("format", "jsonl"))
    preds = load_predictions(predictions_path)
    kb_path = opts.get("kb")
    kb = load_mapping(kb_path, qids=_gold_qids(benchmark)) if kb_path else None
    cfg = MatchConfig(mode=mode, nil_policy=opts.get("nil-policy", NIL_EXCLUDE_AND_IGNORE))
    report = score(benchmark, preds, cfg, kb, system_id=opts.get("system", "system"),
                   keep_per_sentence=bool(opts.get("per-sentence", False, _parse_bool)))
    inputs = {"benchmark": benchmark_path, "predictions": predictions_path}
    if kb_path:
        inputs["kb"] = kb_path
    manifest = build_run_manifest(inputs, params={"mode": mode, "nil_policy": cfg.nil_policy})
    artifact = {"mode": mode, "nil_policy": cfg.nil_policy, **report_to_dict(report),
                "manifest": manifest.to_dict()}
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, ensure_ascii=False, indent=2)
        handle.write("\n")
    csv_path = opts.get("csv")
    if csv_path:
        with open(csv_path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(CSV_FIELDS)
            writer.writerow(csv_fields(report))
    print(f"{report.system_id}: P={report.precision_pct()} R={report.recall_pct()} "
          f"F1={report.f1_pct()} (tp={report.tp} fp={report.fp} fn={report.fn})")
    print(f"wrote {out}")
    return 0


def cmd_stratify(args: argparse.Namespace) -> int:
    _bind("benchmark", "parsing", "kb", "scoring", "popularity", "manifest")
    opts = _Options(args)
    benchmark_path = opts.require("benchmark")
    predictions_path = opts.require("predictions")
    counts_path = opts.require("counts")
    out = opts.require("out")
    benchmark = load_benchmark(benchmark_path, opts.get("format", "jsonl"))
    preds = load_predictions(predictions_path)
    pop = load_counts(counts_path)
    kb_path = opts.get("kb")
    kb = (load_mapping(kb_path, titles=_titles(preds), qids=_gold_qids(benchmark))
          if kb_path else None)
    mode = opts.get("mode", "title")
    cfg = MatchConfig(mode=mode, nil_policy=opts.get("nil-policy", NIL_EXCLUDE_AND_IGNORE))
    raw_thetas = opts.get("thetas")
    thetas = ([token for token in raw_thetas.split(",") if token.strip()]
              if raw_thetas else DEFAULT_THETAS)
    strict = not bool(opts.get("lenient", False, _parse_bool))
    system_id = opts.get("system", "system")
    slices = stratify(benchmark, preds, cfg, kb, pop, thetas, strict=strict, system_id=system_id)
    rows = stratify_csv_rows(slices)
    with open(out, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(STRATIFY_CSV_FIELDS)
        writer.writerows(rows)
    inputs = {"benchmark": benchmark_path, "predictions": predictions_path, "counts": counts_path}
    if kb_path:
        inputs["kb"] = kb_path
    theta_param = ",".join(row[1] for row in rows)
    manifest = build_run_manifest(inputs, params={"mode": mode, "nil_policy": cfg.nil_policy,
                                                  "thetas": theta_param, "strict": strict})
    write_manifest(manifest, out + ".manifest.json")
    json_path = opts.get("json")
    if json_path:
        payload = {"system": system_id, "mode": mode, "nil_policy": cfg.nil_policy,
                   "slices": [{"theta": "inf" if math.isinf(item.theta) else int(item.theta),
                               **report_to_dict(item.report)} for item in slices],
                   "manifest": manifest.to_dict()}
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, ensure_ascii=False, indent=2)
            handle.write("\n")
    print(f"wrote {out} ({len(slices)} slice(s))")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    _bind("scoring", "manifest")
    opts = _Options(args)
    input_paths = opts.require("inputs", cast=str.split)
    out = opts.require("out")
    rows = []
    modes = set()
    for path in input_paths:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        for field in ("system", "tp", "fp", "fn"):
            if field not in data:
                raise ValueError(f"{path}: missing field {field!r}")
        modes.add(data.get("mode", ""))
        rows.append((data["system"], data["tp"], data["fp"], data["fn"]))
    if len(modes) > 1 and not bool(opts.get("force", False, _parse_bool)):
        raise ValueError(f"refusing to merge reports with mixed match modes {sorted(modes)}; "
                         "pass --force to override")
    entries = []
    for system, tp, fp, fn in rows:
        entries.append((system, percent(tp, tp + fp), percent(tp, tp + fn),
                        percent(2 * tp, 2 * tp + fp + fn)))
    entries.sort(key=lambda entry: (-entry[3], entry[0]))
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
    opts = _Options(args)
    benchmark = load_benchmark(opts.require("benchmark"), opts.get("format", "jsonl"))
    template, _, _ = _load_template_opt(opts.get("template"))
    completions_path = opts.require("completions")
    default_model = opts.get("model", "")
    out = opts.require("out")
    known = {sentence.sentence_id for sentence in benchmark.sentences}
    errors: List[str] = []
    rows: Dict[str, Dict[str, str]] = {}
    with open(completions_path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(f"line {lineno}: invalid JSON: {exc}")
                continue
            sentence_id = entry.get("sentence_id") if isinstance(entry, dict) else None
            raw_text = entry.get("raw_text") if isinstance(entry, dict) else None
            if not isinstance(sentence_id, str) or not sentence_id:
                errors.append(f"line {lineno}: sentence_id must be a non-empty string")
                continue
            if not isinstance(raw_text, str):
                errors.append(f"line {lineno}: raw_text must be a string")
                continue
            if sentence_id not in known:
                errors.append(f"line {lineno}: unknown sentence_id {sentence_id!r}")
                continue
            if sentence_id in rows:
                errors.append(f"line {lineno}: duplicate sentence_id {sentence_id!r}")
                continue
            rows[sentence_id] = {"raw_text": raw_text,
                                 "model_id": entry.get("model_id", default_model)}
    if errors:
        raise ValueError(f"{completions_path}: {len(errors)} malformed record(s):\n" + "\n".join(errors))
    written = 0
    skipped = 0
    with open(out, "w", encoding="utf-8") as handle:
        for sentence in benchmark.sentences:
            entry = rows.get(sentence.sentence_id)
            if entry is None:
                skipped += 1
                continue
            prompt = build_prompt(template, sentence.text)
            fixture = {"digest": prompt_digest(prompt), "prompt": prompt,
                       "raw_text": entry["raw_text"], "model_id": entry["model_id"]}
            handle.write(json.dumps(fixture, ensure_ascii=False) + "\n")
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
    ingest.add_argument("--format", choices=("jsonl", "tsv"))
    ingest.add_argument("--name")
    ingest.add_argument("--out")
    ingest.add_argument("--out-format", choices=("jsonl", "tsv"))
    ingest.add_argument("--config")
    ingest.set_defaults(func=cmd_ingest)

    link = sub.add_parser("link", help="prompt a backend over every sentence")
    link.add_argument("--benchmark")
    link.add_argument("--format", choices=("jsonl", "tsv"))
    link.add_argument("--template")
    link.add_argument("--backend", choices=("http", "replay"))
    link.add_argument("--endpoint")
    link.add_argument("--model")
    link.add_argument("--fixture")
    link.add_argument("--temperature", type=float)
    link.add_argument("--max-output-tokens", type=int)
    link.add_argument("--timeout", type=float)
    link.add_argument("--max-retries", type=int)
    link.add_argument("--retry-backoff", type=float)
    link.add_argument("--parallelism", type=int)
    link.add_argument("--wire", choices=("completions", "chat"))
    link.add_argument("--api-key-env")
    link.add_argument("--record", help="also append live completions to this replay fixture")
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
    score_p.add_argument("--format", choices=("jsonl", "tsv"))
    score_p.add_argument("--predictions")
    score_p.add_argument("--mode", choices=("title", "qid"))
    score_p.add_argument("--kb")
    score_p.add_argument("--nil-policy")
    score_p.add_argument("--system")
    score_p.add_argument("--per-sentence", action="store_true", default=None)
    score_p.add_argument("--out")
    score_p.add_argument("--csv")
    score_p.add_argument("--config")
    score_p.set_defaults(func=cmd_score)

    stratify_p = sub.add_parser("stratify", help="θ-threshold metric series")
    stratify_p.add_argument("--benchmark")
    stratify_p.add_argument("--format", choices=("jsonl", "tsv"))
    stratify_p.add_argument("--predictions")
    stratify_p.add_argument("--mode", choices=("title", "qid"))
    stratify_p.add_argument("--kb")
    stratify_p.add_argument("--nil-policy")
    stratify_p.add_argument("--counts")
    stratify_p.add_argument("--thetas", help="comma-separated, e.g. 20,40,60,80,100,inf; "
                            "'all' for every distinct count of the run plus inf")
    stratify_p.add_argument("--lenient", action="store_true", default=None,
                            help="treat missing popularity counts as infinite instead of failing")
    stratify_p.add_argument("--system")
    stratify_p.add_argument("--out")
    stratify_p.add_argument("--json")
    stratify_p.add_argument("--config")
    stratify_p.set_defaults(func=cmd_stratify)

    report_p = sub.add_parser("report", help="merge score reports into one table")
    report_p.add_argument("--inputs", nargs="+")
    report_p.add_argument("--out")
    report_p.add_argument("--force", action="store_true", default=None,
                          help="allow mixing title- and qid-mode reports")
    report_p.add_argument("--config")
    report_p.set_defaults(func=cmd_report)

    record_p = sub.add_parser("record", help="turn a completions log into a replay fixture")
    record_p.add_argument("--benchmark")
    record_p.add_argument("--format", choices=("jsonl", "tsv"))
    record_p.add_argument("--template")
    record_p.add_argument("--completions", help="JSONL of {sentence_id, raw_text, model_id?}")
    record_p.add_argument("--model", help="model_id recorded for rows that do not carry one")
    record_p.add_argument("--out")
    record_p.add_argument("--config")
    record_p.set_defaults(func=cmd_record)

    # A config file may set any long flag of its subcommand but --config and --help.
    for subparser in sub.choices.values():
        subparser.set_defaults(config_keys=frozenset(
            flag[2:] for action in subparser._actions for flag in action.option_strings
            if flag.startswith("--") and flag not in ("--config", "--help")))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
