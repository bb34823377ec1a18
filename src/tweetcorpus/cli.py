"""Command-line entry point: one binary, subcommands for the whole workflow.

Conventions: configuration lives in files, flags only select files and
toggle options; data goes to standard output or named output files;
structured log lines go to standard error; the exit code classifies the
failure family (0 ok, 2 config, 3 source, 4 store, 5 analysis).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import replace
from datetime import datetime
from pathlib import Path

from . import __version__
from .authority import (
    authority_report,
    derive_information_authorities,
    engagement_table,
    load_follow_graph,
    wall_posts_from_tweets,
)
from .collect import (
    ScheduledAmendment,
    amendments_from_obj,
    append_amendment,
    collect_run,
    load_json_config,
    manifest_json,
    manifest_table,
    probe_plans_from_obj,
    validate_run,
)
from .corpus import load_corpus_config
from .errors import AnalysisError, ConfigError, SourceError, StoreError
from .observer import AmendmentPlan
from .probes import compute_completeness, read_probe_log, report_json
from .roster import (
    AccountCandidateSet,
    AccountOption,
    build_demo_roster,
    export_candidates,
    load_roster,
    resolve_account,
)
from .sim import (
    BiasEntry,
    bias_report,
    bias_report_json,
    build_scenario,
    config_from_obj,
    load_world,
    open_source,
    references,
    write_world,
)
from .store import CorpusStore, dehydrate, privacy_filter, rehydrate
from .tweets import int_cell, json_document, json_field, json_line, json_value, object_list, serialize_tweet, write_json


def _log(event: str, **extra):
    print(json_line({"event": event, **extra}), file=sys.stderr)


def _emit(doc):
    sys.stdout.write(json_document(doc))


@contextmanager
def _open_store(root):
    """Open a store for one command; when the command leaves it, failed or
    not, log each torn final line that its first use of a corpus cut off."""
    store = CorpusStore(root)
    try:
        with store:
            yield store
    finally:
        for corpus, cut in sorted(store.torn.items()):
            _log("tornTail", bytesCut=cut, corpus=corpus)


def _parse_account(text: str) -> tuple[int, str]:
    user_id, sep, screen_name = text.partition(":")
    try:
        if sep and screen_name:
            return int_cell(user_id), screen_name
    except ValueError:
        pass
    raise ConfigError(f"--account must be 'userId:screenName' with an id of ASCII digits, got {text!r}")


# -- sim -----------------------------------------------------------------------

def cmd_sim_build(args):
    config = load_json_config(args.config, config_from_obj)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    scenario = build_scenario(config)
    out = write_world(scenario, args.out)
    _log("worldWritten", path=str(out), seed=config.seed, tweets=len(scenario.timeline))
    _emit({
        "accounts": len(scenario.accounts),
        "seed": config.seed,
        "tweets": len(scenario.timeline),
        "world": str(out),
    })


def cmd_sim_export(args):
    refs = references(load_world(args.world), load_corpus_config(args.corpora))
    doc = {
        "conversationReference": {name: sorted(conversation) for name, (_, conversation) in refs.items()},
        "groundTruth": {name: sorted(truth) for name, (truth, _) in refs.items()},
    }
    if args.out is not None:
        write_json(args.out, doc)
        _log("referencesWritten", path=str(args.out), corpora=sorted(doc["groundTruth"]))
    else:
        _emit(doc)


# -- collect -------------------------------------------------------------------

def cmd_collect_run(args):
    scenario = load_world(args.world)
    defs = load_corpus_config(args.corpora)
    config_paths = [args.world / "scenario.json", args.corpora]
    probe_plans = ()
    if args.probes is not None:
        probe_plans = load_json_config(args.probes, probe_plans_from_obj)
        config_paths.append(args.probes)
    amendments = ()
    if args.amendments is not None:
        amendments = load_json_config(args.amendments, amendments_from_obj)
        config_paths.append(args.amendments)
    validate_run(scenario, defs, probe_plans, amendments)  # a refused run logs nothing and makes no store
    _log("runStarted", corpora=[d.name for d in defs], store=str(args.store))
    with _open_store(args.store) as store:
        manifest = collect_run(
            scenario, defs, store, probe_plans=probe_plans, amendments=amendments,
            config_paths=config_paths, manifest_path=args.manifest, logs_dir=args.logs,
        )
    _log("runFinished", manifest=str(args.manifest), runId=manifest.run_id, status=manifest.status)
    print(manifest_table(manifest_json(manifest)))


def cmd_collect_amend(args):
    accounts = tuple(_parse_account(a) for a in args.account)
    plan = AmendmentPlan(at=json_value(args.at, datetime, "--at"), accounts=accounts,
                         keywords=tuple(args.keyword), backfill=not args.no_backfill)
    sa = ScheduledAmendment(corpus=args.corpus, plan=plan)
    total = append_amendment(args.amendments, sa, load_corpus_config(args.corpora))
    _log("amendmentQueued", at=args.at, corpus=args.corpus, file=str(args.amendments))
    _emit({"amendments": total, "file": str(args.amendments)})


def cmd_collect_status(args):
    try:
        table = manifest_table(load_json_config(args.manifest))
    except KeyError as exc:
        raise ConfigError(f"{args.manifest}: manifest lacks key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{args.manifest}: malformed manifest: {exc}") from exc
    print(table)


# -- probes --------------------------------------------------------------------

def cmd_probe_report(args):
    probes = read_probe_log(args.probe_log)
    if not probes:
        raise AnalysisError(f"probe log {args.probe_log} is empty")
    corpus = probes[0].corpus
    defs = {d.name: d for d in load_corpus_config(args.corpora)}
    if corpus not in defs:
        raise ConfigError(f"probe log names corpus {corpus!r}, not defined in {args.corpora}")
    with _open_store(args.store) as store:
        report = compute_completeness(store, probes, window=defs[corpus].window)
    _emit(report_json(report))


# -- store ---------------------------------------------------------------------

def cmd_store_scan(args):
    with _open_store(args.store) as store:
        for row in store.scan(args.corpus, include_probes=args.include_probes):
            print(serialize_tweet(row.tweet))


def cmd_store_dehydrate(args):
    index = load_roster(args.roster).twitter_index() if args.roster else None
    with _open_store(args.store) as store:
        rows = dehydrate(store, args.corpus, args.out, roster_index=index)
    _log("dehydrated", corpus=args.corpus, path=str(args.out), rows=rows)
    _emit({"corpus": args.corpus, "out": str(args.out), "rows": rows})


def cmd_store_rehydrate(args):
    source = open_source(load_world(args.world))
    result = rehydrate(args.ids, source)
    with open(args.out, "w", encoding="utf-8") as fh:
        for t in result.tweets:
            fh.write(serialize_tweet(t) + "\n")
    _log("rehydrated", corpus=result.corpus, missing=len(result.missing_ids), path=str(args.out))
    _emit({
        "corpus": result.corpus,
        "missingIds": list(result.missing_ids),
        "out": str(args.out),
        "rehydrated": len(result.tweets),
    })


def cmd_store_privacy_filter(args):
    roster = load_roster(args.roster)
    with _open_store(args.store) as store:
        derived = privacy_filter(store, args.corpus, roster.twitter_index(), args.derived)
        rows = store.count(derived)
    _emit({"corpus": derived, "rows": rows})


def cmd_store_export_candidates(args):
    if args.demo:
        roster, _ = build_demo_roster(seed=args.seed)
    elif args.roster is not None:
        roster = load_roster(args.roster)
    else:
        raise ConfigError("export-candidates needs --roster or --demo")
    count = export_candidates(list(roster), args.out)
    _emit({"candidates": count, "out": str(args.out)})


# -- analysis ------------------------------------------------------------------

def cmd_authorities(args):
    graph = load_follow_graph(args.graph, args.groups)
    result = derive_information_authorities(graph, threshold=args.threshold)
    _emit(authority_report(result))


def cmd_engagement(args):
    with _open_store(args.store) as store:
        rows = store.scan(args.corpus, include_probes=False)
    posts = wall_posts_from_tweets([r.tweet for r in rows])
    _emit({
        "actors": [{"actor": a, "breadth": b, "depth": d} for a, b, d in engagement_table(posts)],
        "corpus": args.corpus,
    })


def _reference_sets(doc) -> dict[str, dict[str, frozenset[int]]]:
    """Both reference sets of a `sim export` document, each as corpus name -> ids."""
    return {key: {name: frozenset(json_value(ids, [int], f"field {key!r} corpus {name!r}"))
                  for name, ids in json_field(doc, key, dict).items()}
            for key in ("conversationReference", "groundTruth")}


def cmd_bias_report(args):
    key = "conversationReference" if args.reference == "conversation" else "groundTruth"
    refs = load_json_config(args.references, _reference_sets)[key]
    with _open_store(args.store) as store:
        entries = [BiasEntry(name=name, stored_ids=store.ids(name), reference_ids=ids)
                   for name, ids in refs.items()]
    _emit(bias_report_json(bias_report(entries)))


# -- roster --------------------------------------------------------------------

def cmd_roster_load(args):
    roster = load_roster(args.roster)
    _emit({
        "candidates": len(roster),
        "linkedAccounts": len(roster.twitter_index()),
        "parties": sorted({c.party for c in roster}),
        "roster": str(args.roster),
    })


def _account_option(obj) -> AccountOption:
    return AccountOption(
        user_id=json_field(obj, "userId", int),
        screen_name=json_field(obj, "screenName", str),
        evidence=json_field(obj, "evidence", [str], ()),
        platform_verified_badge=json_field(obj, "platformVerifiedBadge", bool, False),
        is_professional=json_field(obj, "isProfessional", bool, False),
    )


def _candidate_set(entry) -> AccountCandidateSet:
    return AccountCandidateSet(candidate_id=json_field(entry, "candidateId", str),
                               options=json_field(entry, "options", [_account_option], ()))


def cmd_roster_resolve(args):
    resolutions = []
    for s in load_json_config(args.sets, lambda doc: object_list(doc, "sets", "resolve input", _candidate_set)):
        r = resolve_account(s)
        resolutions.append({
            "candidateId": s.candidate_id,
            "resolved": {"screenName": r.link.screen_name, "userId": r.link.user_id} if r.link else None,
            "tied": [o.user_id for o in r.tied],
        })
    _emit({"resolutions": resolutions})


# -- parser --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tweetcorpus",
        description="Collect, probe, amend, analyze, and archive simulated social-media corpora.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("sim", help="deterministic platform scenarios").add_subparsers(
        dest="subcommand", required=True)
    p = sim.add_parser("build", help="build a scenario from a config and write its world files")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config's scenario seed")
    p.set_defaults(func=cmd_sim_build)
    p = sim.add_parser("export", help="export oracle reference id sets for `bias report --references`")
    p.add_argument("--world", type=Path, required=True)
    p.add_argument("--corpora", type=Path, required=True)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_sim_export)

    collect = sub.add_parser("collect", help="collection runs").add_subparsers(
        dest="subcommand", required=True)
    p = collect.add_parser("run", help="run all configured observers over a world")
    p.add_argument("--world", type=Path, required=True)
    p.add_argument("--corpora", type=Path, required=True)
    p.add_argument("--store", type=Path, required=True)
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--probes", type=Path, default=None)
    p.add_argument("--amendments", type=Path, default=None)
    p.add_argument("--logs", type=Path, default=None)
    p.set_defaults(func=cmd_collect_run)
    p = collect.add_parser("amend", help="queue a corpus amendment for the next run")
    p.add_argument("--amendments", type=Path, required=True)
    p.add_argument("--corpora", type=Path, required=True,
                   help="the corpus config of the run; a batch that run would refuse is not written")
    p.add_argument("--corpus", required=True)
    p.add_argument("--at", required=True, help="amendment time, ISO-8601 UTC")
    p.add_argument("--account", action="append", default=[], metavar="ID:NAME")
    p.add_argument("--keyword", action="append", default=[])
    p.add_argument("--no-backfill", action="store_true")
    p.set_defaults(func=cmd_collect_amend)
    p = collect.add_parser("status", help="summarize a run manifest")
    p.add_argument("--manifest", type=Path, required=True)
    p.set_defaults(func=cmd_collect_status)

    probe = sub.add_parser("probe", help="completeness probing").add_subparsers(
        dest="subcommand", required=True)
    p = probe.add_parser("report", help="recompute completeness from a probe log and a store")
    p.add_argument("--store", type=Path, required=True)
    p.add_argument("--probe-log", type=Path, required=True)
    p.add_argument("--corpora", type=Path, required=True)
    p.set_defaults(func=cmd_probe_report)

    store = sub.add_parser("store", help="corpus store operations").add_subparsers(
        dest="subcommand", required=True)
    p = store.add_parser("scan", help="print a corpus as NDJSON tweets")
    p.add_argument("--store", type=Path, required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--include-probes", action="store_true")
    p.set_defaults(func=cmd_store_scan)
    p = store.add_parser("dehydrate", help="export a corpus as a shareable id list")
    p.add_argument("--store", type=Path, required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--roster", type=Path, default=None,
                   help="annotate ids of roster-verified authors with candidate ids")
    p.set_defaults(func=cmd_store_dehydrate)
    p = store.add_parser("rehydrate", help="resolve an id list back into tweets")
    p.add_argument("--world", type=Path, required=True)
    p.add_argument("--ids", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_store_rehydrate)
    p = store.add_parser("privacy-filter", help="derive a corpus holding only roster-verified authors")
    p.add_argument("--store", type=Path, required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--roster", type=Path, required=True)
    p.add_argument("--derived", default=None, help="name for the derived corpus")
    p.set_defaults(func=cmd_store_privacy_filter)
    p = store.add_parser("export-candidates", help="write the candidate table and evidence sidecar")
    p.add_argument("--roster", type=Path, default=None)
    p.add_argument("--demo", action="store_true", help="export the synthetic demo roster instead")
    p.add_argument("--seed", type=int, default=20130922, help="seed of the --demo roster")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_store_export_candidates)

    p = sub.add_parser("authorities", help="derive information authorities from a follow graph")
    p.add_argument("--graph", type=Path, required=True)
    p.add_argument("--groups", type=Path, required=True)
    p.add_argument("--threshold", default="1/4", help="follower share, e.g. 0.25 or 1/4")
    p.set_defaults(func=cmd_authorities)

    p = sub.add_parser("engagement", help="breadth and depth of engagement per actor")
    p.add_argument("--store", type=Path, required=True)
    p.add_argument("--corpus", required=True)
    p.set_defaults(func=cmd_engagement)

    bias = sub.add_parser("bias", help="collection bias measurement").add_subparsers(
        dest="subcommand", required=True)
    p = bias.add_parser("report", help="recall/precision of stored corpora against oracle references")
    p.add_argument("--references", type=Path, required=True,
                   help="the reference sets `sim export` wrote; its corpora are the ones reported")
    p.add_argument("--store", type=Path, required=True)
    p.add_argument("--reference", choices=("conversation", "ground-truth"), default="conversation")
    p.set_defaults(func=cmd_bias_report)

    roster = sub.add_parser("roster", help="candidate roster operations").add_subparsers(
        dest="subcommand", required=True)
    p = roster.add_parser("load", help="validate a roster file and summarize it")
    p.add_argument("--roster", type=Path, required=True)
    p.set_defaults(func=cmd_roster_load)
    p = roster.add_parser("resolve", help="resolve reviewed account options to verified links")
    p.add_argument("--sets", type=Path, required=True)
    p.set_defaults(func=cmd_roster_resolve)

    return parser


def _fail(code: int, category: str, exc: Exception) -> int:
    _log("error", category=category, exit=code, message=str(exc))
    return code


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0].partition("=")[0] == "--seed":
        parser.error("--seed goes after the command that reads it: `sim build` or `store export-candidates`")
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ConfigError as exc:
        return _fail(2, "config", exc)
    except OSError as exc:
        return _fail(2, "config", exc)
    except SourceError as exc:
        return _fail(3, "source", exc)
    except StoreError as exc:
        return _fail(4, "store", exc)
    except AnalysisError as exc:
        return _fail(5, "analysis", exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
