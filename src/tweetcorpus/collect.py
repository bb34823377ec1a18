"""End-to-end collection runs: probes in, observers on, manifest out.

A run takes one platform source, a set of corpus definitions, and a shared
store, and leaves behind a manifest that records exactly what was collected
under which configuration.  The manifest is written even when the run fails,
so a crashed collection is still accountable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

from . import __version__
from .corpus import CorpusDefinition, account_from_obj
from .errors import ConfigError
from .observer import NOT_RECOVERABLE, AmendmentEvent, AmendmentPlan, ObserverInstance, _widened, run_observer
from .probes import (DEFAULT_INTERVAL, CompletenessReport, compute_completeness, inject_probes, probe_carriers,
                     report_json, write_probe_log)
from .sim import Scenario, open_source
from .store import CORPUS_NAME_RE
from .tweets import format_timestamp, json_field, json_value, load_json_config, object_list, write_json


@dataclass(frozen=True)
class ProbePlan:
    """Inject `count` probes into one corpus at a fixed cadence."""

    corpus: str
    count: int
    interval: timedelta = DEFAULT_INTERVAL


@dataclass(frozen=True)
class ScheduledAmendment:
    """An amendment applied to one corpus when its time arrives."""

    corpus: str
    plan: AmendmentPlan


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to account for, and re-execute, one run."""

    run_id: str
    tool_version: str
    seed: int
    started_at: datetime
    ended_at: datetime
    configs: tuple[tuple[str, str], ...]          # (path, sha256) pairs
    corpora: tuple[ObserverInstance, ...]
    completeness: tuple[CompletenessReport, ...]
    status: str                                   # "ok" or "failed"
    error: str | None

    @property
    def amendments(self) -> tuple[AmendmentEvent, ...]:
        events = [ev for snap in self.corpora for ev in snap.amendments]
        return tuple(sorted(events, key=lambda ev: (ev.at, ev.corpus)))


def file_hash(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def derive_run_id(seed: int, config_hashes, corpus_names) -> str:
    basis = f"{seed}|{','.join(sorted(corpus_names))}|{','.join(config_hashes)}"
    return hashlib.sha256(basis.encode("utf-8")).hexdigest()[:16]


def _gap_json(gap) -> dict:
    return {
        "closedAt": format_timestamp(gap.closed_at) if gap.closed_at else None,
        "openedAt": format_timestamp(gap.opened_at),
    }


def _counters_json(snap: ObserverInstance) -> dict:
    return {
        "corpus": snap.corpus,
        "droppedBySource": snap.dropped_by_source,
        "duplicates": snap.duplicates,
        "gaps": [_gap_json(g) for g in snap.gaps],
        "matched": snap.matched,
        "observerId": snap.observer_id,
        "seen": snap.seen,
        "state": "stopped",  # counters are reported after the run
        "stored": snap.stored,
    }


def _amendment_json(ev: AmendmentEvent) -> dict:
    return {
        "addedAccounts": [{"id": i, "screenName": n} for i, n in ev.added_accounts],
        "addedKeywords": list(ev.added_keywords),
        "at": format_timestamp(ev.at),
        "backfill": [
            {
                "earliest": format_timestamp(b.earliest) if b.earliest else None,
                "recovered": b.recovered,
                "screenName": b.screen_name,
                "userId": b.user_id,
            }
            for b in ev.backfill
        ],
        "corpus": ev.corpus,
        "limitation": NOT_RECOVERABLE,
    }


def manifest_json(m: RunManifest) -> dict:
    return {
        "amendments": [_amendment_json(ev) for ev in m.amendments],
        "completeness": [report_json(r) for r in m.completeness],
        "configs": [{"path": p, "sha256": h} for p, h in m.configs],
        "corpora": [_counters_json(s) for s in m.corpora],
        "endedAt": format_timestamp(m.ended_at),
        "error": m.error,
        "runId": m.run_id,
        "seed": m.seed,
        "startedAt": format_timestamp(m.started_at),
        "status": m.status,
        "toolVersion": m.tool_version,
    }


def write_manifest(m: RunManifest, path):
    write_json(path, manifest_json(m))


def manifest_table(doc: dict) -> str:
    """Human-readable one-screen summary of a loaded manifest."""
    lines = [f"run {doc['runId']} status {doc['status']} seed {doc['seed']}"]
    for c in doc["corpora"]:
        lines.append(
            f"  {c['corpus']}: state={c['state']} seen={c['seen']} matched={c['matched']}"
            f" stored={c['stored']} duplicates={c['duplicates']}"
            f" dropped={c['droppedBySource']} gaps={len(c['gaps'])}"
        )
    for r in doc["completeness"]:
        lines.append(f"  completeness {r['corpus']}: {r['stored']}/{r['created']} = {r['completeness']:.4f}")
    for ev in doc["amendments"]:
        added = len(ev["addedAccounts"]) + len(ev["addedKeywords"])
        lines.append(f"  amendment {ev['corpus']} at {ev['at']}: {added} additions")
    if doc.get("error"):
        lines.append(f"  error: {doc['error']}")
    return "\n".join(lines)


def _probe_plan(entry) -> ProbePlan:
    return ProbePlan(
        corpus=json_field(entry, "corpus", str),
        count=json_field(entry, "count", int),
        interval=timedelta(seconds=json_field(entry, "intervalSeconds", float, DEFAULT_INTERVAL.total_seconds())),
    )


def probe_plans_from_obj(doc) -> list[ProbePlan]:
    return object_list(doc, "probes", "probe config", _probe_plan)


def _scheduled_amendment(entry) -> ScheduledAmendment:
    return ScheduledAmendment(corpus=json_field(entry, "corpus", str), plan=AmendmentPlan(
        at=json_field(entry, "at", datetime),
        accounts=json_field(entry, "accounts", [account_from_obj], ()),
        keywords=json_field(entry, "keywords", [str], ()),
        backfill=json_field(entry, "backfill", bool, True),
    ))


def amendments_from_obj(doc) -> list[ScheduledAmendment]:
    return object_list(doc, "amendments", "amendment config", _scheduled_amendment)


def _amendment_entry(sa: ScheduledAmendment) -> dict:
    return {
        "accounts": [{"id": i, "screenName": n} for i, n in sa.plan.accounts],
        "at": format_timestamp(sa.plan.at),
        "backfill": sa.plan.backfill,
        "corpus": sa.corpus,
        "keywords": list(sa.plan.keywords),
    }


def append_amendment(path, sa: ScheduledAmendment, definitions) -> int:
    """Add one scheduled amendment to a batch file, creating it if absent.

    The batch it would write is checked as ``collect run`` checks it against
    ``definitions``; a ConfigError leaves the file untouched.  Returns the
    total number of amendments in the file afterwards.
    """
    path = Path(path)
    doc = load_json_config(path) if path.exists() else {"amendments": []}
    queued = json_value(doc, amendments_from_obj, str(path))  # reject malformed files before touching them
    validate_names(definitions, (), [*queued, sa])
    doc["amendments"].append(_amendment_entry(sa))
    write_json(path, doc)
    return len(doc["amendments"])


def validate_names(definitions, probe_plans, amendments) -> dict[str, CorpusDefinition]:
    """The run's corpora by name.  Names must be unique and usable as store
    file names, every probe plan and amendment must name one of them, a corpus
    has at most one probe plan, and each corpus's amendments must fall inside
    its window and apply in ``at`` order, as its observer will apply them."""
    if not definitions:
        raise ConfigError("a run needs at least one corpus definition")
    defs: dict[str, CorpusDefinition] = {}
    for d in definitions:
        if not CORPUS_NAME_RE.match(d.name):
            raise ConfigError(f"corpus {d.name!r}: name is not usable as a store file name")
        if d.name in defs:
            raise ConfigError(f"duplicate corpus name {d.name!r}")
        defs[d.name] = d
    probed = set()
    for plan in probe_plans:
        if plan.corpus not in defs:
            raise ConfigError(f"probe plan references unknown corpus {plan.corpus!r}")
        if plan.corpus in probed:
            raise ConfigError(f"corpus {plan.corpus!r} has more than one probe plan")
        probed.add(plan.corpus)
    for sa in amendments:
        if sa.corpus not in defs:
            raise ConfigError(f"amendment references unknown corpus {sa.corpus!r}")
    for name, definition in defs.items():
        for plan in sorted((sa.plan for sa in amendments if sa.corpus == name), key=lambda p: p.at):
            if not definition.window.contains(plan.at):
                raise ConfigError(
                    f"corpus {name!r} amendment at {format_timestamp(plan.at)}: outside the corpus window "
                    f"{format_timestamp(definition.window.start)} to {format_timestamp(definition.window.end)}"
                )
            try:
                definition = _widened(definition, plan.accounts, plan.keywords)[0]
            except ConfigError as exc:
                raise ConfigError(f"corpus {name!r} amendment at {format_timestamp(plan.at)}: {exc}") from exc
    return defs


def validate_run(scenario: Scenario, definitions, probe_plans, amendments) -> dict[str, CorpusDefinition]:
    """``validate_names``, the run can post every probe plan's carriers, and
    every probe and amendment falls inside the world, where the stream
    reaches it: one dated after the world's end would be posted or applied
    after the stream ends."""
    defs = validate_names(definitions, probe_plans, amendments)
    world = (f"outside the world, which runs from {format_timestamp(scenario.start)} "
             f"to {format_timestamp(scenario.end)}")
    for plan in probe_plans:
        for _, carrier in probe_carriers(defs[plan.corpus], plan.interval, plan.count):
            if not scenario.start <= carrier.created_at < scenario.end:
                raise ConfigError(f"corpus {plan.corpus!r} probe at {format_timestamp(carrier.created_at)}: {world}")
    for sa in amendments:
        if not scenario.start <= sa.plan.at < scenario.end:
            raise ConfigError(f"corpus {sa.corpus!r} amendment at {format_timestamp(sa.plan.at)}: {world}")
    return defs


def collect_run(scenario: Scenario, definitions, store, *, probe_plans=(), amendments=(),
                config_paths=(), manifest_path=None, logs_dir=None, clock_factory=None) -> RunManifest:
    """Run every corpus observer over the scenario's stream and account for it.

    A config error in the definitions, probe plans or amendments is raised
    before any probe is posted or row stored.  Probes are scheduled before
    any observer subscribes, so the probe tweets travel the same delivery
    path as regular traffic.  Every corpus is registered in the store first,
    so one that stores nothing still gets a completeness report.  Observers
    then run one after another, in sorted corpus order, on one shared store;
    the manifest gets one counter block per corpus plus a completeness report
    for every probed corpus.  Every observer runs even if an earlier one
    failed; the manifest is then written with status "failed" and the first
    error is re-raised.
    """
    defs = validate_run(scenario, definitions, probe_plans, amendments)
    config_pairs = tuple((str(p), file_hash(p)) for p in config_paths)
    run_id = derive_run_id(scenario.config.seed, [h for _, h in config_pairs], defs.keys())
    if logs_dir is not None:
        logs_dir = Path(logs_dir)
        logs_dir.mkdir(parents=True, exist_ok=True)

    source = open_source(scenario)
    handles = []
    probes_by_corpus: dict[str, list] = {}
    reports: list[CompletenessReport] = []
    error = None
    try:
        for name in sorted(defs):
            store.ensure_corpus(name)
        for plan in probe_plans:
            probes = inject_probes(defs[plan.corpus], source, interval=plan.interval, count=plan.count)
            probes_by_corpus[plan.corpus] = probes
            if logs_dir is not None and probes:
                write_probe_log(probes, logs_dir / f"probes-{plan.corpus}.ndjson")
        # observers run, and reports are made, in sorted corpus order: the manifest's order
        for name in sorted(defs):
            run_log = logs_dir / f"observer-{name}.ndjson" if logs_dir is not None else None
            plans = tuple(sa.plan for sa in amendments if sa.corpus == name)
            clock = clock_factory() if clock_factory is not None else None
            handles.append(run_observer(defs[name], source, store, amendments=plans,
                                        run_log=run_log, clock=clock))
        for h in handles:
            if h.fatal_error is not None:
                raise h.fatal_error
        for name in sorted(probes_by_corpus):
            if probes_by_corpus[name]:
                reports.append(compute_completeness(store, probes_by_corpus[name], window=defs[name].window))
    except Exception as exc:
        error = exc
    manifest = RunManifest(
        run_id=run_id, tool_version=__version__, seed=scenario.config.seed,
        started_at=scenario.start, ended_at=scenario.end, configs=config_pairs,
        corpora=tuple(h.counters for h in handles), completeness=tuple(reports),
        status="ok" if error is None else "failed",
        error=None if error is None else f"{type(error).__name__}: {error}",
    )
    if manifest_path is not None:
        write_manifest(manifest, manifest_path)
    if error is not None:
        raise error
    return manifest
