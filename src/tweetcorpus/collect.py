"""End-to-end collection runs: probes in, observers on, manifest out.

A run takes one platform source, a set of corpus definitions, and a shared
store, and leaves behind a manifest that records exactly what was collected
under which configuration.  The manifest is written even when the run fails,
so a crashed collection is still accountable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

from . import __version__
from .corpus import CorpusDefinition
from .errors import ConfigError, ParseError
from .observer import AmendmentEvent, AmendmentPlan, ObserverInstance, run_observer
from .probes import DEFAULT_INTERVAL, CompletenessReport, compute_completeness, inject_probes, report_json, write_probe_log
from .sim import Scenario, open_source
from .tweets import format_timestamp, parse_timestamp


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
    corpora: tuple[ObserverInstance, ...] = ()
    completeness: tuple[CompletenessReport, ...] = ()
    status: str = "ok"
    error: str | None = None

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
        "state": snap.state,
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
        "limitation": ev.limitation,
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


def write_manifest(m: RunManifest, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest_json(m), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def load_manifest(path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read manifest {path}: {exc}") from exc


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


def probe_plans_from_obj(doc) -> list[ProbePlan]:
    if not isinstance(doc, dict) or "probes" not in doc:
        raise ConfigError("probe config must be an object with a 'probes' list")
    plans: list[ProbePlan] = []
    for i, entry in enumerate(doc["probes"]):
        where = f"probes[{i}]"
        try:
            plans.append(ProbePlan(
                corpus=entry["corpus"],
                count=int(entry["count"]),
                interval=timedelta(seconds=float(entry.get("intervalSeconds", DEFAULT_INTERVAL.total_seconds()))),
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: {exc!r}") from exc
    return plans


def amendments_from_obj(doc) -> list[ScheduledAmendment]:
    if not isinstance(doc, dict) or "amendments" not in doc:
        raise ConfigError("amendment config must be an object with an 'amendments' list")
    out: list[ScheduledAmendment] = []
    for i, entry in enumerate(doc["amendments"]):
        where = f"amendments[{i}]"
        try:
            plan = AmendmentPlan(
                at=parse_timestamp(entry["at"]),
                accounts=tuple((a["id"], a["screenName"]) for a in entry.get("accounts", ())),
                keywords=tuple(entry.get("keywords", ())),
                backfill=bool(entry.get("backfill", True)),
            )
            out.append(ScheduledAmendment(corpus=entry["corpus"], plan=plan))
        except (KeyError, TypeError, ValueError, ParseError) as exc:
            raise ConfigError(f"{where}: {exc!r}") from exc
    return out


def _amendment_entry(sa: ScheduledAmendment) -> dict:
    return {
        "accounts": [{"id": i, "screenName": n} for i, n in sa.plan.accounts],
        "at": format_timestamp(sa.plan.at),
        "backfill": sa.plan.backfill,
        "corpus": sa.corpus,
        "keywords": list(sa.plan.keywords),
    }


def load_json_config(path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def append_amendment(path, sa: ScheduledAmendment) -> int:
    """Add one scheduled amendment to a batch file, creating it if absent.

    Returns the total number of amendments in the file afterwards.
    """
    path = Path(path)
    doc = load_json_config(path) if path.exists() else {"amendments": []}
    amendments_from_obj(doc)                       # reject malformed files before touching them
    doc["amendments"].append(_amendment_entry(sa))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return len(doc["amendments"])


def _validate_names(definitions, probe_plans, amendments) -> dict[str, CorpusDefinition]:
    if not definitions:
        raise ConfigError("a run needs at least one corpus definition")
    defs: dict[str, CorpusDefinition] = {}
    for d in definitions:
        if d.name in defs:
            raise ConfigError(f"duplicate corpus name {d.name!r}")
        defs[d.name] = d
    for plan in probe_plans:
        if plan.corpus not in defs:
            raise ConfigError(f"probe plan references unknown corpus {plan.corpus!r}")
    for sa in amendments:
        if sa.corpus not in defs:
            raise ConfigError(f"amendment references unknown corpus {sa.corpus!r}")
    return defs


def collect_run(scenario: Scenario, definitions, store, *, probe_plans=(), amendments=(),
                config_paths=(), manifest_path=None, logs_dir=None, clock_factory=None) -> RunManifest:
    """Run every corpus observer over the scenario's stream and account for it.

    Probes are scheduled before any observer subscribes, so the probe tweets
    travel the same delivery path as regular traffic.  Every corpus is
    registered in the store first, so one that stores nothing still gets a
    completeness report.  Observers then run one after another, in sorted
    corpus order, on one shared store; the manifest gets one counter block per
    corpus plus a completeness report for every probed corpus.  Every observer
    runs even if an earlier one failed; the manifest is then written with
    status "failed" and the first error is re-raised.
    """
    defs = _validate_names(definitions, probe_plans, amendments)
    config_pairs = tuple((str(p), file_hash(p)) for p in config_paths)
    run_id = derive_run_id(scenario.config.seed, [h for _, h in config_pairs], defs.keys())
    if logs_dir is not None:
        logs_dir = Path(logs_dir)
        logs_dir.mkdir(parents=True, exist_ok=True)

    source = open_source(scenario)
    handles = []
    probes_by_corpus: dict[str, list] = {}
    reports: list[CompletenessReport] = []

    def build(status: str, error: str | None, snaps) -> RunManifest:
        return RunManifest(
            run_id=run_id, tool_version=__version__, seed=scenario.config.seed,
            started_at=scenario.start, ended_at=scenario.end, configs=config_pairs,
            corpora=tuple(sorted(snaps, key=lambda s: s.corpus)),
            completeness=tuple(sorted(reports, key=lambda r: r.corpus)),
            status=status, error=error,
        )

    try:
        for name in sorted(defs):
            store.ensure_corpus(name)
        for plan in probe_plans:
            probes = inject_probes(defs[plan.corpus], source, interval=plan.interval, count=plan.count)
            probes_by_corpus[plan.corpus] = probes
            if logs_dir is not None and probes:
                write_probe_log(probes, logs_dir / f"probes-{plan.corpus}.ndjson")
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
        manifest = build("failed", f"{type(exc).__name__}: {exc}", [h.snapshot() for h in handles])
        if manifest_path is not None:
            write_manifest(manifest, manifest_path)
        raise
    manifest = build("ok", None, [h.snapshot() for h in handles])
    if manifest_path is not None:
        write_manifest(manifest, manifest_path)
    return manifest
