"""Completeness measurement with synthetic probe tweets.

A probe is a real tweet posted into the source that is constructed to
match one corpus and to carry a unique marker token, both in the text
and as a hashtag.  Probes ride the full delivery path and land in the
store flagged as probes; comparing created against stored probes gives
the completeness estimate, and the per-interval breakdown shows when
the losses happened.

Identification is by carrier id: the id the source assigned at posting,
which the probe log records, counts as stored when the store's index
holds it as a probe row of the corpus.  Position, ordering, and the
volume of unrelated traffic never enter the computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

from .corpus import (
    AccountQuery,
    CorpusDefinition,
    KeywordQuery,
    MetadataQuery,
    TimeWindow,
    matches,
    text_tokens,
)
from .errors import AnalysisError, ConfigError
from .tweets import TweetRecord, extract_entities, format_timestamp, json_field, json_line, read_ndjson

# the designated measurement account; for account-list corpora it must be
# on the observed list for its probes to match
PROBE_AUTHOR = (999_999, "messfeder")

DEFAULT_INTERVAL = timedelta(minutes=10)


@dataclass(frozen=True)
class ProbeRecord:
    probe_id: int
    corpus: str
    injected_at: datetime
    carrier_id: int
    marker: str


@dataclass(frozen=True)
class IntervalOutcome:
    """Probe fate within one injection interval, which holds one created probe."""

    start: datetime
    end: datetime
    stored: int


@dataclass(frozen=True)
class CompletenessReport:
    corpus: str
    window: TimeWindow
    created: int
    stored: int
    completeness: float
    intervals: tuple[IntervalOutcome, ...]


def _marker(corpus: str, seq: int, at: datetime) -> str:
    safe = "".join(c if c.isalnum() else "" for c in corpus.lower())
    return f"probe_{safe}_{seq:04d}_{at:%Y%m%dt%H%M%S}"


def _carrier(definition: CorpusDefinition, marker: str, at: datetime) -> TweetRecord:
    """Build a tweet that the corpus matcher must accept: its strategy's
    query and every metadata constraint, the strategy's and the corpus's."""
    s = definition.strategy
    words = ["kontrolle", marker, "#" + marker]
    if isinstance(s, KeywordQuery):
        if s.hashtags:
            words.append("#" + s.hashtags[0])
        else:  # a term without tokens matches no text
            words.append(next((t for t in s.terms if text_tokens(t)), s.terms[0]))
    elif isinstance(s, AccountQuery):
        if PROBE_AUTHOR[0] not in s.user_ids:
            raise ConfigError(
                f"{definition.name}: probe author {PROBE_AUTHOR[1]} is not on the account list; "
                "add the measurement account to the corpus before probing"
            )
    elif not isinstance(s, MetadataQuery):
        raise ConfigError(
            f"{definition.name}: a random-sample corpus cannot be probed; "
            "acceptance is decided by the id the source assigns"
        )
    # conflicting constraints (two countries, disjoint languages) leave a
    # carrier that the matcher refuses
    constraints = [q for q in (s, definition.extra_metadata) if isinstance(q, MetadataQuery)]
    country = next((q.country for q in constraints if q.country is not None), None)
    languages = [q.languages for q in constraints if q.languages is not None]
    flags = frozenset().union(*(q.format for q in constraints))
    urls = (f"https://t.co/{marker}",) if "must_have_url" in flags else ()
    text = " ".join(words + list(urls))
    hashtags, mentions = extract_entities(text)
    return TweetRecord(
        id=0, user_id=PROBE_AUTHOR[0], screen_name=PROBE_AUTHOR[1], created_at=at, text=text,
        hashtags=hashtags, mentions=mentions, urls=urls, is_retweet="retweets_only" in flags,
        geo=(51.0, 10.0, country) if country is not None else None,
        language=min(frozenset.intersection(*languages), default=None) if languages else None,
        has_image="must_have_image" in flags,
    )


def probe_carriers(definition: CorpusDefinition, interval: timedelta, count: int) -> list[tuple[str, TweetRecord]]:
    """The ``(marker, carrier)`` of each of ``count`` probes, one per
    ``interval`` from one interval after the corpus window start, each
    checked against the corpus matcher; posts nothing.  A plan whose last
    probe would fall at or after the window end is a ConfigError."""
    if count < 0:
        raise ConfigError(f"probe count must be >= 0, got {count}")
    if interval <= timedelta(0):
        raise ConfigError(f"probe interval must be positive, got {interval}")
    if count and definition.window.start + interval * count >= definition.window.end:
        raise ConfigError(
            f"{definition.name}: {count} probes every {interval.total_seconds():g} s run past "
            f"the window end {format_timestamp(definition.window.end)}"
        )
    carriers = []
    for i in range(count):
        at = definition.window.start + interval * (i + 1)
        marker = _marker(definition.name, i, at)
        carrier = _carrier(definition, marker, at)
        if not matches(carrier, definition):
            raise AnalysisError(
                f"{definition.name}: constructed probe does not match its own corpus "
                f"(injected_at {format_timestamp(at)})"
            )
        carriers.append((marker, carrier))
    return carriers


def inject_probes(definition: CorpusDefinition, source, interval: timedelta = DEFAULT_INTERVAL,
                  count: int = 1) -> list[ProbeRecord]:
    """Post the ``probe_carriers`` of ``definition`` by ``PROBE_AUTHOR``.

    A refused post aborts the whole injection; no partial log is returned.
    """
    records = []
    for i, (marker, carrier) in enumerate(probe_carriers(definition, interval, count)):
        assigned = source.post_probe(carrier)
        records.append(ProbeRecord(
            probe_id=i, corpus=definition.name, injected_at=carrier.created_at,
            carrier_id=assigned.id, marker=marker,
        ))
    return records


def compute_completeness(store, probes, window: TimeWindow) -> CompletenessReport:
    """Stored/created ratio over the probes injected inside ``window``."""
    corpora = {p.corpus for p in probes}
    if len(corpora) > 1:
        raise AnalysisError(f"probe log spans several corpora: {sorted(corpora)}")
    in_window = sorted((p for p in probes if window.contains(p.injected_at)),
                       key=lambda p: p.injected_at)
    if not in_window:
        raise AnalysisError(
            "no probes were created in the window; completeness is undefined "
            "(not 0 and not 1)"
        )
    corpus = in_window[0].corpus
    found = store.ids(corpus, probes=True)
    intervals = []
    stored_total = 0
    for i, p in enumerate(in_window):
        end = in_window[i + 1].injected_at if i + 1 < len(in_window) else window.end
        hit = 1 if p.carrier_id in found else 0
        stored_total += hit
        intervals.append(IntervalOutcome(start=p.injected_at, end=end, stored=hit))
    return CompletenessReport(
        corpus=corpus,
        window=window,
        created=len(in_window),
        stored=stored_total,
        completeness=stored_total / len(in_window),
        intervals=tuple(intervals),
    )


def report_json(report: CompletenessReport) -> dict:
    return {
        "corpus": report.corpus,
        "window": {
            "start": format_timestamp(report.window.start),
            "end": format_timestamp(report.window.end),
        },
        "created": report.created,
        "stored": report.stored,
        "completeness": report.completeness,
        "intervals": [
            {
                "start": format_timestamp(iv.start),
                "end": format_timestamp(iv.end),
                "created": 1,
                "stored": iv.stored,
            }
            for iv in report.intervals
        ],
    }


def write_probe_log(probes, path) -> Path:
    """Persist the probe log as newline-delimited JSON."""
    p = Path(path)
    with open(p, "w", encoding="utf-8") as fh:
        for r in probes:
            fh.write(json_line({
                "probeId": r.probe_id,
                "corpus": r.corpus,
                "injectedAt": format_timestamp(r.injected_at),
                "carrierId": r.carrier_id,
                "marker": r.marker,
            }) + "\n")
    return p


def _probe_record(obj) -> ProbeRecord:
    return ProbeRecord(
        probe_id=json_field(obj, "probeId", int),
        corpus=json_field(obj, "corpus", str),
        injected_at=json_field(obj, "injectedAt", datetime),
        carrier_id=json_field(obj, "carrierId", int),
        marker=json_field(obj, "marker", str),
    )


def read_probe_log(path) -> list[ProbeRecord]:
    return list(read_ndjson(path, _probe_record))
