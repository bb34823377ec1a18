"""Completeness measurement with synthetic probe tweets.

A probe is a real tweet posted into the source that is constructed to
match one corpus and to carry a unique marker token, both in the text
and as a hashtag.  Probes ride the full delivery path and land in the
store flagged as probes; comparing created against stored markers gives
the completeness estimate, and the per-interval breakdown shows when
the losses happened.

Identification is by marker only.  Position, ordering, and the volume
of unrelated traffic never enter the computation.
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
)
from .errors import AnalysisError, ConfigError
from .tweets import TweetRecord, extract_entities, format_timestamp, json_line, parse_timestamp, read_ndjson

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
    """Probe fate within one injection interval."""

    start: datetime
    end: datetime
    created: int
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


def _carrier(definition: CorpusDefinition, marker: str, at: datetime, author) -> TweetRecord:
    """Build a tweet that the corpus matcher must accept."""
    s = definition.strategy
    words = ["kontrolle", marker, "#" + marker]
    geo = None
    language = None
    urls = ()
    is_retweet = False
    has_image = False
    if isinstance(s, KeywordQuery):
        if s.hashtags:
            words.append("#" + s.hashtags[0])
        else:
            words.append(s.terms[0])
    elif isinstance(s, AccountQuery):
        if author[0] not in s.user_ids:
            raise ConfigError(
                f"{definition.name}: probe author {author[1]} is not on the account list; "
                "add the measurement account to the corpus before probing"
            )
    elif isinstance(s, MetadataQuery):
        if s.country:
            geo = (51.0, 10.0, s.country)
        if s.languages:
            language = sorted(s.languages)[0]
        if "must_have_url" in s.format:
            urls = (f"https://t.co/{marker}",)
            words.append(urls[0])
        if "retweets_only" in s.format:
            is_retweet = True
        if "must_have_image" in s.format:
            has_image = True
    else:
        raise ConfigError(
            f"{definition.name}: a random-sample corpus cannot be probed; "
            "acceptance is decided by the id the source assigns"
        )
    text = " ".join(words)
    hashtags, mentions = extract_entities(text)
    return TweetRecord(
        id=0, user_id=author[0], screen_name=author[1], created_at=at, text=text,
        hashtags=hashtags, mentions=mentions, urls=urls, is_retweet=is_retweet,
        geo=geo, language=language, has_image=has_image,
    )


def inject_probes(definition: CorpusDefinition, source, interval: timedelta = DEFAULT_INTERVAL,
                  count: int = 1, start: datetime | None = None,
                  author=PROBE_AUTHOR) -> list[ProbeRecord]:
    """Post ``count`` probes, one per ``interval``, starting one interval
    after ``start`` (default: the corpus window start).

    Every carrier is checked against the corpus matcher before posting.
    A refused post aborts the whole injection; no partial log is returned.
    """
    if count < 0:
        raise ConfigError(f"probe count must be >= 0, got {count}")
    if interval <= timedelta(0):
        raise ConfigError(f"probe interval must be positive, got {interval}")
    t0 = start if start is not None else definition.window.start
    carriers = []
    for i in range(count):
        at = t0 + interval * (i + 1)
        marker = _marker(definition.name, i, at)
        carrier = _carrier(definition, marker, at, author)
        if not matches(carrier, definition):
            raise AnalysisError(
                f"{definition.name}: constructed probe does not match its own corpus "
                f"(injected_at {format_timestamp(at)})"
            )
        carriers.append((marker, carrier))
    records = []
    for i, (marker, carrier) in enumerate(carriers):
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
    found = set()
    for row in store.scan(corpus, include_probes=True):
        if row.is_probe:
            found.update(h.text for h in row.tweet.hashtags)
    intervals = []
    stored_total = 0
    for i, p in enumerate(in_window):
        end = in_window[i + 1].injected_at if i + 1 < len(in_window) else window.end
        hit = 1 if p.marker in found else 0
        stored_total += hit
        intervals.append(IntervalOutcome(start=p.injected_at, end=end, created=1, stored=hit))
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
                "created": iv.created,
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
        probe_id=int(obj["probeId"]),
        corpus=obj["corpus"],
        injected_at=parse_timestamp(obj["injectedAt"]),
        carrier_id=int(obj["carrierId"]),
        marker=obj["marker"],
    )


def read_probe_log(path) -> list[ProbeRecord]:
    return list(read_ndjson(path, _probe_record))
