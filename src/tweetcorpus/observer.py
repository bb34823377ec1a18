"""Stream observers.

Each observer subscribes to a stream source with a compiled query,
re-checks every delivered event against the corpus matcher, and appends
the matches to the store.  Transport is at-least-once: the store append
is idempotent and redeliveries surface as a duplicate count, not as
double rows.

Disconnects open a gap record and trigger bounded exponential backoff
(1 s initial, doubling, 60 s cap, 10 attempts); the gap closes at the
reconnect time, so every event lost while disconnected falls inside a
recorded interval.  Scheduled amendments widen the query forward from
their timestamp and recover the authored backlog of added accounts;
mentions of those accounts from before the amendment stay unrecoverable,
and the amendment record says so.

``run_observer`` runs one observer to completion in the calling thread.
Observers of different corpora share nothing but the source and the
store, so running them one after another gives the same corpora as any
interleaving.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from datetime import datetime, timedelta
from pathlib import Path

from .corpus import (
    AccountQuery,
    CorpusDefinition,
    KeywordQuery,
    StreamQuery,
    compile_query,
    matches,
)
from .errors import ConfigError, SourceDisconnected, SourceUnavailable, StoreError
from .tweets import TweetRecord, format_timestamp

BACKOFF_INITIAL_S = 1
BACKOFF_CAP_S = 60
MAX_RETRIES = 10
APPEND_ATTEMPTS = 3

NOT_RECOVERABLE = (
    "mentions and name-hashtag uses of the added accounts from before the "
    "amendment are not recoverable from the source"
)

RUN_LOG_EVENTS = (
    "subscribed", "matched", "stored", "duplicate",
    "gap-open", "gap-close", "amendment",
)


class AcceleratedClock:
    """Simulated-time clock: sleeping is bookkeeping, never waiting."""

    def __init__(self, now: datetime | None = None):
        self.now = now

    def sleep_until(self, t: datetime):
        if self.now is None or t > self.now:
            self.now = t


class RealtimeClock(AcceleratedClock):
    """Clock that really waits; reconnect backoff takes wall-clock time."""

    def sleep_until(self, t: datetime):
        if self.now is not None:
            delta = (t - self.now).total_seconds()
            if delta > 0:
                time.sleep(delta)
        super().sleep_until(t)


@dataclass(frozen=True)
class GapRecord:
    """Interval of lost coverage; ``closed_at`` None means never recovered."""

    opened_at: datetime
    closed_at: datetime | None


@dataclass(frozen=True)
class BackfillSummary:
    user_id: int
    screen_name: str
    recovered: int
    earliest: datetime | None


@dataclass(frozen=True)
class AmendmentEvent:
    at: datetime
    corpus: str
    added_accounts: tuple[tuple[int, str], ...]
    added_keywords: tuple[str, ...]
    backfill: tuple[BackfillSummary, ...]
    limitation: str = NOT_RECOVERABLE


@dataclass(frozen=True)
class AmendmentPlan:
    """A pre-scheduled amendment, applied when the stream reaches ``at``."""

    at: datetime
    accounts: tuple[tuple[int, str], ...] = ()
    keywords: tuple[str, ...] = ()
    backfill: bool = True


@dataclass(frozen=True)
class ObserverInstance:
    """Point-in-time snapshot of one observer's state and counters."""

    observer_id: str
    corpus: str
    query: StreamQuery
    state: str  # starting | stopped
    seen: int
    matched: int
    stored: int
    duplicates: int
    dropped_by_source: int
    gaps: tuple[GapRecord, ...]
    amendments: tuple[AmendmentEvent, ...]


def _widened(definition: CorpusDefinition, accounts, keywords):
    """Return (widened definition, fresh accounts, fresh keywords)."""
    accounts = tuple((int(u), str(n)) for u, n in accounts)
    keywords = tuple(str(k) for k in keywords)
    if not accounts and not keywords:
        raise ConfigError("amendment must add at least one account or keyword")
    s = definition.strategy
    if isinstance(s, AccountQuery):
        if keywords:
            raise ConfigError(f"{definition.name}: keyword additions need a keyword collection")
        fresh = tuple(a for a in accounts if a[0] not in s.user_ids)
        if not fresh:
            raise ConfigError(f"{definition.name}: all added accounts are already observed")
        widened = replace(s, accounts=s.accounts + fresh)
        return replace(definition, strategy=widened), fresh, ()
    if isinstance(s, KeywordQuery):
        if accounts:
            raise ConfigError(f"{definition.name}: account additions need an account collection")
        fresh = tuple(k for k in keywords if k.lower().lstrip("#") not in s.hashtags)
        if not fresh:
            raise ConfigError(f"{definition.name}: all added keywords are already tracked")
        widened = replace(s, hashtags=s.hashtags + fresh)
        return replace(definition, strategy=widened), (), fresh
    raise ConfigError(f"{definition.name}: this collection strategy cannot be amended")


class ObserverHandle:
    """One observer's definition, counters and run log.

    ``run_observer`` runs it to completion; afterwards ``snapshot`` gives
    the final counters and ``fatal_error`` the error that ended it, if any.
    """

    def __init__(self, definition, source, sink, *, amendments=(), run_log=None, clock=None):
        self._definition = definition
        self._query = compile_query(definition)
        self._source = source
        self._sink = sink
        self.observer_id = f"to-{definition.name}"
        self._clock = clock
        self._pending = sorted(amendments, key=lambda p: p.at)

        self._state = "starting"
        self._seen = 0
        self._matched = 0
        self._stored = 0
        self._duplicates = 0
        self._dropped = 0
        self._dropped_base = 0
        self._gaps: list[GapRecord] = []
        self._amendments: list[AmendmentEvent] = []
        self.fatal_error: Exception | None = None
        self._log_fh = open(Path(run_log), "a", encoding="utf-8", buffering=1) if run_log else None

    def snapshot(self) -> ObserverInstance:
        return ObserverInstance(
            observer_id=self.observer_id,
            corpus=self._definition.name,
            query=self._query,
            state=self._state,
            seen=self._seen,
            matched=self._matched,
            stored=self._stored,
            duplicates=self._duplicates,
            dropped_by_source=self._dropped,
            gaps=tuple(self._gaps),
            amendments=tuple(self._amendments),
        )

    # -- observer loop --------------------------------------------------------

    def _run(self):
        try:
            self._loop()
        except Exception as exc:  # fatal: recorded on the handle for the caller
            self.fatal_error = exc
        finally:
            self._state = "stopped"
            if self._log_fh:
                self._log_fh.close()

    def _loop(self):
        at = None
        while True:
            try:
                sub = self._subscribe(at)
            except SourceUnavailable:
                origin = at if at is not None else self._definition.window.start
                self._open_gap(origin)
                at = self._reconnect(origin)
                if at is None:
                    return
                continue
            self._log("subscribed", at, query={
                "followIds": list(self._query.follow_ids),
                "trackTerms": list(self._query.track_terms),
                "sample": self._query.sample,
            })
            try:
                resume_at = self._consume(sub)
            except SourceDisconnected as exc:
                self._open_gap(exc.at)
                at = self._reconnect(exc.at)
                if at is None:
                    return
                continue
            if resume_at is None:
                return
            at = resume_at

    def _subscribe(self, at):
        self._dropped_base = self._dropped
        return self._source.subscribe(self._query, at=at, subscriber=self.observer_id)

    def _consume(self, sub):
        """Process items; returns a resubscribe time after an amendment."""
        for item in sub:
            if item.kind == "limit":
                self._dropped = self._dropped_base + item.dropped_total
                continue
            t = item.tweet
            if self._pending and self._pending[0].at <= t.created_at:
                # apply before delivering the first at-or-after event; the
                # new subscription redelivers this item
                return self._amend(self._pending.pop(0))
            self._process(t, item.is_probe)
        if self._pending:
            return self._amend(self._pending.pop(0))
        return None

    def _process(self, t: TweetRecord, is_probe: bool):
        self._seen += 1
        if not matches(t, self._definition):
            return
        self._matched += 1
        self._log("matched", t.created_at, tweetId=t.id)
        outcome = self._append(t, is_probe=is_probe, stored_at=t.created_at)
        if outcome == "appended":
            self._stored += 1
        else:
            self._duplicates += 1
        self._log("stored" if outcome == "appended" else "duplicate", t.created_at, tweetId=t.id)

    def _append(self, t, *, is_probe, stored_at):
        last = None
        for _ in range(APPEND_ATTEMPTS):
            try:
                return self._sink.append(t, self._definition.name, is_probe=is_probe, stored_at=stored_at)
            except StoreError as exc:
                last = exc
        raise last

    def _reconnect(self, opened_at: datetime):
        """Backoff retries; returns the reconnect time, or None if exhausted."""
        delay = BACKOFF_INITIAL_S
        elapsed = 0
        for _ in range(MAX_RETRIES):
            elapsed += delay
            delay = min(delay * 2, BACKOFF_CAP_S)
            attempt = opened_at + timedelta(seconds=elapsed)
            if self._clock is not None:
                self._clock.sleep_until(attempt)
            try:
                self._source.subscribe(self._query, at=attempt, subscriber=self.observer_id)
            except SourceUnavailable:
                continue
            self._close_gap(attempt)
            return attempt
        return None  # terminal gap stays open

    def _amend(self, plan: AmendmentPlan) -> datetime:
        """Widen the query from ``plan.at``; returns the resubscribe time."""
        widened, fresh_accounts, fresh_keywords = _widened(self._definition, plan.accounts, plan.keywords)
        self._definition = widened
        self._query = compile_query(widened)
        summaries = []
        if plan.backfill:
            summaries = [self._backfill_account(uid, name, plan.at) for uid, name in fresh_accounts]
        self._amendments.append(AmendmentEvent(
            at=plan.at,
            corpus=widened.name,
            added_accounts=fresh_accounts,
            added_keywords=fresh_keywords,
            backfill=tuple(summaries),
        ))
        self._log(
            "amendment", plan.at,
            addedAccounts=[list(a) for a in fresh_accounts],
            addedKeywords=list(fresh_keywords),
            recovered=sum(s.recovered for s in summaries),
            limitation=NOT_RECOVERABLE,
        )
        return plan.at

    def _backfill_account(self, uid, name, at):
        """Authored backlog only; the source has no call for old mentions."""
        since = self._definition.window.start
        recovered = [t for t in self._source.backfill_timeline(uid, since) if t.created_at < at]
        count = 0
        earliest = None
        for t in recovered:
            if not matches(t, self._definition):
                continue
            count += 1
            earliest = t.created_at if earliest is None else min(earliest, t.created_at)
            self._seen += 1
            self._matched += 1
            self._log("matched", at, tweetId=t.id, via="backfill")
            outcome = self._append(t, is_probe=False, stored_at=at)
            if outcome == "appended":
                self._stored += 1
            else:
                self._duplicates += 1
            self._log("stored" if outcome == "appended" else "duplicate",
                      at, tweetId=t.id, via="backfill")
        return BackfillSummary(user_id=uid, screen_name=name, recovered=count, earliest=earliest)

    # -- bookkeeping ----------------------------------------------------------

    def _open_gap(self, opened_at):
        self._gaps.append(GapRecord(opened_at=opened_at, closed_at=None))
        self._log("gap-open", opened_at)

    def _close_gap(self, closed_at):
        g = self._gaps[-1]
        self._gaps[-1] = GapRecord(opened_at=g.opened_at, closed_at=closed_at)
        self._log("gap-close", closed_at, openedAt=format_timestamp(g.opened_at))

    def _log(self, event, at, **extra):
        if self._log_fh is None:
            return
        obj = {
            "event": event,
            "at": format_timestamp(at) if at is not None else None,
            "observerId": self.observer_id,
            "corpus": self._definition.name,
        }
        obj.update(extra)
        self._log_fh.write(json.dumps(obj, ensure_ascii=False, separators=(",", ":")) + "\n")


def run_observer(definition: CorpusDefinition, source, sink, *, amendments=(),
                 run_log=None, clock=None) -> ObserverHandle:
    """Run one observer to completion in the calling thread; return its handle.

    A fatal error does not raise here: it ends the observer and is left on
    ``handle.fatal_error`` for the caller to act on.
    """
    handle = ObserverHandle(definition, source, sink, amendments=amendments,
                            run_log=run_log, clock=clock)
    handle._run()
    return handle
