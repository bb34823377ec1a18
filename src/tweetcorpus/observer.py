"""Stream observers.

Each observer subscribes to a stream source with a compiled query,
re-checks every delivered event against the corpus matcher, and appends
the matches to the store.  Transport is at-least-once: the store append
is idempotent and redeliveries surface as a duplicate count, not as
double rows.

A refused subscription and a dropped stream are one outage: either opens
a gap record and starts bounded exponential backoff (1 s initial,
doubling, 60 s cap, 10 attempts); the gap closes at the reconnect time,
so every event lost while disconnected falls inside a recorded interval.
Scheduled amendments widen the query forward from their timestamp and
recover the authored backlog of added accounts; mentions of those
accounts from before the amendment stay unrecoverable, and the amendment
record says so.  A streamed event and a backfilled tweet take the same
path into the store, counters and run log; a backfilled one is stored and
logged at the amendment time, marked ``via: "backfill"``, and only the
matched ones count as seen.

``run_observer`` runs one observer to completion in the calling thread.
Observers of different corpora share nothing but the source and the
store, so running them one after another gives the same corpora as any
interleaving.
"""

from __future__ import annotations

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
from .tweets import TweetRecord, format_timestamp, json_line

BACKOFF_INITIAL_S = 1
BACKOFF_CAP_S = 60
MAX_RETRIES = 10
APPEND_ATTEMPTS = 3

NOT_RECOVERABLE = (
    "mentions and name-hashtag uses of the added accounts from before the "
    "amendment are not recoverable from the source"
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
    state: str  # always "stopped": snapshots are taken after the run
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
            state="stopped",
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
            if self._log_fh:
                self._log_fh.close()

    def _loop(self):
        at, sub = None, None
        while True:
            try:
                if sub is None:
                    sub = self._source.subscribe(self._query, at=at, subscriber=self.observer_id)
                self._dropped_base = self._dropped
                self._log("subscribed", at, query={
                    "followIds": list(self._query.follow_ids),
                    "trackTerms": list(self._query.track_terms),
                    "sample": self._query.sample,
                })
                at, sub = self._consume(sub), None
            except SourceUnavailable:
                at, sub = self._reconnect(at or self._definition.window.start)
            except SourceDisconnected as exc:
                at, sub = self._reconnect(exc.at)
            if at is None:
                return

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
            self._seen += 1
            if matches(t, self._definition):
                self._process(t, t.created_at, is_probe=item.is_probe)
        if self._pending:
            return self._amend(self._pending.pop(0))
        return None

    def _process(self, t: TweetRecord, at: datetime, *, is_probe: bool = False, **via):
        """Count, store and log one matched tweet; ``at`` is its stored and logged time."""
        self._matched += 1
        self._log("matched", at, tweetId=t.id, **via)
        outcome = self._append(t, is_probe=is_probe, stored_at=at)
        if outcome == "appended":
            self._stored += 1
        else:
            self._duplicates += 1
        self._log("stored" if outcome == "appended" else "duplicate", at, tweetId=t.id, **via)

    def _append(self, t, *, is_probe, stored_at):
        last = None
        for _ in range(APPEND_ATTEMPTS):
            try:
                return self._sink.append(t, self._definition.name, is_probe=is_probe, stored_at=stored_at)
            except StoreError as exc:
                last = exc
        raise last

    def _reconnect(self, opened_at: datetime):
        """Open a gap, then retry with backoff; returns the reconnect time and
        the subscription it opened, or (None, None) when the retries run out
        and the gap stays open."""
        self._gaps.append(GapRecord(opened_at=opened_at, closed_at=None))
        self._log("gap-open", opened_at)
        delay = BACKOFF_INITIAL_S
        elapsed = 0
        for _ in range(MAX_RETRIES):
            elapsed += delay
            delay = min(delay * 2, BACKOFF_CAP_S)
            attempt = opened_at + timedelta(seconds=elapsed)
            if self._clock is not None:
                self._clock.sleep_until(attempt)
            try:
                sub = self._source.subscribe(self._query, at=attempt, subscriber=self.observer_id)
            except SourceUnavailable:
                continue
            self._gaps[-1] = GapRecord(opened_at=opened_at, closed_at=attempt)
            self._log("gap-close", attempt, openedAt=format_timestamp(opened_at))
            return attempt, sub
        return None, None

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
        recovered = [t for t in self._source.backfill_timeline(uid, since)
                     if t.created_at < at and matches(t, self._definition)]
        for t in recovered:
            self._seen += 1
            self._process(t, at, via="backfill")
        earliest = min((t.created_at for t in recovered), default=None)
        return BackfillSummary(user_id=uid, screen_name=name, recovered=len(recovered), earliest=earliest)

    # -- run log --------------------------------------------------------------

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
        self._log_fh.write(json_line(obj) + "\n")


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
