"""Observer runtime: exact collection, gaps, amendments, counters."""

import json
import math
from datetime import datetime, timedelta, timezone

import pytest

from test_corpus import oracle_matches

from tweetcorpus.corpus import (
    AccountQuery,
    CorpusDefinition,
    KeywordQuery,
    RandomSampleQuery,
    TimeWindow,
)
from tweetcorpus.errors import ConfigError, StoreError
from tweetcorpus.observer import AcceleratedClock, AmendmentPlan, run_observer
from tweetcorpus.sim import (
    DisconnectWindow,
    EmergentParty,
    FaultSchedule,
    StreamItem,
    build_scenario,
    bundestag_mini,
    open_source,
)
from tweetcorpus.store import CorpusStore
from tweetcorpus.tweets import TweetRecord, extract_entities


def world(seed=7, **kw):
    base = dict(n_candidates=12, n_journalists=4, n_editors=2, n_public=30,
                n_tweets=600, duration_s=6000, emergent=EmergentParty(account_count=5))
    base.update(kw)
    return build_scenario(bundestag_mini(seed=seed, **base))


def candidate_def(s, name="kand"):
    accounts = tuple((a.user_id, a.screen_name) for a in s.accounts_of_kind("candidate"))
    return CorpusDefinition(name, AccountQuery(accounts=accounts), TimeWindow(s.start, s.end))


def keyword_def(s, name="tag"):
    return CorpusDefinition(name, KeywordQuery(hashtags=("wahl2013",)), TimeWindow(s.start, s.end))


def everything_def(s, name="alles"):
    return CorpusDefinition(name, RandomSampleQuery(rate=1.0, seed=1), TimeWindow(s.start, s.end))


def oracle_ids(s, d):
    return {t.id for t in s.timeline if oracle_matches(t, d)}


def algebra_ok(snap):
    return snap.seen >= snap.matched == snap.stored + snap.duplicates


def finish(h):
    """Final snapshot of an observer that ``run_observer`` ran to completion."""
    return h.snapshot()


class TestFaultFreeRuns:
    def test_account_corpus_equals_ground_truth(self, tmp_path):
        s = world()
        d = candidate_def(s)
        with CorpusStore(tmp_path / "store") as store:
            h = run_observer(d, open_source(s), store)
            snap = finish(h)
            assert h.fatal_error is None
            assert snap.state == "stopped"
            assert snap.duplicates == 0
            assert algebra_ok(snap)
            stored = {r.tweet.id for r in store.scan("kand")}
        assert stored == oracle_ids(s, d)

    def test_keyword_corpus_equals_ground_truth(self, tmp_path):
        s = world()
        d = keyword_def(s)
        with CorpusStore(tmp_path / "store") as store:
            h = run_observer(d, open_source(s), store)
            snap = finish(h)
            assert snap.stored == len(oracle_ids(s, d)) > 0
            assert {r.tweet.id for r in store.scan("tag")} == oracle_ids(s, d)

    def test_no_false_positives_on_rescan(self, tmp_path):
        s = world()
        d = candidate_def(s)
        with CorpusStore(tmp_path / "store") as store:
            finish(run_observer(d, open_source(s), store))
            for row in store.scan("kand"):
                assert oracle_matches(row.tweet, d)

    def test_counters_equal_store_counts(self, tmp_path):
        s = world()
        defs = [candidate_def(s), keyword_def(s)]
        with CorpusStore(tmp_path / "store") as store:
            snaps = [finish(run_observer(d, open_source(s), store)) for d in defs]
            for d, snap in zip(defs, snaps):
                assert store.count(d.name) == snap.stored

    def test_concurrent_observers_one_store(self, tmp_path):
        s = world()
        defs = [
            candidate_def(s),
            keyword_def(s),
            CorpusDefinition("presse", AccountQuery(accounts=tuple(
                (a.user_id, a.screen_name) for a in s.accounts_of_kind("journalist"))),
                TimeWindow(s.start, s.end)),
            everything_def(s),
        ]
        with CorpusStore(tmp_path / "store") as store:
            src = open_source(s)
            handles = [run_observer(d, src, store) for d in defs]
            snaps = [finish(h) for h in handles]
            for d, snap in zip(defs, snaps):
                assert snap.duplicates == 0
                assert algebra_ok(snap)
                assert {r.tweet.id for r in store.scan(d.name)} == oracle_ids(s, d)


class TestFaults:
    def window_def(self, s):
        return everything_def(s)

    def test_gap_aligns_with_backoff_and_duplicates_counted(self, tmp_path):
        # 15 s outage: retry ladder 1+2+4+8 lands exactly on the window end
        s = world(faults=FaultSchedule(
            disconnect_windows=(DisconnectWindow(3000, 3015),), redeliver_on_reconnect=10))
        d = self.window_def(s)
        gap_start = s.start + timedelta(seconds=3000)
        gap_end = s.start + timedelta(seconds=3015)
        with CorpusStore(tmp_path / "store") as store:
            clock = AcceleratedClock(now=s.start)
            h = run_observer(d, open_source(s), store, clock=clock)
            snap = finish(h)
            assert h.fatal_error is None
            assert snap.gaps == ((gap_start, gap_end),) or [
                (g.opened_at, g.closed_at) for g in snap.gaps] == [(gap_start, gap_end)]
            assert snap.duplicates == 10
            assert clock.now == gap_end
            stored = {r.tweet.id for r in store.scan(d.name)}
        expected = {t.id for t in s.timeline if not gap_start <= t.created_at < gap_end}
        assert stored == expected

    def test_missing_tweets_fall_inside_recorded_gap(self, tmp_path):
        s = world(faults=FaultSchedule(disconnect_windows=(DisconnectWindow(2000, 2100),)))
        d = self.window_def(s)
        with CorpusStore(tmp_path / "store") as store:
            snap = finish(run_observer(d, open_source(s), store))
            stored = {r.tweet.id for r in store.scan(d.name)}
        by_id = {t.id: t for t in s.timeline}
        assert len(snap.gaps) == 1
        opened, closed = snap.gaps[0].opened_at, snap.gaps[0].closed_at
        missing = oracle_ids(s, d) - stored
        assert missing
        for mid in missing:
            assert opened <= by_id[mid].created_at < closed

    def test_retries_exhausted_leaves_terminal_gap(self, tmp_path):
        # outage longer than the whole retry ladder (1+2+4+8+16+32+60*4 = 303 s)
        s = world(faults=FaultSchedule(disconnect_windows=(DisconnectWindow(1000, 1400),)))
        d = self.window_def(s)
        with CorpusStore(tmp_path / "store") as store:
            snap = finish(run_observer(d, open_source(s), store))
            stored = {r.tweet.id for r in store.scan(d.name)}
        assert snap.state == "stopped"
        assert snap.gaps[-1].closed_at is None
        cutoff = s.start + timedelta(seconds=1000)
        assert stored == {t.id for t in s.timeline if t.created_at < cutoff}

    def test_limit_notices_accumulate_dropped_counter(self, tmp_path):
        s = world(faults=FaultSchedule(drop_rate=0.1))
        d = self.window_def(s)
        with CorpusStore(tmp_path / "store") as store:
            snap = finish(run_observer(d, open_source(s), store))
        assert snap.dropped_by_source == math.floor(len(s.timeline) * 0.1)
        assert snap.stored == len(s.timeline) - snap.dropped_by_source


class TestAmendment:
    def narrow_and_wide(self, s):
        narrow = candidate_def(s)
        added = tuple((a.user_id, a.screen_name) for a in s.accounts_of_kind("emergent"))
        wide = CorpusDefinition(
            narrow.name,
            AccountQuery(accounts=narrow.strategy.accounts + added),
            narrow.window,
        )
        return narrow, wide, added

    def test_scheduled_amendment_with_backfill(self, tmp_path):
        s = world()
        narrow, wide, added = self.narrow_and_wide(s)
        added_ids = {u for u, _ in added}
        em = s.emergence_time
        plan = AmendmentPlan(at=em, accounts=added)
        with CorpusStore(tmp_path / "store") as store:
            h = run_observer(narrow, open_source(s), store, amendments=(plan,))
            snap = finish(h)
            assert h.fatal_error is None
            stored = {r.tweet.id for r in store.scan(narrow.name)}

        expected = set()
        for t in s.timeline:
            pre = t.created_at < em
            if pre and oracle_matches(t, narrow):
                expected.add(t.id)
            elif not pre and oracle_matches(t, wide):
                expected.add(t.id)
            elif pre and t.user_id in added_ids:
                expected.add(t.id)  # recovered by backfill
        assert stored == expected

        # what stays missing is exactly the pre-amendment mention traffic
        missing = oracle_ids(s, wide) - stored
        assert missing
        by_id = {t.id: t for t in s.timeline}
        for mid in missing:
            t = by_id[mid]
            assert t.created_at < em and t.user_id not in added_ids

        event = snap.amendments[0]
        assert event.at == em
        assert event.added_accounts == added
        assert "not recoverable" in event.limitation
        for summary in event.backfill:
            authored_pre = [t for t in s.timeline
                            if t.user_id == summary.user_id and t.created_at < em]
            assert summary.recovered == len(authored_pre)
            if authored_pre:
                assert summary.earliest == min(t.created_at for t in authored_pre)

    def test_amendment_delta_is_authored_only(self, tmp_path):
        s = world()
        narrow, wide, added = self.narrow_and_wide(s)
        added_ids = {u for u, _ in added}
        em = s.emergence_time
        with CorpusStore(tmp_path / "store") as store:
            finish(run_observer(narrow, open_source(s), store,
                              amendments=(AmendmentPlan(at=em, accounts=added),)))
            stored = {r.tweet.id for r in store.scan(narrow.name)}
        recovered_pre = {t.id for t in s.timeline
                         if t.created_at < em and t.id in stored
                         and not oracle_matches(t, narrow)}
        assert recovered_pre
        by_id = {t.id: t for t in s.timeline}
        assert all(by_id[i].user_id in added_ids for i in recovered_pre)

    def test_single_account_example(self, tmp_path):
        t0 = datetime(2013, 9, 1, tzinfo=timezone.utc)

        def tw(tid, uid, name, sec, text):
            hashtags, mentions = extract_entities(text, accounts={
                "alpha": (1, "Alpha"), "neux": (77, "Neux")})
            return TweetRecord(id=tid, user_id=uid, screen_name=name,
                               created_at=t0 + timedelta(seconds=sec), text=text,
                               hashtags=hashtags, mentions=mentions)

        timeline = [
            tw(1, 1, "alpha", 5, "morgen debatte"),
            tw(2, 77, "neux", 10, "erste worte"),
            tw(3, 1, "alpha", 20, "schaut mal @neux an"),
            tw(4, 77, "neux", 60, "nach der aufnahme"),
        ]

        class ScriptSource:
            def subscribe(self, query, at=None, subscriber=None):
                def gen():
                    for t in timeline:
                        if at is None or t.created_at >= at:
                            yield StreamItem(kind="tweet", tweet=t)
                return gen()

            def backfill_timeline(self, user_id, since, until=None):
                return [t for t in timeline if t.user_id == user_id and t.created_at >= since]

        d = CorpusDefinition("a", AccountQuery(accounts=((1, "alpha"),)),
                             TimeWindow(t0, t0 + timedelta(seconds=100)))
        plan = AmendmentPlan(at=t0 + timedelta(seconds=50), accounts=((77, "neux"),))
        with CorpusStore(tmp_path / "store") as store:
            h = run_observer(d, ScriptSource(), store, amendments=(plan,))
            snap = finish(h)
            assert h.fatal_error is None
            stored = {r.tweet.id for r in store.scan("a")}
        # authored backlog (id 2) recovered; the mention of the new account
        # before the amendment (id 3... which also mentions nothing of alpha)
        assert stored == {1, 3, 2, 4}
        summary = snap.amendments[0].backfill[0]
        assert (summary.recovered, summary.earliest) == (1, timeline[1].created_at)

    def test_live_amend_replays_from_start(self, tmp_path):
        s = world()
        narrow, wide, added = self.narrow_and_wide(s)
        plan = AmendmentPlan(at=s.start, accounts=added, backfill=False)
        with CorpusStore(tmp_path / "store") as store:
            h = run_observer(narrow, open_source(s), store, amendments=(plan,))
            snap = finish(h)
            assert h.fatal_error is None
            assert snap.amendments[0].backfill == ()
            stored = {r.tweet.id for r in store.scan(narrow.name)}
        assert stored == oracle_ids(s, wide)
        assert algebra_ok(snap)

    def test_amend_rejections(self, tmp_path):
        s = world()
        narrow, _, _ = self.narrow_and_wide(s)
        rejected = [
            (AmendmentPlan(at=s.start, keywords=("btw13",)), "keyword"),
            (AmendmentPlan(at=s.start, accounts=narrow.strategy.accounts[:1]), "already observed"),
            (AmendmentPlan(at=s.start), "at least one"),
        ]
        for i, (plan, message) in enumerate(rejected):
            with CorpusStore(tmp_path / f"store{i}") as store:
                h = run_observer(narrow, open_source(s), store, amendments=(plan,))
            with pytest.raises(ConfigError, match=message):
                raise h.fatal_error
            assert finish(h).state == "stopped"

    def test_keyword_amendment_widens_tracking(self, tmp_path):
        s = world()
        d = keyword_def(s)
        wide = CorpusDefinition(d.name, KeywordQuery(hashtags=("wahl2013", "btw13")), d.window)
        plan = AmendmentPlan(at=s.start, keywords=("btw13",), backfill=False)
        with CorpusStore(tmp_path / "store") as store:
            h = run_observer(d, open_source(s), store, amendments=(plan,))
            finish(h)
            assert h.fatal_error is None
            stored = {r.tweet.id for r in store.scan(d.name)}
        assert stored == oracle_ids(s, wide)


class TestRunLog:
    def test_fault_free_log_shape(self, tmp_path):
        s = world()
        d = candidate_def(s)
        log = tmp_path / "run.ndjson"
        with CorpusStore(tmp_path / "store") as store:
            snap = finish(run_observer(d, open_source(s), store, run_log=log))
        lines = [json.loads(x) for x in log.read_text().splitlines()]
        assert lines[0]["event"] == "subscribed"
        kinds = {x["event"] for x in lines}
        assert kinds <= {"subscribed", "matched", "stored", "duplicate",
                         "gap-open", "gap-close", "amendment"}
        assert sum(1 for x in lines if x["event"] == "stored") == snap.stored
        assert sum(1 for x in lines if x["event"] == "matched") == snap.matched
        matched_ids = [x["tweetId"] for x in lines if x["event"] == "matched"]
        stored_ids = [x["tweetId"] for x in lines if x["event"] == "stored"]
        assert matched_ids == stored_ids

    def test_gap_and_amendment_events_logged(self, tmp_path):
        s = world(faults=FaultSchedule(disconnect_windows=(DisconnectWindow(3000, 3015),)))
        d = everything_def(s)
        added = tuple((a.user_id, a.screen_name) for a in s.accounts_of_kind("emergent"))
        log = tmp_path / "run.ndjson"
        with CorpusStore(tmp_path / "store") as store:
            snap = finish(run_observer(
                CorpusDefinition("kand", AccountQuery(accounts=tuple(
                    (a.user_id, a.screen_name) for a in s.accounts_of_kind("candidate"))),
                    TimeWindow(s.start, s.end)),
                open_source(s), store, run_log=log,
                amendments=(AmendmentPlan(at=s.emergence_time, accounts=added),)))
        lines = [json.loads(x) for x in log.read_text().splitlines()]
        assert any(x.get("via") == "backfill" for x in lines if x["event"] == "matched")
        assert sum(1 for x in lines if x["event"] == "matched") == snap.matched
        opens = [x for x in lines if x["event"] == "gap-open"]
        closes = [x for x in lines if x["event"] == "gap-close"]
        amendments = [x for x in lines if x["event"] == "amendment"]
        assert len(opens) == len(closes) == 1
        assert closes[0]["openedAt"] == opens[0]["at"]
        assert len(amendments) == 1
        assert amendments[0]["addedAccounts"] == [list(a) for a in added]
        assert "limitation" in amendments[0]
        del d


class TestSinkFailures:
    class Flaky:
        def __init__(self, inner, fail_times):
            self.inner = inner
            self.remaining = fail_times
            self.calls = 0

        def append(self, tweet, corpus, *, is_probe=False, stored_at=None):
            self.calls += 1
            if self.remaining > 0:
                self.remaining -= 1
                raise StoreError("synthetic write failure")
            return self.inner.append(tweet, corpus, is_probe=is_probe, stored_at=stored_at)

    def test_transient_write_failures_are_retried(self, tmp_path):
        s = world()
        d = candidate_def(s)
        with CorpusStore(tmp_path / "store") as store:
            sink = self.Flaky(store, fail_times=2)
            h = run_observer(d, open_source(s), sink)
            snap = finish(h)
            assert h.fatal_error is None
            assert snap.stored == len(oracle_ids(s, d))
            assert sink.calls == snap.stored + 2

    def test_persistent_write_failure_is_fatal(self, tmp_path):
        s = world()
        d = candidate_def(s)
        with CorpusStore(tmp_path / "store") as store:
            sink = self.Flaky(store, fail_times=10_000)
            h = run_observer(d, open_source(s), sink)
            snap = finish(h)
        assert snap.state == "stopped"
        assert isinstance(h.fatal_error, StoreError)


class TestProbesThroughObserver:
    def test_probe_items_stored_flagged(self, tmp_path):
        s = world()
        src = open_source(s)
        d = keyword_def(s)
        probes = []
        for i in range(3):
            hashtags, mentions = extract_entities(f"messung {i:02d} #wahl2013")
            probes.append(src.post_probe(TweetRecord(
                id=0, user_id=999_999, screen_name="messfeder",
                created_at=s.start + timedelta(seconds=100 + i * 600),
                text=f"messung {i:02d} #wahl2013", hashtags=hashtags, mentions=mentions)))
        with CorpusStore(tmp_path / "store") as store:
            finish(run_observer(d, src, store))
            flagged = {r.tweet.id for r in store.scan(d.name, include_probes=True) if r.is_probe}
            visible = {r.tweet.id for r in store.scan(d.name)}
        assert flagged == {p.id for p in probes}
        assert flagged & visible == set()
