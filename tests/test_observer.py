"""Observer runtime: exact collection, gaps, amendments, counters."""

import json
import math
import tempfile
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from tweetcorpus.tweets import TweetRecord, extract_entities, format_timestamp


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


class TestFaultFreeRuns:
    def test_account_corpus_equals_ground_truth(self, tmp_path):
        s = world()
        d = candidate_def(s)
        with CorpusStore(tmp_path / "store") as store:
            h = run_observer(d, open_source(s), store)
            snap = h.counters
            assert h.fatal_error is None
            assert snap.duplicates == 0
            assert algebra_ok(snap)
            stored = {r.tweet.id for r in store.scan("kand")}
        assert stored == oracle_ids(s, d)

    def test_keyword_corpus_equals_ground_truth(self, tmp_path):
        s = world()
        d = keyword_def(s)
        with CorpusStore(tmp_path / "store") as store:
            h = run_observer(d, open_source(s), store)
            snap = h.counters
            assert snap.stored == len(oracle_ids(s, d)) > 0
            assert {r.tweet.id for r in store.scan("tag")} == oracle_ids(s, d)

    def test_no_false_positives_on_rescan(self, tmp_path):
        s = world()
        d = candidate_def(s)
        with CorpusStore(tmp_path / "store") as store:
            run_observer(d, open_source(s), store)
            for row in store.scan("kand"):
                assert oracle_matches(row.tweet, d)

    def test_counters_equal_store_counts(self, tmp_path):
        s = world()
        defs = [candidate_def(s), keyword_def(s)]
        with CorpusStore(tmp_path / "store") as store:
            snaps = [run_observer(d, open_source(s), store).counters for d in defs]
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
            snaps = [h.counters for h in handles]
            for d, snap in zip(defs, snaps):
                assert snap.duplicates == 0
                assert algebra_ok(snap)
                assert {r.tweet.id for r in store.scan(d.name)} == oracle_ids(s, d)


class CountingSource:
    """A source that records the start time of every subscribe call."""

    def __init__(self, source):
        self._source = source
        self.subscribed_at = []

    def subscribe(self, query, at, until, subscriber):
        self.subscribed_at.append(at)
        return self._source.subscribe(query, at, until, subscriber)

    def __getattr__(self, name):
        return getattr(self._source, name)


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
            snap = h.counters
            assert h.fatal_error is None
            assert snap.gaps == ((gap_start, gap_end),) or [
                (g.opened_at, g.closed_at) for g in snap.gaps] == [(gap_start, gap_end)]
            assert snap.duplicates == 10
            assert clock.now == gap_end
            stored = {r.tweet.id for r in store.scan(d.name)}
        expected = {t.id for t in s.timeline if not gap_start <= t.created_at < gap_end}
        assert stored == expected

    def test_one_subscribe_per_attempt(self, tmp_path):
        # attempts at +1, +3 and +7 s fall inside the outage; +15 s opens the stream
        s = world(faults=FaultSchedule(drop_rate=0.05, redeliver_on_reconnect=10,
                                       disconnect_windows=(DisconnectWindow(3000, 3015),)))
        d = self.window_def(s)
        source = CountingSource(open_source(s))
        gap_start = s.start + timedelta(seconds=3000)
        gap_end = s.start + timedelta(seconds=3015)
        with CorpusStore(tmp_path / "store") as store:
            snap = run_observer(d, source, store).counters
        assert source.subscribed_at == [s.start] + [gap_start + timedelta(seconds=k) for k in (1, 3, 7, 15)]
        assert [(g.opened_at, g.closed_at) for g in snap.gaps] == [(gap_start, gap_end)]
        before = sum(t.created_at < gap_start for t in s.timeline)
        after = sum(t.created_at >= gap_end for t in s.timeline)
        dropped = math.floor(before * 0.05) + math.floor(after * 0.05)
        assert snap.dropped_by_source == dropped
        assert snap.stored == before + after - dropped
        assert snap.duplicates == 10
        assert snap.seen == snap.matched == snap.stored + snap.duplicates

    def test_two_windows_listed_out_of_order_give_two_closed_gaps(self, tmp_path):
        # retry ladder 1+2+4(+8+16): the windows close at +7 s, +15 s and +31 s;
        # no event falls inside (4000, 4007), and that outage is recorded all the same
        for late in (4031, 4007):
            s = world(faults=FaultSchedule(disconnect_windows=(DisconnectWindow(4000, late), DisconnectWindow(1500, 1515))))
            assert not any(4000 <= (t.created_at - s.start).total_seconds() < 4007 for t in s.timeline)
            d = self.window_def(s)
            gaps = [(s.start + timedelta(seconds=a), s.start + timedelta(seconds=b)) for a, b in ((1500, 1515), (4000, late))]
            with CorpusStore(tmp_path / f"store-{late}") as store:
                h = run_observer(d, open_source(s), store)
                stored = {r.tweet.id for r in store.scan(d.name)}
            assert h.fatal_error is None
            assert [(g.opened_at, g.closed_at) for g in h.counters.gaps] == gaps
            assert stored == {t.id for t in s.timeline if not any(a <= t.created_at < b for a, b in gaps)}

    @pytest.mark.parametrize("window_holds_an_event", [False, True])
    def test_amendment_before_a_window_gives_one_gap(self, tmp_path, window_holds_an_event):
        # no event between the amendment and the window start: the disconnect
        # comes before any event at or after the amendment time
        plain = world()
        secs = sorted((t.created_at - plain.start).total_seconds() for t in plain.timeline)
        last, after = next((x, y) for x, y in zip(secs, secs[1:]) if y - x > 60 and x > 1000)
        start, end = int(last) + 10, int(after) + 1 if window_holds_an_event else int(last) + 25
        s = world(faults=FaultSchedule(disconnect_windows=(DisconnectWindow(start, end),)))
        plan = AmendmentPlan(at=s.start + timedelta(seconds=last + 1), keywords=("btw13",))
        with CorpusStore(tmp_path / "store") as store:
            snap = run_observer(keyword_def(s), open_source(s), store, amendments=(plan,)).counters
        assert [g.opened_at for g in snap.gaps] == [s.start + timedelta(seconds=start)]
        assert len(snap.amendments) == 1

    def test_missing_tweets_fall_inside_recorded_gap(self, tmp_path):
        s = world(faults=FaultSchedule(disconnect_windows=(DisconnectWindow(2000, 2100),)))
        d = self.window_def(s)
        with CorpusStore(tmp_path / "store") as store:
            snap = run_observer(d, open_source(s), store).counters
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
            snap = run_observer(d, open_source(s), store).counters
            stored = {r.tweet.id for r in store.scan(d.name)}
        assert snap.gaps[-1].closed_at is None
        cutoff = s.start + timedelta(seconds=1000)
        assert stored == {t.id for t in s.timeline if t.created_at < cutoff}

    def test_limit_notices_accumulate_dropped_counter(self, tmp_path):
        s = world(faults=FaultSchedule(drop_rate=0.1))
        d = self.window_def(s)
        with CorpusStore(tmp_path / "store") as store:
            snap = run_observer(d, open_source(s), store).counters
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
            snap = h.counters
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
            run_observer(narrow, open_source(s), store,
                         amendments=(AmendmentPlan(at=em, accounts=added),))
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
            def subscribe(self, query, at, until, subscriber):
                def gen():
                    for t in timeline:
                        if at <= t.created_at < until:
                            yield StreamItem(kind="tweet", tweet=t)
                return gen()

            def backfill_timeline(self, user_id, since):
                return [t for t in timeline if t.user_id == user_id and t.created_at >= since]

        d = CorpusDefinition("a", AccountQuery(accounts=((1, "alpha"),)),
                             TimeWindow(t0, t0 + timedelta(seconds=100)))
        plan = AmendmentPlan(at=t0 + timedelta(seconds=50), accounts=((77, "neux"),))
        with CorpusStore(tmp_path / "store") as store:
            h = run_observer(d, ScriptSource(), store, amendments=(plan,))
            snap = h.counters
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
            snap = h.counters
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
            assert h.counters.stored == 0

    def test_keyword_amendment_widens_tracking(self, tmp_path):
        s = world()
        d = keyword_def(s)
        wide = CorpusDefinition(d.name, KeywordQuery(hashtags=("wahl2013", "btw13")), d.window)
        plan = AmendmentPlan(at=s.start, keywords=("btw13",), backfill=False)
        with CorpusStore(tmp_path / "store") as store:
            h = run_observer(d, open_source(s), store, amendments=(plan,))
            assert h.fatal_error is None
            stored = {r.tweet.id for r in store.scan(d.name)}
        assert stored == oracle_ids(s, wide)


class TestRunLog:
    def test_fault_free_log_shape(self, tmp_path):
        s = world()
        d = candidate_def(s)
        log = tmp_path / "run.ndjson"
        with CorpusStore(tmp_path / "store") as store:
            snap = run_observer(d, open_source(s), store, run_log=log).counters
        assert snap.stored > 0 and snap.duplicates == 0
        (line,) = [json.loads(x) for x in log.read_text().splitlines()]
        assert (line["event"], line["at"], line["corpus"]) == ("subscribed", format_timestamp(s.start), "kand")

    def test_gap_and_amendment_events_logged(self, tmp_path):
        s = world(faults=FaultSchedule(disconnect_windows=(DisconnectWindow(3000, 3015),)))
        added = tuple((a.user_id, a.screen_name) for a in s.accounts_of_kind("emergent"))
        log = tmp_path / "run.ndjson"
        with CorpusStore(tmp_path / "store") as store:
            snap = run_observer(
                candidate_def(s), open_source(s), store, run_log=log,
                amendments=(AmendmentPlan(at=s.emergence_time, accounts=added),)).counters
            rows = store.count("kand")
        lines = [json.loads(x) for x in log.read_text().splitlines()]
        assert {x["event"] for x in lines} == {"subscribed", "gap-open", "gap-close", "amendment", "duplicate"}
        duplicates = [x for x in lines if x["event"] == "duplicate"]
        assert rows + len(duplicates) == snap.matched
        assert len(duplicates) == snap.duplicates
        assert any(x.get("via") == "backfill" for x in duplicates)
        opens = [x for x in lines if x["event"] == "gap-open"]
        closes = [x for x in lines if x["event"] == "gap-close"]
        amendments = [x for x in lines if x["event"] == "amendment"]
        assert len(opens) == len(closes) == 1
        assert closes[0]["openedAt"] == opens[0]["at"]
        assert len(amendments) == 1
        assert amendments[0]["addedAccounts"] == [list(a) for a in added]
        assert "limitation" in amendments[0]


def phase_truth(s, narrow, wide, at):
    """Ground truth of a corpus amended at ``at``: ``narrow``'s before it, ``wide``'s from it on."""
    return {t.id for t in s.timeline if oracle_matches(t, narrow if t.created_at < at else wide)}


def assert_reconciles(s, snap, truth, stored):
    """Missing ground-truth ids = ``dropped_by_source`` + the ids inside a
    recorded gap, and nothing outside the ground truth is stored."""
    def in_gap(t):
        return any(g.opened_at <= t.created_at and (g.closed_at is None or t.created_at < g.closed_at)
                   for g in snap.gaps)

    missing = [t for t in s.timeline if t.id in truth - stored]
    assert sum(not in_gap(t) for t in missing) == snap.dropped_by_source
    assert stored <= truth


class TestReconciliation:
    # the amended account corpus where the stream once counted a drop for an
    # event at or after the amendment, which the widened stream then stored
    @pytest.mark.parametrize("seed", [1, 2, 14, 24, 37])
    def test_no_drop_is_counted_past_an_amendment(self, tmp_path, seed):
        s = build_scenario(bundestag_mini(seed, n_tweets=1500, faults=FaultSchedule(drop_rate=0.1)))
        narrow, wide, added = TestAmendment().narrow_and_wide(s)
        plan = AmendmentPlan(at=s.emergence_time, accounts=added, backfill=False)
        with CorpusStore(tmp_path / "store") as store:
            h = run_observer(narrow, open_source(s), store, amendments=(plan,))
            stored = {r.tweet.id for r in store.scan(narrow.name)}
        assert h.fatal_error is None and h.counters.gaps == []
        assert_reconciles(s, h.counters, phase_truth(s, narrow, wide, plan.at), stored)

    def test_counters_cover_the_corpus_window_only(self, tmp_path):
        # both outages fall outside the 06:00-12:00 window
        s = build_scenario(bundestag_mini(7, faults=FaultSchedule(
            drop_rate=0.1, disconnect_windows=(DisconnectWindow(3600, 3660), DisconnectWindow(70000, 70060)))))
        window = TimeWindow(s.start + timedelta(hours=6), s.start + timedelta(hours=12))
        d = CorpusDefinition("tag", KeywordQuery(hashtags=("wahl2013",)), window)
        with CorpusStore(tmp_path / "store") as store:
            h = run_observer(d, open_source(s), store)
            stored = {r.tweet.id for r in store.scan(d.name)}
        snap = h.counters
        assert h.fatal_error is None and snap.gaps == []
        assert_reconciles(s, snap, oracle_ids(s, d), stored)
        assert snap.seen == snap.matched == snap.stored == len(stored)

    @given(seed=st.integers(0, 2**16), n_tweets=st.integers(1, 600), drop_rate=st.sampled_from((0, 0.05, 0.1, 0.3)),
           outages=st.lists(st.tuples(st.integers(0, 5999), st.integers(1, 400)), max_size=3),
           redeliver=st.integers(0, 20), sample=st.booleans(),
           bounds=st.lists(st.integers(0, 6000), min_size=3, max_size=3, unique=True).map(sorted),
           amend=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_drops_and_gaps_explain_every_missing_id(self, seed, n_tweets, drop_rate, outages, redeliver,
                                                     sample, bounds, amend):
        s = world(seed, n_tweets=n_tweets, faults=FaultSchedule(
            drop_rate=drop_rate, redeliver_on_reconnect=redeliver,
            disconnect_windows=tuple(DisconnectWindow(a, a + n) for a, n in outages)))
        start, at, end = (s.start + timedelta(seconds=x) for x in bounds)
        window = TimeWindow(start, end)
        if sample:
            d = wide = CorpusDefinition("alles", RandomSampleQuery(rate=1.0, seed=1), window)
            plans = ()
        else:
            d = CorpusDefinition("tag", KeywordQuery(hashtags=("wahl2013",)), window)
            wide = CorpusDefinition("tag", KeywordQuery(hashtags=("wahl2013", "btw13")), window)
            plans = (AmendmentPlan(at=at, keywords=("btw13",), backfill=False),) if amend else ()
        with tempfile.TemporaryDirectory() as tmp, CorpusStore(tmp) as store:
            store.ensure_corpus(d.name)
            h = run_observer(d, open_source(s), store, amendments=plans)
            stored = {r.tweet.id for r in store.scan(d.name)}
        assert h.fatal_error is None
        assert_reconciles(s, h.counters, phase_truth(s, d, wide if plans else d, at), stored)


class TestSinkFailures:
    class Flaky:
        def __init__(self, inner, fail_times):
            self.inner = inner
            self.remaining = fail_times
            self.calls = 0

        def append(self, tweet, corpus, *, is_probe=False, stored_at):
            self.calls += 1
            if self.remaining > 0:
                self.remaining -= 1
                raise StoreError("synthetic write failure")
            return self.inner.append(tweet, corpus, is_probe=is_probe, stored_at=stored_at)

    def test_persistent_write_failure_is_fatal(self, tmp_path):
        s = world()
        d = candidate_def(s)
        with CorpusStore(tmp_path / "store") as store:
            sink = self.Flaky(store, fail_times=10_000)
            h = run_observer(d, open_source(s), sink)
            snap = h.counters
        assert isinstance(h.fatal_error, StoreError)
        assert sink.calls == 1
        assert (snap.matched, snap.stored, snap.duplicates) == (1, 0, 0)
        assert not (tmp_path / "store" / f"{d.name}.ndjson").exists()


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
            run_observer(d, src, store)
            flagged = store.ids(d.name, probes=True)
            visible = {r.tweet.id for r in store.scan(d.name)}
        assert flagged == {p.id for p in probes}
        assert flagged & visible == set()
