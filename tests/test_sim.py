"""Scenario generation determinism, source semantics, faults, ground truth."""

import math
from datetime import timedelta

import pytest

from test_corpus import oracle_matches

from tweetcorpus.corpus import (
    AccountQuery,
    CorpusDefinition,
    KeywordQuery,
    MetadataQuery,
    StreamQuery,
    TimeWindow,
    compile_query,
)
from tweetcorpus.errors import ConfigError, SourceDisconnected, SourceUnavailable
from tweetcorpus.sim import (
    BiasEntry,
    DisconnectWindow,
    EmergentParty,
    FaultSchedule,
    bias_report,
    build_scenario,
    bundestag_mini,
    conversation_reference,
    ground_truth,
    load_world,
    open_source,
    write_world,
)
from tweetcorpus.tweets import TweetRecord, extract_entities


def mini(seed=7, **overrides):
    base = dict(n_candidates=12, n_journalists=4, n_editors=2, n_public=30,
                n_tweets=600, duration_s=6000, emergent=EmergentParty(account_count=5))
    base.update(overrides)
    return bundestag_mini(seed=seed, **base)


def full_window(scenario):
    return TimeWindow(start=scenario.start, end=scenario.end)


class TestGeneration:
    def test_same_config_same_world(self):
        a = build_scenario(mini())
        b = build_scenario(mini())
        assert a == b

    def test_different_seed_different_world(self):
        assert build_scenario(mini(seed=1)) != build_scenario(mini(seed=2))

    def test_timeline_time_ordered(self):
        s = build_scenario(mini())
        times = [t.created_at for t in s.timeline]
        assert times == sorted(times)

    def test_references_resolve(self):
        s = build_scenario(mini())
        ids = set()
        known_accounts = {a.user_id for a in s.accounts}
        for t in s.timeline:
            assert t.user_id in known_accounts
            if t.reply_to_id is not None:
                assert t.reply_to_id in ids
            for m in t.mentions:
                if m.user_id:
                    assert m.user_id in known_accounts
            ids.add(t.id)

    def test_preset_shape(self):
        c = bundestag_mini()
        assert (c.n_candidates, c.n_parties, c.n_journalists, c.n_editors) == (40, 6, 8, 3)
        assert (c.n_public, c.n_tweets) == (200, 5000)
        assert c.emergent.account_count == 15
        assert c.emergence_time == c.start + timedelta(seconds=int(0.6 * c.duration_s))
        s = build_scenario(mini())
        assert len(s.accounts_of_kind("emergent")) == 5
        assert s.graph.journalists <= s.graph.gatekeepers
        assert s.graph.editors <= s.graph.gatekeepers

    def test_emergent_accounts_active_and_mentioned_before_emergence(self):
        s = build_scenario(mini())
        emergent = {a.user_id for a in s.accounts_of_kind("emergent")}
        pre = [t for t in s.timeline if t.created_at < s.emergence_time]
        assert any(t.user_id in emergent for t in pre)
        assert any(any(m.user_id in emergent for m in t.mentions) for t in pre)

    def test_replies_keep_tag_when_drop_probability_zero(self):
        s = build_scenario(mini(reply_without_hashtag_probability=0.0))
        by_id = {t.id: t for t in s.timeline}
        for t in s.timeline:
            if t.reply_to_id is None:
                continue
            root = t
            while root.reply_to_id is not None:
                root = by_id[root.reply_to_id]
            root_tags = {h.text for h in root.hashtags}
            if root_tags:
                assert root_tags <= {h.text for h in t.hashtags}

    def test_geo_fraction_within_tolerance_at_2000(self):
        s = build_scenario(mini(n_tweets=2000, duration_s=40_000, geo_enabled_fraction=0.3))
        frac = sum(1 for t in s.timeline if t.geo is not None) / len(s.timeline)
        assert abs(frac - 0.3) <= 0.05

    def test_invalid_config_names_field(self):
        with pytest.raises(ConfigError, match="geo_enabled_fraction"):
            mini(geo_enabled_fraction=1.5)
        with pytest.raises(ConfigError, match="drop_rate"):
            FaultSchedule(drop_rate=-0.1)
        with pytest.raises(ConfigError, match="emergence_fraction"):
            EmergentParty(account_count=3, emergence_fraction=2.0)


class TestGroundTruth:
    def test_empty_for_unmatched_definition(self):
        s = build_scenario(mini())
        d = CorpusDefinition("none", KeywordQuery(hashtags=("nosuchtag",)), full_window(s))
        assert ground_truth(s, d) == frozenset()

    def test_all_accounts_query_covers_whole_timeline(self):
        s = build_scenario(mini())
        accounts = tuple((a.user_id, a.screen_name) for a in s.accounts if a.kind != "probe")
        d = CorpusDefinition("alle", AccountQuery(accounts=accounts), full_window(s))
        assert ground_truth(s, d) == {t.id for t in s.timeline}

    def test_agrees_with_independent_matcher(self):
        s = build_scenario(mini())
        w = full_window(s)
        candidates = tuple((a.user_id, a.screen_name) for a in s.accounts_of_kind("candidate"))
        defs = [
            CorpusDefinition("kand", AccountQuery(accounts=candidates), w),
            CorpusDefinition("tag", KeywordQuery(hashtags=("wahl2013",)), w),
            CorpusDefinition("geo", MetadataQuery(country="DE"), w),
        ]
        for d in defs:
            assert ground_truth(s, d) == {t.id for t in s.timeline if oracle_matches(t, d)}

    def test_hashtag_truth_excludes_untagged_replies(self):
        s = build_scenario(mini(reply_without_hashtag_probability=0.5))
        d = CorpusDefinition("tag", KeywordQuery(hashtags=("wahl2013",)), full_window(s))
        got = ground_truth(s, d)
        reference = conversation_reference(s, d)
        assert got < reference
        by_id = {t.id: t for t in s.timeline}
        for missing_id in reference - got:
            t = by_id[missing_id]
            assert t.reply_to_id is not None
            assert "wahl2013" not in {h.text for h in t.hashtags}


class TestSourceDelivery:
    def collect(self, sub):
        tweets, probes, limits = [], [], []
        for item in sub:
            if item.kind == "limit":
                limits.append(item.dropped_total)
            elif item.is_probe:
                probes.append(item.tweet)
            else:
                tweets.append(item.tweet)
        return tweets, probes, limits

    def test_lossless_delivery_is_superset_of_ground_truth(self):
        s = build_scenario(mini())
        src = open_source(s)
        w = full_window(s)
        candidates = tuple((a.user_id, a.screen_name) for a in s.accounts_of_kind("candidate"))
        defs = [
            CorpusDefinition("kand", AccountQuery(accounts=candidates), w),
            CorpusDefinition("tag", KeywordQuery(hashtags=("wahl2013",), terms=("umfrage",)), w),
            CorpusDefinition("geo", MetadataQuery(country="DE"), w),
        ]
        for d in defs:
            tweets, _, _ = self.collect(src.subscribe(compile_query(d)))
            assert {t.id for t in tweets} >= ground_truth(s, d)

    def test_subscription_time_forward_only(self):
        s = build_scenario(mini())
        src = open_source(s)
        midpoint = s.start + timedelta(seconds=3000)
        tweets, _, _ = self.collect(src.subscribe(StreamQuery(sample=True), at=midpoint))
        assert tweets and all(t.created_at >= midpoint for t in tweets)

    def test_subscribe_after_end_is_empty(self):
        s = build_scenario(mini())
        src = open_source(s)
        tweets, probes, limits = self.collect(src.subscribe(StreamQuery(sample=True), at=s.end))
        assert (tweets, probes, limits) == ([], [], [])

    def test_drop_schedule_exact_and_reproducible(self):
        cfg = mini(faults=FaultSchedule(drop_rate=0.1))
        runs = []
        for _ in range(2):
            src = open_source(build_scenario(cfg))
            tweets, _, limits = self.collect(src.subscribe(StreamQuery(sample=True)))
            runs.append(([t.id for t in tweets], limits))
        assert runs[0] == runs[1]
        delivered, limits = runs[0]
        total = len(build_scenario(cfg).timeline)
        assert len(delivered) == total - math.floor(total * 0.1)
        assert limits[-1] == math.floor(total * 0.1)

    def test_dropped_set_is_every_tenth_candidate(self):
        cfg = mini(faults=FaultSchedule(drop_rate=0.1))
        s = build_scenario(cfg)
        src = open_source(s)
        tweets, _, _ = self.collect(src.subscribe(StreamQuery(sample=True)))
        got = [t.id for t in tweets]
        want = [t.id for i, t in enumerate(s.timeline, start=1) if math.floor(i * 0.1) == math.floor((i - 1) * 0.1)]
        assert got == want

    def test_disconnect_raises_at_window_start(self):
        cfg = mini(faults=FaultSchedule(disconnect_windows=(DisconnectWindow(2000, 2500),)))
        s = build_scenario(cfg)
        src = open_source(s)
        seen = []
        with pytest.raises(SourceDisconnected) as exc:
            for item in src.subscribe(StreamQuery(sample=True)):
                if item.kind == "tweet":
                    seen.append(item.tweet)
        assert exc.value.at == s.start + timedelta(seconds=2000)
        assert all(t.created_at < exc.value.at for t in seen)

    def test_resubscribe_inside_window_refused_at_end_succeeds(self):
        cfg = mini(faults=FaultSchedule(disconnect_windows=(DisconnectWindow(2000, 2500),)))
        s = build_scenario(cfg)
        src = open_source(s)
        with pytest.raises(SourceUnavailable):
            src.subscribe(StreamQuery(sample=True), at=s.start + timedelta(seconds=2200))
        resumed = src.subscribe(StreamQuery(sample=True), at=s.start + timedelta(seconds=2500))
        tweets, _, _ = self.collect(resumed)
        assert tweets
        assert all(t.created_at >= s.start + timedelta(seconds=2500) for t in tweets)

    def test_redelivery_after_reconnect(self):
        cfg = mini(faults=FaultSchedule(disconnect_windows=(DisconnectWindow(3000, 3100),), redeliver_on_reconnect=10))
        s = build_scenario(cfg)
        src = open_source(s)
        q = StreamQuery(sample=True)
        first = []
        with pytest.raises(SourceDisconnected):
            for item in src.subscribe(q):
                if item.kind == "tweet":
                    first.append(item.tweet)
        resumed_items = list(src.subscribe(q, at=s.start + timedelta(seconds=3100)))
        replayed = [i.tweet.id for i in resumed_items[:10] if i.kind == "tweet"]
        assert replayed == [t.id for t in first[-10:]]
        fresh = [i.tweet for i in resumed_items[10:] if i.kind == "tweet"]
        assert all(t.created_at >= s.start + timedelta(seconds=3100) for t in fresh)

    def test_redelivery_is_per_subscriber(self):
        cfg = mini(faults=FaultSchedule(disconnect_windows=(DisconnectWindow(3000, 3100),), redeliver_on_reconnect=10))
        s = build_scenario(cfg)
        src = open_source(s)
        q = StreamQuery(sample=True)
        reconnect = s.start + timedelta(seconds=3100)
        first_a = []
        with pytest.raises(SourceDisconnected):
            for item in src.subscribe(q, subscriber="a"):
                if item.kind == "tweet":
                    first_a.append(item.tweet)
        # another subscriber on the same query reads to the end meanwhile
        b_items = list(src.subscribe(q, at=reconnect, subscriber="b"))
        assert b_items[0].tweet.created_at >= reconnect, "b has nothing of its own to replay"
        resumed = list(src.subscribe(q, at=reconnect, subscriber="a"))
        replayed = [i.tweet.id for i in resumed[:10] if i.kind == "tweet"]
        assert replayed == [t.id for t in first_a[-10:]]


class TestBackfill:
    def test_authored_only_never_mentions(self):
        s = build_scenario(mini())
        src = open_source(s)
        emergent = s.accounts_of_kind("emergent")[0]
        got = src.backfill_timeline(emergent.user_id, since=s.start)
        authored = [t for t in s.timeline if t.user_id == emergent.user_id]
        assert got == authored
        mentioned = [t for t in s.timeline if any(m.user_id == emergent.user_id for m in t.mentions)]
        assert mentioned, "scenario should mention emergent accounts"
        assert not set(t.id for t in mentioned if t.user_id != emergent.user_id) & {t.id for t in got}

    def test_pre_emergence_tweets_recoverable(self):
        s = build_scenario(mini())
        src = open_source(s)
        emergent = s.accounts_of_kind("emergent")[0]
        got = src.backfill_timeline(emergent.user_id, since=s.start, until=s.emergence_time)
        assert all(t.created_at < s.emergence_time for t in got)
        assert got == [t for t in s.timeline if t.user_id == emergent.user_id and t.created_at < s.emergence_time]

    def test_since_bound_respected(self):
        s = build_scenario(mini())
        src = open_source(s)
        candidate = s.accounts_of_kind("candidate")[0]
        mid = s.start + timedelta(seconds=3000)
        got = src.backfill_timeline(candidate.user_id, since=mid)
        assert all(t.created_at >= mid for t in got)


class TestProbes:
    def probe(self, s, seconds, text):
        hashtags, mentions = extract_entities(text, accounts=s.account_registry())
        return TweetRecord(
            id=0, user_id=999_999, screen_name="messfeder",
            created_at=s.start + timedelta(seconds=seconds), text=text,
            hashtags=hashtags, mentions=mentions,
        )

    def test_post_assigns_id_and_delivers_in_time_order(self):
        s = build_scenario(mini())
        src = open_source(s)
        posted = [src.post_probe(self.probe(s, sec, f"probe nummer {i} #wahl2013")) for i, sec in enumerate((100, 2000, 5000))]
        assert len({t.id for t in posted}) == 3
        assert all(t.id > max(x.id for x in s.timeline) for t in posted)
        items = list(src.subscribe(StreamQuery(track_terms=("#wahl2013",))))
        seq = [(i.tweet.created_at, i.is_probe) for i in items if i.kind == "tweet"]
        assert [t for t, _ in seq] == sorted(t for t, _ in seq)
        assert [i.tweet.id for i in items if i.is_probe] == [t.id for t in posted]

    def test_probe_outside_scenario_refused(self):
        s = build_scenario(mini())
        src = open_source(s)
        with pytest.raises(SourceUnavailable):
            src.post_probe(self.probe(s, -10, "zu frueh #wahl2013"))

    def test_probe_drop_rate_exact(self):
        cfg = mini(faults=FaultSchedule(probe_drop_rate=0.1))
        s = build_scenario(cfg)
        src = open_source(s)
        for i in range(100):
            src.post_probe(self.probe(s, 10 + i * 50, f"messung {i:03d} #wahl2013"))
        items = list(src.subscribe(StreamQuery(track_terms=("#wahl2013",))))
        delivered_probes = [i for i in items if i.kind == "tweet" and i.is_probe]
        assert len(delivered_probes) == 90

    def test_fetch_tweets_sees_timeline_and_probes(self):
        s = build_scenario(mini())
        src = open_source(s)
        p = src.post_probe(self.probe(s, 50, "sichtbar #wahl2013"))
        got = src.fetch_tweets([s.timeline[0].id, p.id, 42])
        assert [t.id for t in got] == [s.timeline[0].id, p.id]


class TestBiasReport:
    def test_recall_precision_missing_extra(self):
        lines = bias_report([
            BiasEntry("a", stored_ids=frozenset({1, 2, 3}), reference_ids=frozenset({1, 2, 3})),
            BiasEntry("b", stored_ids=frozenset({1, 2}), reference_ids=frozenset({1, 2, 3, 4})),
            BiasEntry("c", stored_ids=frozenset({1, 9}), reference_ids=frozenset({1, 2})),
            BiasEntry("d", stored_ids=frozenset(), reference_ids=frozenset()),
        ])
        a, b, c, d = lines
        assert (a.recall, a.precision, a.missing, a.extra) == (1.0, 1.0, (), ())
        assert (b.recall, b.missing) == (0.5, (3, 4))
        assert (c.precision, c.extra) == (0.5, (9,))
        assert (d.recall, d.precision) == (None, None)


class TestWorldFiles:
    def test_round_trip(self, tmp_path):
        s = build_scenario(mini())
        write_world(s, tmp_path / "world")
        assert load_world(tmp_path / "world") == s

    def test_regeneration_byte_identical(self, tmp_path):
        for k in ("a", "b"):
            write_world(build_scenario(mini()), tmp_path / k)
        for name in ("scenario.json", "accounts.ndjson", "follows.tsv", "groups.json", "timeline.ndjson"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    def test_missing_dir_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_world(tmp_path / "nope")
