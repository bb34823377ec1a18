"""Scenario generation determinism, source semantics, faults, ground truth."""

import hashlib
import json
import math
import random
from dataclasses import replace
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_corpus import oracle_matches

from tweetcorpus import sim
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
    config_from_obj,
    config_to_obj,
    conversation_reference,
    ground_truth,
    load_world,
    open_source,
    references,
    write_world,
)
from tweetcorpus.tweets import TweetRecord, extract_entities, format_timestamp, json_document


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

    def test_cumulative_draw_equals_running_subtraction(self):
        pairs = list(enumerate([3, 0, 2, 2, 1, 0, 3, 1, 2, 0, 1]))
        draw = sim._cumulative_choice(pairs)
        a, b = random.Random(11), random.Random(11)
        assert [draw(a) for _ in range(10_000)] == [sim._weighted_choice(b, pairs) for _ in range(10_000)]
        assert a.getstate() == b.getstate()

    def test_cumulative_draw_takes_the_first_item_at_a_tie(self):
        class Half(random.Random):
            def random(self):
                return 0.5

        # x = 0.5 * 6 = 3.0 reaches the first running sum exactly
        pairs = [("a", 3), ("b", 2), ("c", 1)]
        assert sim._weighted_choice(Half(), pairs) == "a"
        assert sim._cumulative_choice(pairs)(Half()) == "a"

    def test_invalid_config_names_field(self):
        with pytest.raises(ConfigError, match="geo_enabled_fraction"):
            mini(geo_enabled_fraction=1.5)
        with pytest.raises(ConfigError, match="drop_rate"):
            FaultSchedule(drop_rate=-0.1)
        with pytest.raises(ConfigError, match="emergence_fraction"):
            EmergentParty(account_count=3, emergence_fraction=2.0)
        with pytest.raises(ConfigError, match="redeliver_on_reconnect"):
            FaultSchedule(redeliver_on_reconnect=-5)


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

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_conversation_reference_ignores_timeline_order(self, order):
        s = build_scenario(mini(reply_without_hashtag_probability=0.5))
        timeline = list(s.timeline)
        if order == "reversed":
            timeline.reverse()
        else:
            random.Random(3).shuffle(timeline)
        permuted = replace(s, timeline=tuple(timeline))
        d = CorpusDefinition("tag", KeywordQuery(hashtags=("wahl2013",)), full_window(s))
        assert conversation_reference(permuted, d) == conversation_reference(s, d)


def oracle_conversations(timeline, hits):
    """Every tweet joined to a hit by a chain of replies within the timeline,
    found by growing the set until no reply or parent of a member is outside."""
    in_world = {t.id for t in timeline}
    members = set(hits)
    grown = True
    while grown:
        grown = False
        for t in timeline:
            if t.reply_to_id in in_world and (t.id in members) != (t.reply_to_id in members):
                members |= {t.id, t.reply_to_id}
                grown = True
    return members


@st.composite
def worlds_and_corpora(draw):
    """A small world with its timeline shuffled, and corpora of every strategy
    kind over windows inside it."""
    s = build_scenario(mini(
        seed=draw(st.integers(0, 10_000)), n_tweets=draw(st.integers(1, 600)),
        reply_probability=draw(st.sampled_from([0.0, 0.35, 0.9])),
        reply_without_hashtag_probability=draw(st.sampled_from([0.0, 0.5, 1.0]))))
    timeline = list(s.timeline)
    draw(st.randoms(use_true_random=False)).shuffle(timeline)
    candidates = tuple((a.user_id, a.screen_name) for a in s.accounts_of_kind("candidate"))
    strategies = [
        KeywordQuery(hashtags=("wahl2013",)),
        KeywordQuery(hashtags=("btw13",), terms=("debatte",)),
        AccountQuery(accounts=draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=4, unique=True))),
        MetadataQuery(country="DE"),
    ]
    defs = []
    for i, strategy in enumerate(strategies):
        start, end = sorted(draw(st.lists(st.integers(0, s.config.duration_s), min_size=2, max_size=2, unique=True)))
        window = TimeWindow(s.start + timedelta(seconds=start), s.start + timedelta(seconds=end))
        defs.append(CorpusDefinition(f"c{i}", strategy, window))
    return s, replace(s, timeline=tuple(timeline)), defs


class TestReferences:
    @given(worlds_and_corpora())
    @settings(max_examples=40, deadline=None)
    def test_each_corpus_gets_its_ground_truth_and_conversations_in_any_order(self, drawn):
        s, shuffled, defs = drawn
        refs = references(shuffled, defs)
        assert list(refs) == [d.name for d in defs]
        for d in defs:
            truth = ground_truth(s, d)
            assert refs[d.name] == (truth, oracle_conversations(s.timeline, truth))


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
            tweets, _, _ = self.collect(src.subscribe(compile_query(d), s.start, s.end, "obs"))
            assert {t.id for t in tweets} >= ground_truth(s, d)

    def test_subscription_time_forward_only(self):
        s = build_scenario(mini())
        src = open_source(s)
        midpoint = s.start + timedelta(seconds=3000)
        tweets, _, _ = self.collect(src.subscribe(StreamQuery(sample=True), midpoint, s.end, "obs"))
        assert tweets and all(t.created_at >= midpoint for t in tweets)

    def test_subscription_ends_at_until(self):
        # the outage starts at ``until``: the stream ends first, without a disconnect
        cfg = mini(faults=FaultSchedule(disconnect_windows=(DisconnectWindow(3000, 3100),)))
        s = build_scenario(cfg)
        src = open_source(s)
        until = s.start + timedelta(seconds=3000)
        tweets, _, _ = self.collect(src.subscribe(StreamQuery(sample=True), s.start, until, "obs"))
        assert [t.id for t in tweets] == [t.id for t in s.timeline if t.created_at < until]
        with pytest.raises(SourceDisconnected):
            self.collect(src.subscribe(StreamQuery(sample=True), s.start, until + timedelta(seconds=1), "obs"))

    def test_subscribe_after_end_is_empty(self):
        s = build_scenario(mini())
        src = open_source(s)
        tweets, probes, limits = self.collect(src.subscribe(StreamQuery(sample=True), s.end, s.end, "obs"))
        assert (tweets, probes, limits) == ([], [], [])

    def test_drop_schedule_exact_and_reproducible(self):
        cfg = mini(faults=FaultSchedule(drop_rate=0.1))
        runs = []
        for _ in range(2):
            s = build_scenario(cfg)
            src = open_source(s)
            tweets, _, limits = self.collect(src.subscribe(StreamQuery(sample=True), s.start, s.end, "obs"))
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
        tweets, _, _ = self.collect(src.subscribe(StreamQuery(sample=True), s.start, s.end, "obs"))
        got = [t.id for t in tweets]
        want = [t.id for i, t in enumerate(s.timeline, start=1) if math.floor(i * 0.1) == math.floor((i - 1) * 0.1)]
        assert got == want

    def test_disconnect_raises_at_window_start(self):
        cfg = mini(faults=FaultSchedule(disconnect_windows=(DisconnectWindow(2000, 2500),)))
        s = build_scenario(cfg)
        src = open_source(s)
        seen = []
        with pytest.raises(SourceDisconnected) as exc:
            for item in src.subscribe(StreamQuery(sample=True), s.start, s.end, "obs"):
                if item.kind == "tweet":
                    seen.append(item.tweet)
        assert exc.value.at == s.start + timedelta(seconds=2000)
        assert all(t.created_at < exc.value.at for t in seen)

    def test_resubscribe_inside_window_refused_at_end_succeeds(self):
        cfg = mini(faults=FaultSchedule(disconnect_windows=(DisconnectWindow(2000, 2500),)))
        s = build_scenario(cfg)
        src = open_source(s)
        at = s.start + timedelta(seconds=2200)
        with pytest.raises(SourceUnavailable, match=f"^source unreachable at {format_timestamp(at)}$"):
            src.subscribe(StreamQuery(sample=True), at, s.end, "obs")
        resumed = src.subscribe(StreamQuery(sample=True), s.start + timedelta(seconds=2500), s.end, "obs")
        tweets, _, _ = self.collect(resumed)
        assert tweets
        assert all(t.created_at >= s.start + timedelta(seconds=2500) for t in tweets)

    def test_two_windows_listed_out_of_order(self):
        cfg = mini(faults=FaultSchedule(disconnect_windows=(DisconnectWindow(4000, 4300), DisconnectWindow(1500, 1800))))
        s = build_scenario(cfg)
        src = open_source(s)
        q = StreamQuery(sample=True)
        at = s.start
        for start, end in ((1500, 1800), (4000, 4300)):
            seen = []
            with pytest.raises(SourceDisconnected) as exc:
                for item in src.subscribe(q, at, s.end, "obs"):
                    seen.append(item.tweet.created_at)
            assert exc.value.at == s.start + timedelta(seconds=start)
            assert seen and all(at <= c < exc.value.at for c in seen)
            with pytest.raises(SourceUnavailable):
                src.subscribe(q, s.start + timedelta(seconds=start + 150), s.end, "obs")
            at = s.start + timedelta(seconds=end)
        tweets, _, _ = self.collect(src.subscribe(q, at, s.end, "obs"))
        assert tweets and all(t.created_at >= at for t in tweets) and tweets[-1] == s.timeline[-1]

    def test_redelivery_after_reconnect(self):
        cfg = mini(faults=FaultSchedule(disconnect_windows=(DisconnectWindow(3000, 3100),), redeliver_on_reconnect=10))
        s = build_scenario(cfg)
        src = open_source(s)
        q = StreamQuery(sample=True)
        first = []
        with pytest.raises(SourceDisconnected):
            for item in src.subscribe(q, s.start, s.end, "obs"):
                if item.kind == "tweet":
                    first.append(item.tweet)
        resumed_items = list(src.subscribe(q, s.start + timedelta(seconds=3100), s.end, "obs"))
        replayed = [i.tweet.id for i in resumed_items[:10] if i.kind == "tweet"]
        assert replayed == [t.id for t in first[-10:]]
        fresh = [i.tweet for i in resumed_items[10:] if i.kind == "tweet"]
        assert all(t.created_at >= s.start + timedelta(seconds=3100) for t in fresh)

    def test_redelivery_follows_its_setting_past_100(self):
        cfg = mini(faults=FaultSchedule(disconnect_windows=(DisconnectWindow(3000, 3100),), redeliver_on_reconnect=150))
        s = build_scenario(cfg)
        src = open_source(s)
        q = StreamQuery(sample=True)
        with pytest.raises(SourceDisconnected):
            for _ in src.subscribe(q, s.start, s.end, "obs"):
                pass
        first = [t.id for t in s.timeline if t.created_at < s.start + timedelta(seconds=3000)]
        assert len(first) > 150
        resumed = list(src.subscribe(q, s.start + timedelta(seconds=3100), s.end, "obs"))
        assert [i.tweet.id for i in resumed[:150]] == first[-150:]
        assert resumed[150].tweet.created_at >= s.start + timedelta(seconds=3100)

    def test_redelivery_is_per_subscriber(self):
        cfg = mini(faults=FaultSchedule(disconnect_windows=(DisconnectWindow(3000, 3100),), redeliver_on_reconnect=10))
        s = build_scenario(cfg)
        src = open_source(s)
        q = StreamQuery(sample=True)
        reconnect = s.start + timedelta(seconds=3100)
        first_a = []
        with pytest.raises(SourceDisconnected):
            for item in src.subscribe(q, s.start, s.end, "a"):
                if item.kind == "tweet":
                    first_a.append(item.tweet)
        # another subscriber on the same query reads to the end meanwhile
        b_items = list(src.subscribe(q, reconnect, s.end, "b"))
        assert b_items[0].tweet.created_at >= reconnect, "b has nothing of its own to replay"
        resumed = list(src.subscribe(q, reconnect, s.end, "a"))
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
        got = [t for t in src.backfill_timeline(emergent.user_id, since=s.start) if t.created_at < s.emergence_time]
        assert got and got == [t for t in s.timeline if t.user_id == emergent.user_id and t.created_at < s.emergence_time]

    def test_since_bound_respected(self):
        s = build_scenario(mini())
        src = open_source(s)
        candidate = s.accounts_of_kind("candidate")[0]
        mid = s.start + timedelta(seconds=3000)
        got = src.backfill_timeline(candidate.user_id, since=mid)
        assert all(t.created_at >= mid for t in got)

    def test_time_order_whatever_the_line_order(self):
        s = build_scenario(mini())
        emergent = s.accounts_of_kind("emergent")[0]
        src = open_source(replace(s, timeline=tuple(reversed(s.timeline))))
        src.post_probe(replace(s.timeline[0], id=0, created_at=s.start + timedelta(seconds=1),
                               user_id=emergent.user_id))
        got = src.backfill_timeline(emergent.user_id, since=s.start)
        assert got == [t for t in s.timeline if t.user_id == emergent.user_id]


class TestProbes:
    def probe(self, s, seconds, text):
        registry = {a.screen_name.lower(): (a.user_id, a.display_name or a.screen_name) for a in s.accounts}
        hashtags, mentions = extract_entities(text, accounts=registry)
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
        items = list(src.subscribe(StreamQuery(track_terms=("#wahl2013",)), s.start, s.end, "obs"))
        seq = [(i.tweet.created_at, i.is_probe) for i in items if i.kind == "tweet"]
        assert [t for t, _ in seq] == sorted(t for t, _ in seq)
        assert [i.tweet.id for i in items if i.is_probe] == [t.id for t in posted]

    def test_probe_outside_scenario_refused(self):
        s = build_scenario(mini())
        src = open_source(s)
        probe = self.probe(s, -10, "zu frueh #wahl2013")
        with pytest.raises(SourceUnavailable, match=f"^probe timestamp {format_timestamp(probe.created_at)} outside"):
            src.post_probe(probe)

    def test_probe_drop_rate_exact(self):
        cfg = mini(faults=FaultSchedule(probe_drop_rate=0.1))
        s = build_scenario(cfg)
        src = open_source(s)
        for i in range(100):
            src.post_probe(self.probe(s, 10 + i * 50, f"messung {i:03d} #wahl2013"))
        items = list(src.subscribe(StreamQuery(track_terms=("#wahl2013",)), s.start, s.end, "obs"))
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

    @pytest.mark.parametrize("overrides, digests", [
        ({}, {
            "scenario.json": "71d9d9f6d5703d8223c6999e877e1c326b7de79204f7f0ba8edebaa89cd02456",
            "accounts.ndjson": "e485cd7920011061e03ff1bd8579dabac98c31b1bd931b7266ebc6051598bfc5",
            "follows.tsv": "420a0ac69267ed34b4b3a26a6f7d9f32017b47c69bf0c394b1357f4fcbaa91e1",
            "groups.json": "465cb10a09ec93bc497132604786e52b6f6e44204cc7358fd931b1ef667ca768",
            "timeline.ndjson": "48b3afb94525a040cc315be5d5741b99d458c19594ee4044da35d3cc3f0a1a0d",
        }),
        ({"n_public": 2000, "n_tweets": 2000}, {
            "scenario.json": "e5cf85e81b82e220f25b49480b7bc6a59e62aaf63a02139c6c0fef93c0a4fea8",
            "accounts.ndjson": "0570796706832a691a1c0d774790eaef5b453d444747425aac1104aaf2fd633e",
            "follows.tsv": "87b5c9a2f90b4f9c67ba40a873e289f1c8cbb7b3a112c32ae2b902285a9f0201",
            "groups.json": "465cb10a09ec93bc497132604786e52b6f6e44204cc7358fd931b1ef667ca768",
            "timeline.ndjson": "d076789134eea1a3d54d56e8484055de41456ca11f53227c9fd568c5ed863279",
        }),
    ], ids=["mini", "wide"])
    def test_world_bytes_are_pinned(self, tmp_path, overrides, digests):
        # a changed digest means the same config and seed now build another world
        world = write_world(build_scenario(mini(**overrides)), tmp_path / "world")
        assert {name: hashlib.sha256((world / name).read_bytes()).hexdigest() for name in digests} == digests

    def test_json_documents_take_the_one_document_form(self, tmp_path):
        world = write_world(build_scenario(mini()), tmp_path / "world")
        for name in ("scenario.json", "groups.json"):
            text = (world / name).read_text(encoding="utf-8")
            assert text == json_document(json.loads(text)), name

    def test_missing_dir_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_world(tmp_path / "nope")

    def test_line_separators_in_text_and_names_round_trip(self, tmp_path):
        # json_line leaves U+2028 and U+0085 unescaped; only "\n" may end a line
        s = build_scenario(mini())
        s = replace(
            s,
            accounts=(replace(s.accounts[0], display_name="Erste\u2028Zweite\x85Dritte"),) + s.accounts[1:],
            timeline=(replace(s.timeline[0], text=s.timeline[0].text + "\u2028zeile"),) + s.timeline[1:],
        )
        write_world(s, tmp_path / "world")
        assert load_world(tmp_path / "world") == s

    @pytest.mark.parametrize("text", ["{broken", "{}", '{"config": {"nTweets": 10}}', '{"config": []}'])
    def test_bad_scenario_file_is_config_error_naming_it(self, tmp_path, text):
        world = write_world(build_scenario(mini()), tmp_path / "world")
        (world / "scenario.json").write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match="scenario.json"):
            load_world(world)

    @pytest.mark.parametrize("change, named", [
        ({"note": "x"}, "'note'"),
        ({"end": "2030-01-01T00:00:00Z"}, "'end'"),
    ])
    def test_scenario_file_holds_only_what_follows_from_its_config(self, tmp_path, change, named):
        world = write_world(build_scenario(mini()), tmp_path / "world")
        meta = json.loads((world / "scenario.json").read_text(encoding="utf-8"))
        (world / "scenario.json").write_text(json.dumps({**meta, **change}), encoding="utf-8")
        with pytest.raises(ConfigError, match=f"scenario.json.*{named}"):
            load_world(world)

    def test_bad_timeline_line_names_path_and_line(self, tmp_path):
        world = write_world(build_scenario(mini()), tmp_path / "world")
        lines = (world / "timeline.ndjson").read_text(encoding="utf-8").splitlines(keepends=True)
        (world / "timeline.ndjson").write_text(lines[0] + '{"_id": 1}\n' + "".join(lines[1:]), encoding="utf-8")
        with pytest.raises(ConfigError, match=r"timeline\.ndjson:2: .*userid"):
            load_world(world)


class TestConfigObj:
    def test_absent_keys_take_the_defaults(self):
        assert config_from_obj({"seed": 5}) == bundestag_mini(5)
        assert config_from_obj({"seed": 5, "faults": {}, "emergent": {}}) == bundestag_mini(5)

    def test_round_trip(self):
        config = mini(seed=3, n_tweets=123, start=mini().start + timedelta(days=2), reply_probability=0.5,
                      hashtag_propensities=(("a", 0.5),), language_mix=(("fr", 1.0),),
                      faults=FaultSchedule(drop_rate=0.02, probe_drop_rate=0.5, redeliver_on_reconnect=20,
                                           disconnect_windows=(DisconnectWindow(1, 5),)),
                      emergent=EmergentParty(account_count=3, emergence_fraction=0.2))
        assert config_from_obj(json.loads(json.dumps(config_to_obj(config)))) == config

    @pytest.mark.parametrize("obj", [None, [], {}, {"seed": 1, "nTweets": "many"}, {"seed": 1, "faults": []}])
    def test_malformed_config_is_config_error(self, obj):
        with pytest.raises(ConfigError):
            config_from_obj(obj)

    @pytest.mark.parametrize("obj, key", [
        ({"seed": 1, "nTweet": 10}, "unknown field 'nTweet'"),
        ({"seed": 1, "faults": {"dropRates": 0.1}}, "'faults': unknown field 'dropRates'"),
        ({"seed": 1, "emergent": {"accounts": 3}}, "'emergent': unknown field 'accounts'"),
    ])
    def test_unknown_key_is_refused_and_named(self, obj, key):
        with pytest.raises(ConfigError, match=key):
            config_from_obj(obj)
