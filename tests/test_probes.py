"""Probe injection and completeness estimation."""

from dataclasses import replace
from datetime import datetime, timedelta, timezone

import pytest

from test_corpus import oracle_matches

from tweetcorpus.corpus import (
    AccountQuery,
    CorpusDefinition,
    KeywordQuery,
    MetadataQuery,
    RandomSampleQuery,
    TimeWindow,
    matches,
)
from tweetcorpus.errors import AnalysisError, ConfigError, SourceError
from tweetcorpus.observer import run_observer
from tweetcorpus.probes import (
    DEFAULT_INTERVAL,
    PROBE_AUTHOR,
    compute_completeness,
    inject_probes,
    probe_carriers,
    read_probe_log,
    report_json,
    write_probe_log,
)
from tweetcorpus.sim import (
    DisconnectWindow,
    EmergentParty,
    FaultSchedule,
    build_scenario,
    bundestag_mini,
    open_source,
)
from tweetcorpus.store import CorpusStore


def world(seed=7, **kw):
    base = dict(n_candidates=12, n_journalists=4, n_editors=2, n_public=30,
                n_tweets=600, duration_s=86_400, emergent=EmergentParty(account_count=5))
    base.update(kw)
    return build_scenario(bundestag_mini(seed=seed, **base))


def keyword_def(s, name="tag"):
    return CorpusDefinition(name, KeywordQuery(hashtags=("wahl2013",)), TimeWindow(s.start, s.end))


class TestInjection:
    def test_keyword_probes_match_and_carry_markers(self):
        s = world()
        d = keyword_def(s)
        src = open_source(s)
        made = inject_probes(d, src, interval=timedelta(minutes=10), count=3)
        assert len(made) == 3
        assert len({p.marker for p in made}) == 3
        got = src.fetch_tweets([p.carrier_id for p in made])
        for probe, t in zip(made, got):
            assert "#wahl2013" in t.text
            assert probe.marker in t.text
            assert probe.marker in {h.text for h in t.hashtags}
            assert matches(t, d) and oracle_matches(t, d)

    def test_default_cadence_is_ten_minutes(self):
        s = world()
        d = keyword_def(s)
        probes = inject_probes(d, open_source(s), count=2)
        assert DEFAULT_INTERVAL == timedelta(minutes=10)
        assert probes[1].injected_at - probes[0].injected_at == timedelta(minutes=10)
        assert probes[0].injected_at == s.start + timedelta(minutes=10)

    def test_count_zero_is_empty_log(self):
        s = world()
        assert inject_probes(keyword_def(s), open_source(s), count=0) == []

    def test_account_corpus_needs_probe_author_on_list(self):
        s = world()
        accounts = tuple((a.user_id, a.screen_name) for a in s.accounts_of_kind("candidate"))
        without = CorpusDefinition("kand", AccountQuery(accounts=accounts),
                                   TimeWindow(s.start, s.end))
        with pytest.raises(ConfigError, match="account list"):
            inject_probes(without, open_source(s), count=1)
        with_probe = CorpusDefinition("kand", AccountQuery(accounts=accounts + (PROBE_AUTHOR,)),
                                      TimeWindow(s.start, s.end))
        src = open_source(s)
        probes = inject_probes(with_probe, src, count=2)
        for t in src.fetch_tweets([p.carrier_id for p in probes]):
            assert t.user_id == PROBE_AUTHOR[0]
            assert matches(t, with_probe) and oracle_matches(t, with_probe)

    def test_metadata_corpus_probes_satisfy_constraints(self):
        s = world()
        d = CorpusDefinition(
            "geo",
            MetadataQuery(country="DE", languages=frozenset({"de"}),
                          format=frozenset({"must_have_url"})),
            TimeWindow(s.start, s.end),
        )
        src = open_source(s)
        probes = inject_probes(d, src, count=2)
        for t in src.fetch_tweets([p.carrier_id for p in probes]):
            assert t.geo[2] == "DE" and t.language == "de" and t.urls
            assert matches(t, d) and oracle_matches(t, d)

    @pytest.mark.parametrize("strategy, metadata", [
        (KeywordQuery(hashtags=("wahl2013",)), MetadataQuery(languages=frozenset({"de"}))),
        (KeywordQuery(terms=("!!!", "wahl")), None),
        (MetadataQuery(country="DE"), MetadataQuery(languages=frozenset({"de", "en"}),
                                                    format=frozenset({"must_have_url"}))),
        (AccountQuery(accounts=(PROBE_AUTHOR,)), MetadataQuery(format=frozenset({"retweets_only"}))),
    ], ids=["keywords-language", "tokenless-term", "metadata-both", "accounts-retweets"])
    def test_probes_satisfy_the_corpus_metadata_and_a_usable_term(self, strategy, metadata):
        s = world()
        d = CorpusDefinition("c", strategy, TimeWindow(s.start, s.end), extra_metadata=metadata)
        src = open_source(s)
        probes = inject_probes(d, src, count=2)
        assert [marker for marker, _ in probe_carriers(d, DEFAULT_INTERVAL, 2)] == [p.marker for p in probes]
        for t in src.fetch_tweets([p.carrier_id for p in probes]):
            assert matches(t, d) and oracle_matches(t, d)

    # constraints no one tweet meets: disjoint languages, two countries
    @pytest.mark.parametrize("strategy, metadata", [
        (MetadataQuery(languages=frozenset({"en"})), MetadataQuery(languages=frozenset({"de"}))),
        (MetadataQuery(country="DE"), MetadataQuery(country="AT")),
    ], ids=["languages", "countries"])
    def test_a_definition_no_carrier_can_meet_is_refused(self, strategy, metadata):
        s = world()
        d = CorpusDefinition("c", strategy, TimeWindow(s.start, s.end), extra_metadata=metadata)
        with pytest.raises(AnalysisError, match="does not match its own corpus"):
            probe_carriers(d, DEFAULT_INTERVAL, 1)

    def test_random_sample_corpus_is_refused(self):
        s = world()
        d = CorpusDefinition("zufall", RandomSampleQuery(rate=0.5, seed=3),
                             TimeWindow(s.start, s.end))
        with pytest.raises(ConfigError, match="random-sample"):
            inject_probes(d, open_source(s), count=1)

    def test_refused_post_aborts_without_partial_log(self):
        s = world(duration_s=600)
        d = CorpusDefinition("tag", KeywordQuery(hashtags=("wahl2013",)),
                             TimeWindow(s.start, s.end + timedelta(hours=1)))
        # the third probe lands past the scenario end and is refused
        with pytest.raises(SourceError):
            inject_probes(d, open_source(s), interval=timedelta(seconds=250), count=3)

    def test_bad_parameters(self):
        s = world()
        d = keyword_def(s)
        with pytest.raises(ConfigError, match="count"):
            inject_probes(d, open_source(s), count=-1)
        with pytest.raises(ConfigError, match="interval"):
            inject_probes(d, open_source(s), interval=timedelta(0), count=1)


class TestCompleteness:
    def run_collection(self, s, d, store, count, **inject_kw):
        src = open_source(s)
        probes = inject_probes(d, src, count=count, **inject_kw)
        run_observer(d, src, store)
        return probes

    def test_lossless_run_scores_exactly_one(self, tmp_path):
        s = world()
        d = keyword_def(s)
        with CorpusStore(tmp_path / "store") as store:
            probes = self.run_collection(s, d, store, count=10)
            report = compute_completeness(store, probes, TimeWindow(s.start, s.end))
        assert (report.created, report.stored, report.completeness) == (10, 10, 1.0)
        assert all(iv["stored"] == iv["created"] == 1 for iv in report_json(report)["intervals"])

    def test_probe_drop_rate_gives_exact_ratio(self, tmp_path):
        s = world(faults=FaultSchedule(probe_drop_rate=0.1))
        d = keyword_def(s)
        with CorpusStore(tmp_path / "store") as store:
            probes = self.run_collection(s, d, store, count=100,
                                         interval=timedelta(seconds=600))
            report = compute_completeness(store, probes, TimeWindow(s.start, s.end))
        assert (report.created, report.stored) == (100, 90)
        assert report.completeness == pytest.approx(0.90)

    def test_loss_is_confined_to_the_gap(self, tmp_path):
        s = world(faults=FaultSchedule(disconnect_windows=(DisconnectWindow(3000, 3015),)))
        d = keyword_def(s)
        with CorpusStore(tmp_path / "store") as store:
            src = open_source(s)
            probes = inject_probes(d, src, interval=timedelta(seconds=100), count=50)
            snap = run_observer(d, src, store).counters
            report = compute_completeness(store, probes, TimeWindow(s.start, s.end))
        gap = snap.gaps[0]
        missing = [iv for iv in report.intervals if iv.stored == 0]
        assert missing
        for iv in missing:
            assert gap.opened_at <= iv.start < gap.closed_at

    def test_markers_distinguish_concurrent_probe_sets(self, tmp_path):
        s = world()
        d = keyword_def(s)
        with CorpusStore(tmp_path / "store") as store:
            src = open_source(s)
            mine = inject_probes(d, src, interval=timedelta(seconds=500), count=5)
            others = inject_probes(d, src, interval=timedelta(seconds=777), count=5)
            run_observer(d, src, store)
            report = compute_completeness(store, mine, TimeWindow(s.start, s.end))
        assert {p.marker for p in mine} & {p.marker for p in others} == set()
        assert (report.created, report.stored) == (5, 5)

    def test_a_probe_counts_by_its_carrier_id_as_a_probe_row(self, tmp_path):
        s = world()
        d = keyword_def(s)
        src = open_source(s)
        probes = inject_probes(d, src, count=3)
        carriers = {t.id: t for t in src.fetch_tweets([p.carrier_id for p in probes])}
        with CorpusStore(tmp_path / "store") as store:
            store.ensure_corpus(d.name)
            first, second, _ = probes
            # the marker text plays no part: a stored carrier counts even with its text replaced
            store.append(replace(carriers[first.carrier_id], text="kontrolle", hashtags=()), d.name,
                         is_probe=True, stored_at=s.start)
            # a carrier stored as an ordinary row is not a stored probe
            store.append(carriers[second.carrier_id], d.name, stored_at=s.start)
            report = compute_completeness(store, probes, TimeWindow(s.start, s.end))
        assert [iv.stored for iv in report.intervals] == [1, 0, 0]

    def test_no_probes_in_window_is_an_error(self, tmp_path):
        s = world()
        d = keyword_def(s)
        with CorpusStore(tmp_path / "store") as store:
            store.ensure_corpus(d.name)
            with pytest.raises(AnalysisError, match="undefined"):
                compute_completeness(store, [], TimeWindow(s.start, s.end))
            probes = inject_probes(d, open_source(s), count=2)
            late = TimeWindow(s.end - timedelta(seconds=1), s.end)
            with pytest.raises(AnalysisError, match="undefined"):
                compute_completeness(store, probes, late)

    def test_mixed_corpora_probe_log_is_rejected(self, tmp_path):
        s = world()
        a = inject_probes(keyword_def(s, "a"), open_source(s), count=1)
        b = inject_probes(keyword_def(s, "b"), open_source(s), count=1)
        with CorpusStore(tmp_path / "store") as store:
            with pytest.raises(AnalysisError, match="several corpora"):
                compute_completeness(store, a + b, TimeWindow(s.start, s.end))


class TestReportOutputs:
    def make_report(self, tmp_path):
        s = world()
        d = keyword_def(s)
        src = open_source(s)
        probes = inject_probes(d, src, count=4)
        with CorpusStore(tmp_path / "store") as store:
            run_observer(d, src, store)
            return probes, compute_completeness(store, probes, TimeWindow(s.start, s.end))

    def test_json_document_shape(self, tmp_path):
        _, report = self.make_report(tmp_path)
        obj = report_json(report)
        assert obj["corpus"] == "tag"
        assert set(obj) == {"corpus", "window", "created", "stored", "completeness", "intervals"}
        assert len(obj["intervals"]) == report.created
        assert obj["stored"] == sum(iv["stored"] for iv in obj["intervals"])

    def test_probe_log_round_trip(self, tmp_path):
        probes, _ = self.make_report(tmp_path)
        path = write_probe_log(probes, tmp_path / "probes.ndjson")
        assert read_probe_log(path) == probes
