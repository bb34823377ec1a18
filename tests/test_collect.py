"""Run orchestration: manifests, reproducibility, failure accounting."""

import hashlib
import json
from datetime import timedelta

import pytest

from test_corpus import oracle_matches

from tweetcorpus.collect import (
    ProbePlan,
    ScheduledAmendment,
    amendments_from_obj,
    append_amendment,
    collect_run,
    derive_run_id,
    file_hash,
    load_manifest,
    manifest_table,
    probe_plans_from_obj,
)
from tweetcorpus.corpus import AccountQuery, CorpusDefinition, KeywordQuery, TimeWindow
from tweetcorpus.errors import ConfigError, StoreError
from tweetcorpus.observer import AmendmentPlan
from tweetcorpus.sim import EmergentParty, FaultSchedule, build_scenario, bundestag_mini
from tweetcorpus.store import CorpusStore, dehydrate


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


def oracle_ids(s, d):
    return {t.id for t in s.timeline if oracle_matches(t, d)}


class FailingStore(CorpusStore):
    """Store whose appends always fail, for crash accounting tests."""

    def append(self, tweet, corpus, **kw):
        raise StoreError("disk on fire")


class FailingForKand(CorpusStore):
    """Store whose appends fail for corpus ``kand`` only."""

    def append(self, tweet, corpus, **kw):
        if corpus == "kand":
            raise StoreError("kand disk on fire")
        return super().append(tweet, corpus, **kw)


class TestCollectRun:
    def test_counters_match_store_and_ground_truth(self, tmp_path):
        s = world()
        defs = [candidate_def(s), keyword_def(s)]
        with CorpusStore(tmp_path / "store") as store:
            m = collect_run(s, defs, store)
            assert m.status == "ok" and m.error is None
            assert [c.corpus for c in m.corpora] == ["kand", "tag"]
            for snap, d in zip(m.corpora, defs):
                assert snap.state == "stopped"
                assert snap.stored == store.count(d.name)
                assert snap.matched == snap.stored + snap.duplicates
                assert {r.tweet.id for r in store.scan(d.name)} == oracle_ids(s, d)

    def test_probed_corpus_reports_completeness(self, tmp_path):
        s = world()
        with CorpusStore(tmp_path / "store") as store:
            m = collect_run(s, [keyword_def(s)], store,
                            probe_plans=[ProbePlan("tag", count=8, interval=timedelta(seconds=600))])
            assert len(m.completeness) == 1
            r = m.completeness[0]
            assert (r.corpus, r.created, r.stored, r.completeness) == ("tag", 8, 8, 1.0)

    def test_manifest_file_and_logs_written(self, tmp_path):
        s = world()
        manifest_path = tmp_path / "run" / "manifest.json"
        logs = tmp_path / "run" / "logs"
        with CorpusStore(tmp_path / "store") as store:
            m = collect_run(s, [candidate_def(s), keyword_def(s)], store,
                            probe_plans=[ProbePlan("tag", count=4, interval=timedelta(seconds=600))],
                            manifest_path=manifest_path, logs_dir=logs)
        doc = load_manifest(manifest_path)
        assert doc["runId"] == m.run_id
        assert doc["status"] == "ok"
        assert doc["toolVersion"] == m.tool_version
        assert {p.name for p in logs.iterdir()} == {
            "observer-kand.ndjson", "observer-tag.ndjson", "probes-tag.ndjson",
        }
        assert manifest_path.read_text(encoding="utf-8").endswith("\n")

    def test_config_paths_hashed_into_manifest(self, tmp_path):
        s = world()
        cfg = tmp_path / "corpora.json"
        cfg.write_text('{"corpora": []}', encoding="utf-8")
        with CorpusStore(tmp_path / "store") as store:
            m = collect_run(s, [keyword_def(s)], store, config_paths=[cfg])
        assert m.configs == ((str(cfg), hashlib.sha256(cfg.read_bytes()).hexdigest()),)
        cfg.write_text('{"corpora": [1]}', encoding="utf-8")
        assert file_hash(cfg) != m.configs[0][1]

    def test_scheduled_amendment_recorded_in_manifest(self, tmp_path):
        s = world()
        added = tuple((a.user_id, a.screen_name) for a in s.accounts_of_kind("emergent"))
        plan = AmendmentPlan(at=s.emergence_time, accounts=added)
        with CorpusStore(tmp_path / "store") as store:
            m = collect_run(s, [candidate_def(s)], store,
                            amendments=[ScheduledAmendment("kand", plan)])
        assert len(m.amendments) == 1
        ev = m.amendments[0]
        assert ev.corpus == "kand"
        assert ev.at == s.emergence_time
        assert set(ev.added_accounts) == set(added)
        assert len(ev.backfill) == len(added)

    def test_probed_corpus_that_stores_nothing_reports_zero(self, tmp_path):
        s = build_scenario(bundestag_mini(n_tweets=500, faults=FaultSchedule(probe_drop_rate=1.0)))
        d = CorpusDefinition("leer", KeywordQuery(terms=("zzzkeinwort",)), TimeWindow(s.start, s.end))
        with CorpusStore(tmp_path / "store") as store:
            m = collect_run(s, [d], store, probe_plans=[ProbePlan("leer", 5)])
            assert store.count("leer") == 0
        assert m.status == "ok"
        r = m.completeness[0]
        assert (r.corpus, r.stored, r.created, r.completeness) == ("leer", 0, 5, 0.0)

    def test_manifest_table_is_readable(self, tmp_path):
        s = world()
        manifest_path = tmp_path / "manifest.json"
        with CorpusStore(tmp_path / "store") as store:
            collect_run(s, [keyword_def(s)], store,
                        probe_plans=[ProbePlan("tag", count=4, interval=timedelta(seconds=600))],
                        manifest_path=manifest_path)
        text = manifest_table(load_manifest(manifest_path))
        assert "tag" in text and "status ok" in text and "completeness" in text


class TestReproducibility:
    def run_once(self, tmp_path, tag, cfg):
        s = build_scenario(bundestag_mini(seed=11, n_candidates=10, n_journalists=3, n_editors=2,
                                          n_public=25, n_tweets=500, duration_s=6000))
        manifest_path = tmp_path / tag / "manifest.json"
        with CorpusStore(tmp_path / tag / "store") as store:
            collect_run(s, [candidate_def(s), keyword_def(s)], store,
                        probe_plans=[ProbePlan("tag", count=5, interval=timedelta(seconds=600))],
                        config_paths=[cfg], manifest_path=manifest_path)
            out = tmp_path / tag / "kand.ids"
            dehydrate(store, "kand", out)
        return manifest_path.read_bytes(), out.read_bytes()

    def test_same_config_same_seed_byte_identical(self, tmp_path):
        cfg = tmp_path / "corpora.json"
        cfg.write_text('{"corpora": []}', encoding="utf-8")
        manifest_a, export_a = self.run_once(tmp_path, "a", cfg)
        manifest_b, export_b = self.run_once(tmp_path, "b", cfg)
        assert manifest_a == manifest_b
        assert export_a == export_b

    def test_run_id_depends_on_seed_and_configs(self):
        base = derive_run_id(1, ["aa"], ["kand"])
        assert derive_run_id(2, ["aa"], ["kand"]) != base
        assert derive_run_id(1, ["bb"], ["kand"]) != base
        assert derive_run_id(1, ["aa"], ["tag"]) != base
        assert derive_run_id(1, ["aa"], ["kand"]) == base


class TestFailureManifest:
    def test_manifest_written_when_sink_fails(self, tmp_path):
        s = world(n_tweets=200)
        manifest_path = tmp_path / "manifest.json"
        with FailingStore(tmp_path / "store") as store:
            with pytest.raises(StoreError):
                collect_run(s, [keyword_def(s)], store, manifest_path=manifest_path)
        doc = load_manifest(manifest_path)
        assert doc["status"] == "failed"
        assert "StoreError" in doc["error"] and "disk on fire" in doc["error"]
        assert [c["corpus"] for c in doc["corpora"]] == ["tag"]

    def test_later_observers_run_after_a_failure(self, tmp_path):
        s = world()
        manifest_path = tmp_path / "manifest.json"
        tag = keyword_def(s)
        with FailingForKand(tmp_path / "store") as store:
            with pytest.raises(StoreError, match="kand disk on fire"):
                collect_run(s, [candidate_def(s), tag], store, manifest_path=manifest_path)
            stored = {r.tweet.id for r in store.scan("tag")}
        assert stored == oracle_ids(s, tag)
        doc = load_manifest(manifest_path)
        assert doc["status"] == "failed"
        assert [(c["corpus"], c["stored"]) for c in doc["corpora"]] == [("kand", 0), ("tag", len(stored))]

    def test_validation_errors_precede_any_run(self, tmp_path):
        s = world(n_tweets=100)
        manifest_path = tmp_path / "manifest.json"
        d = keyword_def(s)
        with CorpusStore(tmp_path / "store") as store:
            with pytest.raises(ConfigError, match="unknown corpus"):
                collect_run(s, [d], store, probe_plans=[ProbePlan("nope", count=1)],
                            manifest_path=manifest_path)
            with pytest.raises(ConfigError, match="unknown corpus"):
                collect_run(s, [d], store, manifest_path=manifest_path,
                            amendments=[ScheduledAmendment("nope", AmendmentPlan(at=s.start))])
            with pytest.raises(ConfigError, match="duplicate"):
                collect_run(s, [d, d], store, manifest_path=manifest_path)
            with pytest.raises(ConfigError, match="at least one"):
                collect_run(s, [], store, manifest_path=manifest_path)
        assert not manifest_path.exists()


class TestConfigParsing:
    def test_probe_plans_defaults_and_errors(self):
        plans = probe_plans_from_obj({"probes": [{"corpus": "tag", "count": 3}]})
        assert plans == [ProbePlan("tag", count=3, interval=timedelta(minutes=10))]
        with pytest.raises(ConfigError, match=r"probes\[0\]"):
            probe_plans_from_obj({"probes": [{"corpus": "tag"}]})
        with pytest.raises(ConfigError, match="'probes' list"):
            probe_plans_from_obj([])

    def test_amendment_file_round_trip(self, tmp_path):
        path = tmp_path / "amendments.json"
        sa = ScheduledAmendment("kand", AmendmentPlan(
            at=bundestag_mini().emergence_time, accounts=((400_000, "neu00"),), keywords=()))
        assert append_amendment(path, sa) == 1
        assert append_amendment(path, sa) == 2
        loaded = amendments_from_obj(json.loads(path.read_text(encoding="utf-8")))
        assert loaded == [sa, sa]

    def test_amendment_config_errors(self):
        with pytest.raises(ConfigError, match="'amendments' list"):
            amendments_from_obj({})
        with pytest.raises(ConfigError, match=r"amendments\[0\]"):
            amendments_from_obj({"amendments": [{"corpus": "kand", "at": "not a time"}]})
