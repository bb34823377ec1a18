"""Run orchestration: manifests, reproducibility, failure accounting."""

import hashlib
import json
import math
import shutil
import tempfile
from dataclasses import replace
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_observer import candidate_def, keyword_def, oracle_ids, world

from tweetcorpus.collect import (
    ProbePlan,
    ScheduledAmendment,
    amendments_from_obj,
    append_amendment,
    collect_run,
    derive_run_id,
    file_hash,
    load_json_config,
    manifest_json,
    manifest_table,
    probe_plans_from_obj,
    validate_names,
    validate_run,
)
from tweetcorpus.corpus import (
    CorpusDefinition,
    KeywordQuery,
    MetadataQuery,
    RandomSampleQuery,
    TimeWindow,
)
from tweetcorpus.errors import AnalysisError, ConfigError, StoreError
from tweetcorpus.observer import AmendmentPlan
from tweetcorpus.sim import FaultSchedule, build_scenario, bundestag_mini
from tweetcorpus.store import CorpusStore, dehydrate
from tweetcorpus.tweets import format_timestamp


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
            assert [c["state"] for c in manifest_json(m)["corpora"]] == ["stopped", "stopped"]
            for snap, d in zip(m.corpora, defs):
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
        doc = load_json_config(manifest_path)
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
        assert "not recoverable" in manifest_json(m)["amendments"][0]["limitation"]

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
        text = manifest_table(load_json_config(manifest_path))
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

    def test_rerun_into_the_same_logs_rewrites_them(self, tmp_path):
        s = world()
        added = tuple((a.user_id, a.screen_name) for a in s.accounts_of_kind("emergent"))
        amendment = ScheduledAmendment("kand", AmendmentPlan(at=s.emergence_time, accounts=added))
        logs = tmp_path / "logs"
        runs = []
        for tag in ("a", "b"):
            with CorpusStore(tmp_path / tag / "store") as store:
                collect_run(s, [candidate_def(s), keyword_def(s)], store, amendments=[amendment], logs_dir=logs)
            runs.append({p.name: p.read_bytes() for p in logs.glob("observer-*.ndjson")})
        assert sorted(runs[0]) == ["observer-kand.ndjson", "observer-tag.ndjson"]
        assert runs[0] == runs[1]

    def test_timeline_line_order_changes_no_store_byte(self, tmp_path):
        s = world()
        added = tuple((a.user_id, a.screen_name) for a in s.accounts_of_kind("emergent"))
        amendment = ScheduledAmendment("kand", AmendmentPlan(at=s.emergence_time, accounts=added))
        runs = []
        for tag, scenario in (("in-order", s), ("reversed", replace(s, timeline=tuple(reversed(s.timeline))))):
            with CorpusStore(tmp_path / tag) as store:
                manifest = collect_run(scenario, [candidate_def(s), keyword_def(s)], store,
                                       probe_plans=[ProbePlan("tag", 4, timedelta(minutes=10))],
                                       amendments=[amendment])
            runs.append((manifest_json(manifest), {p.name: p.read_bytes() for p in (tmp_path / tag).glob("*.ndjson")}))
        assert max(b["recovered"] for b in runs[0][0]["amendments"][0]["backfill"]) > 1
        assert runs[0] == runs[1]

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
        doc = load_json_config(manifest_path)
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
        doc = load_json_config(manifest_path)
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

    # (probe plans, error, message): each is refused before a corpus is registered or a row stored
    @pytest.mark.parametrize("plans, error, message", [
        ([ProbePlan("tag", 3, timedelta(minutes=10)), ProbePlan("tag", 2, timedelta(minutes=5))],
         ConfigError, "corpus 'tag' has more than one probe plan"),
        ([ProbePlan("zufall", 1)], ConfigError, "random-sample"),
        ([ProbePlan("kand", 1)], ConfigError, "not on the account list"),
        ([ProbePlan("leer", 1)], AnalysisError, "does not match its own corpus"),
    ], ids=["twice", "random", "account", "conflicting"])
    def test_probe_plan_the_run_cannot_post_is_refused_before_any_row(self, tmp_path, plans, error, message):
        s = world()
        window = TimeWindow(s.start, s.end)
        defs = [candidate_def(s), keyword_def(s),
                CorpusDefinition("zufall", RandomSampleQuery(rate=0.5, seed=1), window),
                CorpusDefinition("leer", MetadataQuery(country="DE"), window, extra_metadata=MetadataQuery(country="AT"))]
        manifest_path = tmp_path / "manifest.json"
        with CorpusStore(tmp_path / "store") as store:
            with pytest.raises(error, match=message):
                collect_run(s, defs, store, probe_plans=plans, manifest_path=manifest_path)
            assert store.corpora() == []
        assert not manifest_path.exists()
        with pytest.raises(error, match=message):
            validate_run(s, defs, plans, ())

    @pytest.mark.parametrize("case", ["observed", "twice in one", "again later", "keyword corpus"])
    def test_amendment_that_cannot_apply_is_refused_before_any_row(self, tmp_path, case):
        s = world()
        kand, tag = candidate_def(s), keyword_def(s)
        known, new = kand.strategy.accounts[0], (400_000, "neupartei00")
        at, later = s.emergence_time, s.emergence_time + timedelta(minutes=5)
        amendments, corpus, when, message = {
            "observed": ([ScheduledAmendment("kand", AmendmentPlan(at=at, accounts=(known,)))],
                         "kand", at, "already observed"),
            "twice in one": ([ScheduledAmendment("kand", AmendmentPlan(at=at, accounts=(new, new)))],
                             "kand", at, "duplicate user ids"),
            # listed out of order: the plan at ``at`` applies first, so the later one fails
            "again later": ([ScheduledAmendment("kand", AmendmentPlan(at=later, accounts=(new,))),
                             ScheduledAmendment("kand", AmendmentPlan(at=at, accounts=(new,)))],
                            "kand", later, "already observed"),
            "keyword corpus": ([ScheduledAmendment("tag", AmendmentPlan(at=at, accounts=(new,)))],
                               "tag", at, "need an account collection"),
        }[case]
        manifest_path = tmp_path / "manifest.json"
        with CorpusStore(tmp_path / "store") as store:
            with pytest.raises(ConfigError) as caught:
                collect_run(s, [kand, tag], store, probe_plans=[ProbePlan("tag", 2)],
                            amendments=amendments, manifest_path=manifest_path)
            assert store.corpora() == []
        assert str(caught.value).startswith(f"corpus {corpus!r} amendment at {format_timestamp(when)}: ")
        assert message in str(caught.value)
        assert list((tmp_path / "store").glob("*.ndjson")) == []
        assert not manifest_path.exists()

    # the corpus window outlasts the world, so only the world's span refuses a
    # plan the stream would reach only after it ends
    @pytest.mark.parametrize("late", [timedelta(0), timedelta(minutes=30)], ids=["at-end", "after-end"])
    def test_amendment_after_the_world_ends_is_refused_before_any_row(self, tmp_path, late):
        s = world()
        kand = replace(candidate_def(s), window=TimeWindow(s.start, s.end + timedelta(hours=1)))
        at = s.end + late
        amendments = [ScheduledAmendment("kand", AmendmentPlan(at=at, accounts=((400_000, "neupartei00"),)))]
        validate_names([kand], (), amendments)
        manifest_path = tmp_path / "manifest.json"
        with CorpusStore(tmp_path / "store") as store:
            with pytest.raises(ConfigError) as caught:
                collect_run(s, [kand], store, amendments=amendments, manifest_path=manifest_path)
            assert store.corpora() == []
        assert str(caught.value) == (
            f"corpus 'kand' amendment at {format_timestamp(at)}: outside the world, which runs "
            f"from {format_timestamp(s.start)} to {format_timestamp(s.end)}")
        assert list((tmp_path / "store").glob("*.ndjson")) == []
        assert not manifest_path.exists()

    # the corpus window outlasts the world, so only the world's span refuses a
    # probe that the source would refuse to post
    @pytest.mark.parametrize("side", ["before-start", "at-end"])
    def test_probe_outside_the_world_is_refused_before_any_row(self, tmp_path, side):
        s = world()
        hour = timedelta(hours=1)
        # (window, probe interval, the first probe time outside the world)
        window, interval, refused = {
            "before-start": (TimeWindow(s.start - 2 * hour, s.end), hour, s.start - hour),
            "at-end": (TimeWindow(s.start, s.end + 2 * hour), (s.end - s.start) / 2, s.end),
        }[side]
        tag = replace(keyword_def(s), window=window)
        manifest_path = tmp_path / "manifest.json"
        with CorpusStore(tmp_path / "store") as store:
            with pytest.raises(ConfigError) as caught:
                collect_run(s, [tag], store, probe_plans=[ProbePlan("tag", 3, interval)], manifest_path=manifest_path)
            assert store.corpora() == []
        assert str(caught.value) == (
            f"corpus 'tag' probe at {format_timestamp(refused)}: outside the world, which runs "
            f"from {format_timestamp(s.start)} to {format_timestamp(s.end)}")
        assert list((tmp_path / "store").glob("*.ndjson")) == []
        assert not manifest_path.exists()


class FailingAt(CorpusStore):
    """Store whose ``fail_at``-th append, counted over all corpora from 1, fails."""

    def __init__(self, root, fail_at):
        super().__init__(root)
        self.fail_at, self.calls = fail_at, 0

    def append(self, tweet, corpus, **kw):
        self.calls += 1
        if self.calls == self.fail_at:
            raise StoreError(f"append {self.calls} refused")
        return super().append(tweet, corpus, **kw)


class TestRerunAfterFailure:
    """A run that stopped half-way, rerun with the same inputs on the same
    store, leaves the clean run's store and accounts for the rows it met.
    Where the run stopped is drawn; each example works in a directory of
    its own."""

    def run(self, s, root, store_cls=CorpusStore, **kw):
        added = tuple((a.user_id, a.screen_name) for a in s.accounts_of_kind("emergent"))
        with store_cls(root / "store", **kw) as store:
            try:
                collect_run(s, [candidate_def(s), keyword_def(s)], store,
                            probe_plans=[ProbePlan("tag", 4, timedelta(minutes=10))],
                            amendments=[ScheduledAmendment("kand", AmendmentPlan(at=s.emergence_time, accounts=added))],
                            manifest_path=root / "manifest.json", logs_dir=root / "logs")
            except StoreError:
                pass
        return load_json_config(root / "manifest.json")

    @staticmethod
    def corpus_files(root):
        return {p.name: p.read_bytes() for p in (root / "store").glob("*.ndjson")}

    @staticmethod
    def duplicate_events(root, corpus):
        lines = (root / "logs" / f"observer-{corpus}.ndjson").read_text(encoding="utf-8").splitlines()
        return sum(json.loads(line)["event"] == "duplicate" for line in lines)

    @pytest.fixture(scope="class")
    def clean(self, tmp_path_factory):
        s = world()
        root = tmp_path_factory.mktemp("clean")
        return s, root, self.run(s, root)

    def check_failed_append(self, clean, root, fail_at):
        s, clean_root, manifest = clean
        assert self.run(s, root, FailingAt, fail_at=fail_at)["status"] == "failed"
        before = {name: data.count(b"\n") for name, data in self.corpus_files(root).items()}
        assert before != {name: data.count(b"\n") for name, data in self.corpus_files(clean_root).items()}

        rerun = self.run(s, root)
        assert rerun["status"] == "ok"
        assert self.corpus_files(root) == self.corpus_files(clean_root)
        for was, now in zip(manifest["corpora"], rerun["corpora"]):
            rows = before[f"{was['corpus']}.ndjson"]
            assert now["duplicates"] == was["duplicates"] + rows
            assert (self.duplicate_events(root, now["corpus"])
                    == self.duplicate_events(clean_root, was["corpus"]) + rows)

    @staticmethod
    def total_appends(clean):
        return sum(c["matched"] for c in clean[2]["corpora"])

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_rerun_after_a_failed_append_gives_the_clean_store(self, clean, tmp_path, where):
        total = self.total_appends(clean)
        self.check_failed_append(clean, tmp_path, {"first": 1, "middle": total // 2, "last": total}[where])

    # ``where`` is how far through the run's appends the failing one is; the
    # first, middle and last appends are the cases above
    @given(where=st.floats(0, 1))
    @settings(max_examples=20, deadline=None)
    def test_rerun_after_a_failed_append_anywhere_gives_the_clean_store(self, clean, where):
        fail_at = max(1, math.ceil(where * self.total_appends(clean)))
        with tempfile.TemporaryDirectory() as tmp:
            self.check_failed_append(clean, Path(tmp), fail_at)

    # ``where`` is how far through the final line the cut is: from after its
    # first byte to its newline
    @given(where=st.floats(0, 1))
    @example(where=0.5)
    @example(where=1.0)  # only the newline is cut: the line parses and is kept
    @settings(max_examples=20, deadline=None)
    def test_rerun_after_a_torn_final_line_gives_the_clean_store(self, clean, where):
        s, clean_root, _ = clean
        data = (clean_root / "store" / "tag.ndjson").read_bytes()
        start = data.rindex(b"\n", 0, len(data) - 1) + 1
        cut = start + 1 + math.floor(where * (len(data) - start - 2))
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            shutil.copytree(clean_root / "store", root / "store")
            path = root / "store" / "tag.ndjson"
            path.write_bytes(data[:cut])

            assert self.run(s, root)["status"] == "ok"
            torn = path.with_name("tag.ndjson.torn")
            if cut < len(data) - 1:
                assert torn.read_bytes() == data[start:cut] + b"\n"
            else:
                assert not torn.exists()
            assert self.corpus_files(root) == self.corpus_files(clean_root)


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
        s = world()
        defs = [candidate_def(s)]
        first, second = (ScheduledAmendment("kand", AmendmentPlan(
            at=s.emergence_time, accounts=((400_000 + i, f"neu0{i}"),), keywords=())) for i in (0, 1))
        assert append_amendment(path, first, defs) == 1
        assert append_amendment(path, second, defs) == 2
        loaded = amendments_from_obj(json.loads(path.read_text(encoding="utf-8")))
        assert loaded == [first, second]

    def test_amendment_config_errors(self):
        with pytest.raises(ConfigError, match="'amendments' list"):
            amendments_from_obj({})
        with pytest.raises(ConfigError, match=r"amendments\[0\]"):
            amendments_from_obj({"amendments": [{"corpus": "kand", "at": "not a time"}]})
