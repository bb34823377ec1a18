"""Command surface: exit codes, stream discipline, end-to-end subcommands."""

import json
from datetime import datetime, timezone

import pytest

from tweetcorpus.authority import derive_information_authorities, load_follow_graph
from tweetcorpus.cli import main
from tweetcorpus.probes import ProbeRecord, read_probe_log, write_probe_log
from tweetcorpus.roster import CandidateRecord, VerifiedLink, export_candidates
from tweetcorpus.sim import (
    EmergentParty,
    build_scenario,
    bundestag_mini,
    ground_truth,
    write_world,
)
from tweetcorpus.store import CorpusStore
from tweetcorpus.tweets import format_timestamp, json_document, json_line, parse_tweet


WINDOW = {"start": "2013-09-01T00:00:00Z", "end": "2013-09-02T00:00:00Z"}
TAG_CORPUS = {"name": "c", "window": WINDOW, "strategy": {"kind": "keywords", "hashtags": ["wahl2013"]}}
AMENDMENT = {"corpus": "tag", "at": WINDOW["start"], "keywords": ["btw13"]}
EVIDENCE = {"badge": False, "decidedAt": "2013-06-01T00:00:00Z", "evidence": ["party_reference"], "professional": True}


def build_world(root, seed=7):
    s = build_scenario(bundestag_mini(
        seed=seed, n_candidates=12, n_journalists=4, n_editors=2, n_public=30,
        n_tweets=600, duration_s=6000, emergent=EmergentParty(account_count=5)))
    world = write_world(s, root / "world")
    window = {"start": format_timestamp(s.start), "end": format_timestamp(s.end)}
    corpora = {
        "corpora": [
            {
                "name": "kand",
                "window": window,
                "strategy": {
                    "kind": "accounts",
                    "accounts": [{"id": a.user_id, "screenName": a.screen_name}
                                 for a in s.accounts_of_kind("candidate")],
                },
            },
            {"name": "tag", "window": window,
             "strategy": {"kind": "keywords", "hashtags": ["wahl2013"]}},
        ]
    }
    corpora_path = root / "corpora.json"
    corpora_path.write_text(json.dumps(corpora, indent=1), encoding="utf-8")
    probes_path = root / "probes.json"
    probes_path.write_text(json.dumps(
        {"probes": [{"corpus": "tag", "count": 5, "intervalSeconds": 600}]}), encoding="utf-8")
    return s, world, corpora_path, probes_path


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    s, world, corpora, probes = build_world(root)
    return {"root": root, "scenario": s, "world": world, "corpora": corpora, "probes": probes}


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def collect_into(capsys, env, tag):
    run_dir = env["root"] / tag
    code, out, err = run_cli(
        capsys, "collect", "run", "--world", env["world"], "--corpora", env["corpora"],
        "--store", run_dir / "store", "--manifest", run_dir / "manifest.json",
        "--probes", env["probes"], "--logs", run_dir / "logs")
    return code, out, err, run_dir


class TestSim:
    def test_build_writes_world_and_reports(self, tmp_path, capsys):
        config = tmp_path / "scenario.json"
        config.write_text((bundestag_mini_config_text()), encoding="utf-8")
        code, out, err = run_cli(capsys, "sim", "build", "--config", config, "--out", tmp_path / "w")
        assert code == 0
        doc = json.loads(out)
        assert (tmp_path / "w" / "timeline.ndjson").exists()
        assert doc["tweets"] > 0 and doc["seed"] == 20130922

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        config = tmp_path / "scenario.json"
        config.write_text(bundestag_mini_config_text(), encoding="utf-8")
        code, out, _ = run_cli(capsys, "--seed", "9", "sim", "build",
                               "--config", config, "--out", tmp_path / "w")
        assert code == 0
        assert json.loads(out)["seed"] == 9

    def test_export_matches_oracle(self, env, capsys):
        code, out, _ = run_cli(capsys, "sim", "export", "--world", env["world"],
                               "--corpora", env["corpora"])
        assert code == 0
        doc = json.loads(out)
        s = env["scenario"]
        want = sorted(ground_truth(s, load_defs(env)["tag"]))
        assert doc["groundTruth"]["tag"] == want


class TestCollect:
    def test_run_fills_store_and_manifest(self, env, capsys):
        code, out, err, run_dir = collect_into(capsys, env, "main")
        assert code == 0
        assert "status ok" in out
        doc = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
        assert doc["status"] == "ok"
        assert {c["corpus"] for c in doc["corpora"]} == {"kand", "tag"}
        with CorpusStore(run_dir / "store") as store:
            # stored counts probe rows too; count() with probes is the match
            for c in doc["corpora"]:
                assert c["stored"] == store.count(c["corpus"])
        for line in err.strip().splitlines():
            assert "event" in json.loads(line)

    def test_rerun_is_byte_identical(self, env, capsys):
        code_a, _, _, dir_a = collect_into(capsys, env, "rep-a")
        code_b, _, _, dir_b = collect_into(capsys, env, "rep-b")
        assert code_a == code_b == 0
        assert (dir_a / "manifest.json").read_bytes() == (dir_b / "manifest.json").read_bytes()
        for tag, d in (("a", dir_a), ("b", dir_b)):
            assert run_cli(capsys, "store", "dehydrate", "--store", d / "store",
                           "--corpus", "tag", "--out", d / "tag.ids")[0] == 0
        assert (dir_a / "tag.ids").read_bytes() == (dir_b / "tag.ids").read_bytes()

    def test_amend_queue_then_run(self, env, capsys):
        s = env["scenario"]
        run_dir = env["root"] / "amended"
        amendments = run_dir / "amendments.json"
        argv = ["collect", "amend", "--amendments", amendments, "--corpus", "kand",
                "--at", format_timestamp(s.emergence_time)]
        for a in s.accounts_of_kind("emergent"):
            argv += ["--account", f"{a.user_id}:{a.screen_name}"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["amendments"] == 1
        code, out, _, = run_cli(
            capsys, "collect", "run", "--world", env["world"], "--corpora", env["corpora"],
            "--store", run_dir / "store", "--manifest", run_dir / "manifest.json",
            "--amendments", amendments)
        assert code == 0
        doc = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
        assert len(doc["amendments"]) == 1
        ev = doc["amendments"][0]
        assert ev["corpus"] == "kand"
        assert len(ev["addedAccounts"]) == len(s.accounts_of_kind("emergent"))
        assert len(ev["backfill"]) == len(ev["addedAccounts"])

    def test_amend_requires_some_addition(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "collect", "amend", "--amendments", tmp_path / "a.json",
                               "--corpus", "kand", "--at", "2013-09-01T00:00:00Z")
        assert code == 2
        assert "at least one" in err

    def test_documents_and_events_keep_non_ascii_text(self, tmp_path, capsys):
        path = tmp_path / "änderungen" / "batch.json"
        code, out, err = run_cli(capsys, "collect", "amend", "--amendments", path, "--corpus", "kand",
                                 "--at", WINDOW["start"], "--keyword", "wählen")
        assert code == 0
        text = path.read_text(encoding="utf-8")
        assert "wählen" in text and text == json_document(json.loads(text))
        assert "änderungen" in out and out == json_document(json.loads(out))
        (event,) = err.splitlines()
        assert "änderungen" in event and event == json_line(json.loads(event))

    @pytest.mark.parametrize("account", ["1_000_001:a", "+1000002:b", " 1000003:c", "\u0661:d", "5:", "x"])
    def test_amend_account_id_is_ascii_digits(self, tmp_path, capsys, account):
        code, _, err = run_cli(capsys, "collect", "amend", "--amendments", tmp_path / "a.json", "--corpus", "kand",
                               "--at", "2013-09-01T00:00:00Z", "--account", account)
        assert code == 2
        assert "--account" in json.loads(err.strip().splitlines()[-1])["message"]
        assert not (tmp_path / "a.json").exists()

    def test_status_summarizes_manifest(self, env, capsys):
        manifest = env["root"] / "main" / "manifest.json"
        code, out, _ = run_cli(capsys, "collect", "status", "--manifest", manifest)
        assert code == 0
        assert "kand" in out and "tag" in out and "completeness" in out


class TestProbe:
    def test_probe_run_reports_lossless(self, env, capsys):
        run_dir = env["root"] / "probe"
        code, out, _ = run_cli(
            capsys, "probe", "run", "--world", env["world"], "--corpora", env["corpora"],
            "--probes", env["probes"], "--store", run_dir / "store", "--logs", run_dir / "logs")
        assert code == 0
        reports = json.loads(out)["reports"]
        assert len(reports) == 1
        assert (reports[0]["created"], reports[0]["stored"], reports[0]["completeness"]) == (5, 5, 1.0)
        assert len(read_probe_log(run_dir / "logs" / "probes-tag.ndjson")) == 5

    def test_probe_report_recomputes_from_log(self, env, capsys):
        run_dir = env["root"] / "probe"
        code, out, _ = run_cli(
            capsys, "probe", "report", "--store", run_dir / "store",
            "--probe-log", run_dir / "logs" / "probes-tag.ndjson", "--corpora", env["corpora"])
        assert code == 0
        doc = json.loads(out)
        assert (doc["corpus"], doc["completeness"]) == ("tag", 1.0)


class TestStore:
    def test_scan_prints_ndjson(self, env, capsys):
        store_dir = env["root"] / "main" / "store"
        code, out, _ = run_cli(capsys, "store", "scan", "--store", store_dir, "--corpus", "tag")
        assert code == 0
        lines = out.strip().splitlines()
        with CorpusStore(store_dir) as store:
            assert len(lines) == len(store.ids("tag"))
        first = parse_tweet(lines[0])
        assert first.id > 0

    def test_scan_include_probes_adds_probe_rows(self, env, capsys):
        store_dir = env["root"] / "main" / "store"
        _, plain, _ = run_cli(capsys, "store", "scan", "--store", store_dir, "--corpus", "tag")
        _, with_probes, _ = run_cli(capsys, "store", "scan", "--store", store_dir,
                                    "--corpus", "tag", "--include-probes")
        assert len(with_probes.strip().splitlines()) == len(plain.strip().splitlines()) + 5

    def test_dehydrate_rehydrate_round_trip(self, env, capsys):
        run_dir = env["root"] / "main"
        ids_path = run_dir / "kand.ids"
        code, out, _ = run_cli(capsys, "store", "dehydrate", "--store", run_dir / "store",
                               "--corpus", "kand", "--out", ids_path)
        assert code == 0
        rows = json.loads(out)["rows"]
        out_path = run_dir / "kand-back.ndjson"
        code, out, _ = run_cli(capsys, "store", "rehydrate", "--world", env["world"],
                               "--ids", ids_path, "--out", out_path)
        assert code == 0
        doc = json.loads(out)
        assert doc["missingIds"] == [] and doc["rehydrated"] == rows
        got = {parse_tweet(l).id for l in out_path.read_text(encoding="utf-8").splitlines()}
        with CorpusStore(run_dir / "store") as store:
            assert got == {r.tweet.id for r in store.scan("kand")}

    def test_privacy_filter_keeps_roster_authors_only(self, env, capsys):
        run_dir = env["root"] / "main"
        roster_path = env["root"] / "roster.csv"
        verified = write_small_roster(roster_path, env["scenario"])
        code, out, _ = run_cli(capsys, "store", "privacy-filter", "--store", run_dir / "store",
                               "--corpus", "kand", "--roster", roster_path)
        assert code == 0
        doc = json.loads(out)
        with CorpusStore(run_dir / "store") as store:
            rows = store.scan(doc["corpus"])
            assert rows and {r.tweet.user_id for r in rows} <= verified
            assert doc["rows"] == len(rows)

    def test_export_candidates_demo_round_trips(self, tmp_path, capsys):
        out_path = tmp_path / "demo.csv"
        code, out, _ = run_cli(capsys, "--seed", "3", "store", "export-candidates",
                               "--demo", "--out", out_path)
        assert code == 0
        assert json.loads(out)["candidates"] == 2346
        code, out, _ = run_cli(capsys, "roster", "load", "--roster", out_path)
        assert code == 0
        assert json.loads(out)["candidates"] == 2346

    def test_export_candidates_needs_roster_or_demo(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "store", "export-candidates", "--out", tmp_path / "x.csv")
        assert code == 2
        assert "config" in err


class TestAnalysis:
    def test_authorities_matches_direct_call(self, env, capsys):
        graph_path = env["world"] / "follows.tsv"
        groups_path = env["world"] / "groups.json"
        code, out, _ = run_cli(capsys, "authorities", "--graph", graph_path,
                               "--groups", groups_path, "--threshold", "0.25")
        assert code == 0
        from tweetcorpus.authority import authority_report
        want = authority_report(derive_information_authorities(
            load_follow_graph(graph_path, groups_path), threshold="0.25"))
        assert json.loads(out) == json.loads(json.dumps(want))

    def test_engagement_rows_are_sorted_actors(self, env, capsys):
        code, out, _ = run_cli(capsys, "engagement", "--store", env["root"] / "main" / "store",
                               "--corpus", "tag")
        assert code == 0
        actors = [row["actor"] for row in json.loads(out)["actors"]]
        assert actors == sorted(actors) and actors
        for row in json.loads(out)["actors"]:
            assert 1 <= row["breadth"] <= row["depth"]

    def test_bias_report_shapes_and_determinism(self, env, capsys):
        args = ("bias", "report", "--world", env["world"], "--corpora", env["corpora"],
                "--store", env["root"] / "main" / "store")
        code, out_a, _ = run_cli(capsys, *args)
        assert code == 0
        doc = json.loads(out_a)
        names = {c["name"] for c in doc["corpora"]}
        assert names == {"kand", "tag"}
        for c in doc["corpora"]:
            assert c["missingCount"] == len(c["missing"])
        _, out_b, _ = run_cli(capsys, *args)
        assert out_a == out_b


class TestRoster:
    def test_resolve_reports_links_and_ties(self, tmp_path, capsys):
        sets_path = tmp_path / "sets.json"
        sets_path.write_text(json.dumps({"sets": [
            {"candidateId": "K1", "options": [
                {"userId": 1, "screenName": "a", "evidence": ["party_reference"],
                 "isProfessional": True}]},
            {"candidateId": "K2", "options": [
                {"userId": 2, "screenName": "b", "evidence": ["party_reference"], "isProfessional": True},
                {"userId": 3, "screenName": "c", "evidence": ["website_link"], "isProfessional": True}]},
            {"candidateId": "K3", "options": [
                {"userId": 4, "screenName": "d", "evidence": [], "isProfessional": True}]},
        ]}), encoding="utf-8")
        code, out, _ = run_cli(capsys, "roster", "resolve", "--sets", sets_path)
        assert code == 0
        got = {r["candidateId"]: r for r in json.loads(out)["resolutions"]}
        assert got["K1"]["resolved"] == {"screenName": "a", "userId": 1}
        assert got["K2"]["resolved"] is None and got["K2"]["tied"] == [2, 3]
        assert got["K3"]["resolved"] is None and got["K3"]["tied"] == []


class TestExitCodes:
    def test_missing_config_file_is_2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "collect", "status", "--manifest", tmp_path / "absent.json")
        assert code == 2
        assert json.loads(err.strip().splitlines()[-1])["category"] == "config"

    def test_bad_json_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        code, _, _ = run_cli(capsys, "roster", "resolve", "--sets", bad)
        assert code == 2

    # (key, value or None to delete it, what the error message must name)
    @pytest.mark.parametrize("key, value, named", [
        (k, None, repr(k)) for k in ("runId", "status", "seed", "corpora", "completeness", "amendments")
    ] + [("corpora", 5, "malformed"), ("completeness", [{"corpus": "c", "stored": 1}], "'created'")])
    def test_incomplete_manifest_is_2_and_named(self, tmp_path, capsys, key, value, named):
        doc = {"runId": "x", "status": "ok", "seed": 1, "corpora": [], "completeness": [], "amendments": []}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli(capsys, "collect", "status", "--manifest", path)[0] == 0
        if value is None:
            del doc[key]
        else:
            doc[key] = value
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "collect", "status", "--manifest", path)
        assert code == 2 and out == ""
        last = json.loads(err.strip().splitlines()[-1])
        assert last["category"] == "config" and str(path) in last["message"] and named in last["message"]

    def test_unknown_corpus_is_4(self, env, capsys):
        code, _, err = run_cli(capsys, "store", "scan", "--store", env["root"] / "main" / "store",
                               "--corpus", "nicht-da")
        assert code == 4
        assert json.loads(err.strip().splitlines()[-1])["category"] == "store"

    def three_row_store(self, env, root):
        with CorpusStore(root) as store:
            for t in env["scenario"].timeline[:3]:
                store.append(t, "c", stored_at=t.created_at)
        return root / "c.ndjson"

    def test_torn_store_tail_is_cut_and_logged(self, env, tmp_path, capsys):
        path = self.three_row_store(env, tmp_path / "store")
        path.write_bytes(path.read_bytes()[:-40])
        code, out, err = run_cli(capsys, "store", "scan", "--store", tmp_path / "store", "--corpus", "c")
        assert code == 0
        assert [parse_tweet(l).id for l in out.splitlines()] == [t.id for t in env["scenario"].timeline[:2]]
        event = json.loads(err.strip().splitlines()[0])
        assert event["event"] == "tornTail" and event["corpus"] == "c"
        assert event["bytesCut"] + 1 == (tmp_path / "store" / "c.ndjson.torn").stat().st_size

    def test_corrupt_store_line_is_4_and_named(self, env, tmp_path, capsys):
        # the middle row not JSON, or with an index or tweet field of the wrong JSON type
        for i, middle in enumerate([b"{broken", {"isProbe": "false"}, {"_id": "5"}, {"userid": 1.9},
                                    {"isRetweet": "false"}]):
            store = tmp_path / f"store{i}"
            path = self.three_row_store(env, store)
            lines = path.read_bytes().splitlines(keepends=True)
            if isinstance(middle, dict):
                middle = json_line({**json.loads(lines[1]), **middle}).encode("utf-8")
            path.write_bytes(lines[0] + middle + b"\n" + lines[2])
            code, _, err = run_cli(capsys, "store", "scan", "--store", store, "--corpus", "c")
            assert code == 4
            last = json.loads(err.strip().splitlines()[-1])
            assert last["category"] == "store" and "c.ndjson:2" in last["message"]
            assert not (store / "c.ndjson.torn").exists()

    # a world row whose value is of another JSON kind, or that holds a key no reader reads
    @pytest.mark.parametrize("name, change", [
        ("timeline.ndjson", {"isRetweet": "false"}),
        ("timeline.ndjson", {"replyToId": "5"}),
        ("accounts.ndjson", {"userId": "100000"}),
        ("accounts.ndjson", {"kind": 5}),
        ("accounts.ndjson", {"party": 3}),
        ("accounts.ndjson", {"role": "public"}),
    ])
    def test_broken_world_row_is_2_and_named(self, tmp_path, capsys, name, change):
        _, world, corpora, _ = build_world(tmp_path, seed=4)
        path = world / name
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = json_line({**json.loads(lines[1]), **change}) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        code, out, err = run_cli(capsys, "sim", "export", "--world", world, "--corpora", corpora)
        assert code == 2 and out == ""
        assert f"{path}:2:" in json.loads(err.strip().splitlines()[-1])["message"]

    def test_broken_probe_log_line_is_2_and_named(self, env, tmp_path, capsys):
        good = {"probeId": 1, "corpus": "tag", "injectedAt": "2013-09-01T00:10:00Z", "carrierId": 5,
                "marker": "probe_tag_0001"}
        # a torn line, then lines whose values are of the wrong kind (never coerced)
        for second in ('{"probeId": 1, "corpus": "tag"', json_line(dict(good, probeId=2.7)),
                       json_line(dict(good, carrierId="5")), json_line(dict(good, injectedAt="2013-09-01T00:10:00"))):
            log = write_probe_log([ProbeRecord(probe_id=0, corpus="tag", injected_at=env["scenario"].start,
                                               carrier_id=1, marker="probe_tag_0000")], tmp_path / "probes-tag.ndjson")
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(second + "\n")
            code, _, err = run_cli(capsys, "probe", "report", "--store", tmp_path / "store",
                                   "--probe-log", log, "--corpora", env["corpora"])
            assert code == 2
            last = json.loads(err.strip().splitlines()[-1])
            assert last["category"] == "config" and f"{log}:2:" in last["message"]

    def test_broken_roster_evidence_is_2_and_named(self, env, tmp_path, capsys):
        roster_path = tmp_path / "roster.csv"
        write_small_roster(roster_path, env["scenario"])
        sidecar = tmp_path / "roster.evidence.json"
        sidecar.write_text(sidecar.read_text(encoding="utf-8")[:-10], encoding="utf-8")
        code, _, err = run_cli(capsys, "roster", "load", "--roster", roster_path)
        assert code == 2
        assert str(sidecar) in json.loads(err.strip().splitlines()[-1])["message"]

    @pytest.mark.parametrize("text", ["{broken", "{}"])
    def test_broken_world_scenario_is_2_and_named(self, tmp_path, capsys, text):
        _, world, _, _ = build_world(tmp_path, seed=4)
        (world / "scenario.json").write_text(text, encoding="utf-8")
        code, _, err = run_cli(capsys, "store", "rehydrate", "--world", world,
                               "--ids", tmp_path / "x.ids", "--out", tmp_path / "x.ndjson")
        assert code == 2
        assert str(world / "scenario.json") in json.loads(err.strip().splitlines()[-1])["message"]

    # (the option that reads the file, its content, what the error message must name)
    @pytest.mark.parametrize("option, doc, named", [
        ("--corpora", {"corpora": [5]}, "corpora[0]"),
        ("--corpora", {"corpora": "abc"}, "'corpora' list"),
        ("--corpora", {"corpora": [{"name": "c", "window": 5}]}, "corpus 'c' field 'window'"),
        ("--corpora", {"corpora": [{"name": "c", "window": WINDOW, "strategy": 5}]}, "corpus 'c' field 'strategy'"),
        ("--corpora", {"corpora": [{"name": "c", "window": WINDOW, "metadata": 5,
                                    "strategy": {"kind": "keywords", "hashtags": ["x"]}}]}, "corpus 'c' field 'metadata'"),
        ("--probes", {"probes": {}}, "'probes' list"),
        ("--sets", {"sets": [5]}, "sets[0]"),
        ("--amendments", {"amendments": {}}, "'amendments' list"),
        # a value of the wrong type is refused, never coerced into another collection
        ("--amendments", {"amendments": [dict(AMENDMENT, keywords="btw13")]}, "'keywords'"),
        ("--amendments", {"amendments": [dict(AMENDMENT, keywords=[5])]}, "'keywords'"),
        ("--amendments", {"amendments": [dict(AMENDMENT, backfill="false")]}, "'backfill'"),
        ("--corpora", {"corpora": [dict(TAG_CORPUS, strategy={"kind": "keywords", "hashtags": "wahl"})]}, "'hashtags'"),
        ("--corpora", {"corpora": [dict(TAG_CORPUS, strategy={"kind": "keywords", "hashtags": [5]})]}, "'hashtags'"),
        ("--corpora", {"corpora": [dict(TAG_CORPUS, name=5)]}, "'name'"),
        ("--probes", {"probes": [{"corpus": "tag", "count": "3"}]}, "'count'"),
        ("--probes", {"probes": [{"corpus": "tag", "count": 2.7}]}, "'count'"),
        ("--roster", {"K000": {"twitter": dict(EVIDENCE, professional="no")}}, "'professional'"),
        ("--roster", {"K000": {"twitter": dict(EVIDENCE, evidence="party_reference")}}, "'evidence'"),
        ("--sets", {"sets": [{"candidateId": "K000", "options": [
            {"userId": 1, "screenName": "a", "evidence": "party_reference"}]}]}, "'evidence'"),
        ("--groups", {"gatekeepers": ["abc"]}, "'gatekeepers'"),
        ("--groups", {"gatekeepers": 5}, "'gatekeepers'"),
        # a config timestamp needs a UTC offset
        ("--corpora", {"corpora": [dict(TAG_CORPUS, window={"start": "2013-09-01T00:00:00",
                                                            "end": WINDOW["end"]})]}, "'start'"),
        ("--corpora", {"corpora": [dict(TAG_CORPUS, metadata={"timeWindow": {"start": "2013-09-01T00:00:00",
                                                                             "end": WINDOW["end"]}})]}, "'timeWindow'"),
        ("--amendments", {"amendments": [dict(AMENDMENT, at="2013-09-01T00:00:00")]}, "'at'"),
        ("--at", {"amendments": []}, "--at"),
        ("--roster", {"K000": {"twitter": dict(EVIDENCE, decidedAt="2013-06-01T00:00:00")}}, "'decidedAt'"),
        # a key no builder reads is refused, not ignored (a misspelt key would keep its default)
        ("--corpora", {"corpora": [dict(TAG_CORPUS, strategy={"kind": "accounts", "matchMention": False,
                                                              "accounts": [{"id": 1, "screenName": "a"}]})]},
         "'matchMention'"),
        ("--probes", {"probes": [{"corpus": "tag", "count": 3, "intervalSecond": 60}]}, "'intervalSecond'"),
        ("--amendments", {"amendments": [dict(AMENDMENT, backfil=False)]}, "'backfil'"),
        ("--config", {"seed": 1, "nTweet": 10}, "'nTweet'"),
    ])
    def test_malformed_config_list_is_2_and_named(self, env, tmp_path, capsys, option, doc, named):
        path = tmp_path / "config.json"
        if option == "--roster":
            # the sidecar of a five-candidate roster, with the first candidate's record replaced
            write_small_roster(tmp_path / "roster.csv", env["scenario"])
            path = tmp_path / "roster.evidence.json"
            doc = {**json.loads(path.read_text(encoding="utf-8")), **doc}
        path.write_text(json.dumps(doc), encoding="utf-8")
        run = ("collect", "run", "--world", env["world"], "--store", tmp_path / "store", "--manifest", tmp_path / "m.json")
        amend = ("collect", "amend", "--amendments", path, "--corpus", "tag", "--keyword", "x")
        argv = {
            "--corpora": run + ("--corpora", path),
            "--probes": run + ("--corpora", env["corpora"], "--probes", path),
            "--sets": ("roster", "resolve", "--sets", path),
            "--amendments": amend + ("--at", WINDOW["start"]),
            "--at": amend + ("--at", "2013-09-01T00:00:00"),
            "--roster": ("roster", "load", "--roster", tmp_path / "roster.csv"),
            "--groups": ("authorities", "--graph", env["world"] / "follows.tsv", "--groups", path),
            "--config": ("sim", "build", "--config", path, "--out", tmp_path / "world"),
        }[option]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        last = json.loads(err.strip().splitlines()[-1])
        assert last["category"] == "config" and named in last["message"]
        assert option != "--roster" or str(path) in last["message"]
        assert json.loads(path.read_text(encoding="utf-8")) == doc
        assert not (tmp_path / "m.json").exists()

    def test_bad_threshold_is_5(self, env, capsys):
        code, _, err = run_cli(capsys, "authorities", "--graph", env["world"] / "follows.tsv",
                               "--groups", env["world"] / "groups.json", "--threshold", "3")
        assert code == 5
        assert json.loads(err.strip().splitlines()[-1])["category"] == "analysis"

    def test_refused_probe_post_is_3(self, tmp_path, capsys):
        s, world, _, _ = build_world(tmp_path, seed=5)
        long_window = {"start": format_timestamp(s.start),
                       "end": format_timestamp(s.end.replace(year=s.end.year + 1))}
        corpora = tmp_path / "late.json"
        corpora.write_text(json.dumps({"corpora": [
            {"name": "tag", "window": long_window,
             "strategy": {"kind": "keywords", "hashtags": ["wahl2013"]}}]}), encoding="utf-8")
        probes = tmp_path / "late-probes.json"
        probes.write_text(json.dumps({"probes": [
            {"corpus": "tag", "count": 1,
             "intervalSeconds": int((s.end - s.start).total_seconds()) + 3600}]}), encoding="utf-8")
        code, _, err = run_cli(capsys, "probe", "run", "--world", world, "--corpora", corpora,
                               "--probes", probes, "--store", tmp_path / "store")
        assert code == 3
        assert json.loads(err.strip().splitlines()[-1])["category"] == "source"

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["store", "vaporize"])
        assert e.value.code == 2
        capsys.readouterr()


def bundestag_mini_config_text():
    import json as _json
    from tweetcorpus.sim import config_to_obj
    return _json.dumps(config_to_obj(bundestag_mini(
        n_candidates=8, n_journalists=3, n_editors=2, n_public=15, n_tweets=200, duration_s=3000)))


def load_defs(env):
    from tweetcorpus.corpus import load_corpus_config
    return {d.name: d for d in load_corpus_config(env["corpora"])}


def write_small_roster(path, scenario):
    base = datetime(2013, 6, 1, tzinfo=timezone.utc)
    records = []
    verified = set()
    for i, a in enumerate(scenario.accounts_of_kind("candidate")[:5]):
        records.append(CandidateRecord(
            candidate_id=f"K{i:03d}", name=f"Kandidat {i}", party="SDP", candidature="list",
            constituency=None, state="BE",
            twitter=VerifiedLink(user_id=a.user_id, screen_name=a.screen_name,
                                 evidence=frozenset({"party_reference"}),
                                 platform_verified_badge=False, is_professional=True,
                                 decided_at=base),
        ))
        verified.add(a.user_id)
    export_candidates(records, path)
    return verified
