"""Acceptance gate: one test per criterion on the stock bundestag-mini preset.

Each test prints one `criterion NN PASS/FAIL` line (visible with -s or -v
plus failure output) and asserts the criterion at its stated tolerance.
"""

import math
from datetime import timedelta
from fractions import Fraction
from types import SimpleNamespace

import pytest

from test_corpus import oracle_matches
from test_tweets import PUBLISHED_ROW

from tweetcorpus.authority import FollowGraph, derive_information_authorities
from tweetcorpus.collect import ProbePlan, ScheduledAmendment, collect_run
from tweetcorpus.corpus import (
    AccountQuery,
    CorpusDefinition,
    KeywordQuery,
    MetadataQuery,
    RandomSampleQuery,
    TimeWindow,
    sample_decision,
)
from tweetcorpus.observer import AmendmentPlan
from tweetcorpus.sim import build_scenario, bundestag_mini, conversation_reference, ground_truth
from tweetcorpus.sim import FaultSchedule
from tweetcorpus.store import CorpusStore, dehydrate, privacy_filter, rehydrate
from tweetcorpus.tweets import parse_tweet, serialize_tweet, validate


def report(n: int, desc: str, ok: bool) -> bool:
    print(f"criterion {n:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    return ok


def four_strategy_defs(s):
    window = TimeWindow(s.start, s.end)
    candidates = tuple((a.user_id, a.screen_name) for a in s.accounts_of_kind("candidate"))
    return [
        CorpusDefinition("kand", AccountQuery(accounts=candidates), window),
        CorpusDefinition("tag", KeywordQuery(hashtags=("wahl2013", "btw13", "tvduell")), window),
        CorpusDefinition("geo", MetadataQuery(country="DE"), window),
        CorpusDefinition("rand", RandomSampleQuery(rate=0.25, seed=s.config.seed), window),
    ]


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """Fault-free run of all four strategies over one shared store."""
    s = build_scenario(bundestag_mini())
    defs = four_strategy_defs(s)
    root = tmp_path_factory.mktemp("acceptance")
    store = CorpusStore(root / "store")
    manifest = collect_run(s, defs, store, manifest_path=root / "manifest.json")
    yield SimpleNamespace(scenario=s, defs={d.name: d for d in defs}, store=store,
                          manifest=manifest, root=root)
    store.close()


def stored_ids(store, corpus):
    return {r.tweet.id for r in store.scan(corpus)}


def test_criterion_01_matcher_oracle_equivalence(baseline):
    ok = all(
        stored_ids(baseline.store, name) == ground_truth(baseline.scenario, d)
        for name, d in baseline.defs.items()
    )
    assert report(1, "stored set equals ground truth for all four strategies", ok)


def test_criterion_02_published_record_fidelity():
    t = parse_tweet(PUBLISHED_ROW)
    round_trip = serialize_tweet(t) == PUBLISHED_ROW
    issues = [(i.field, i.kind) for i in validate(t)]
    documented = [
        ("hashtags[0]", "marker-missing"),
        ("hashtags[0]", "slice-mismatch"),
        ("mentions[0]", "slice-mismatch"),
    ]
    ok = round_trip and issues == documented
    assert report(2, "published record round-trips and is flagged exactly as documented", ok)


def test_criterion_03_completeness_exact(tmp_path):
    def probe_run(config, tag):
        s = build_scenario(config)
        d = CorpusDefinition("tag", KeywordQuery(hashtags=("wahl2013",)), TimeWindow(s.start, s.end))
        with CorpusStore(tmp_path / tag) as store:
            m = collect_run(s, [d], store,
                            probe_plans=[ProbePlan("tag", count=100, interval=timedelta(seconds=600))])
        return m.completeness[0]

    lossy = probe_run(bundestag_mini(faults=FaultSchedule(probe_drop_rate=0.10)), "lossy")
    clean = probe_run(bundestag_mini(), "clean")
    ok = (
        (lossy.created, lossy.stored, lossy.completeness) == (100, 90, 0.90)
        and (clean.created, clean.stored, clean.completeness) == (100, 100, 1.0)
    )
    assert report(3, "100 probes at drop 0.10 -> 90/100 = 0.90 exactly; lossless -> 1.0", ok)


def test_criterion_04_threshold_boundary():
    ok = True
    for g in (4, 7, 8, 13):
        gatekeepers = frozenset(range(1, g + 1))
        k = math.ceil(0.25 * g)
        edges = {(i, 900) for i in range(1, k + 1)} | {(i, 901) for i in range(1, k)}
        graph = FollowGraph(edges=frozenset(edges), gatekeepers=gatekeepers)
        result = derive_information_authorities(graph)
        # brute-force oracle in exact arithmetic
        ok = ok and (Fraction(k, g) >= Fraction(1, 4)) == (900 in result.authorities)
        ok = ok and (900 in result.authorities)
        if k > 1:
            ok = ok and (Fraction(k - 1, g) < Fraction(1, 4)) and (901 not in result.authorities)
        else:
            ok = ok and 901 not in result.authorities
    assert report(4, "ceil(0.25*|G|) followers qualify, one fewer does not, |G| in {4,7,8,13}", ok)


def test_criterion_05_amendment_asymmetry(tmp_path):
    s = build_scenario(bundestag_mini())
    window = TimeWindow(s.start, s.end)
    candidates = tuple((a.user_id, a.screen_name) for a in s.accounts_of_kind("candidate"))
    added = tuple((a.user_id, a.screen_name) for a in s.accounts_of_kind("emergent"))
    added_ids = {uid for uid, _ in added}
    at = s.emergence_time
    narrow = CorpusDefinition("kand", AccountQuery(accounts=candidates), window)
    wide = CorpusDefinition("kand", AccountQuery(accounts=candidates + added), window)

    with CorpusStore(tmp_path / "store") as store:
        manifest = collect_run(
            s, [narrow], store,
            amendments=[ScheduledAmendment("kand", AmendmentPlan(at=at, accounts=added))])
        stored = stored_ids(store, "kand")

    pre = [t for t in s.timeline if t.created_at < at]
    authored_pre = {t.id for t in pre if t.user_id in added_ids}
    mention_set = {
        t.id for t in pre
        if oracle_matches(t, wide) and not oracle_matches(t, narrow) and t.user_id not in added_ids
    }
    wide_gt = {t.id for t in s.timeline if oracle_matches(t, wide)}
    missing = wide_gt - stored
    recovered = sum(b.recovered for b in manifest.amendments[0].backfill)

    ok = (
        len(authored_pre) > 0 and authored_pre <= stored            # 100% authored recovered
        and len(mention_set) > 0 and not (mention_set & stored)      # 0% mention traffic recovered
        and missing == mention_set                                   # bias report = oracle mention set
        and recovered == len(authored_pre)                           # backfill fetched every one
    )
    assert report(5, "amendment recovers all pre-amendment authored, none of the mentions", ok)


def test_criterion_06_hashtag_bias(tmp_path):
    s = build_scenario(bundestag_mini(reply_without_hashtag_probability=0.5))
    d = CorpusDefinition("tag", KeywordQuery(hashtags=("wahl2013",)), TimeWindow(s.start, s.end))
    with CorpusStore(tmp_path / "store") as store:
        collect_run(s, [d], store)
        stored = stored_ids(store, "tag")
    reference = conversation_reference(s, d)
    missing = reference - stored
    untagged_replies = {
        t.id for t in s.timeline
        if t.id in reference and t.reply_to_id is not None and not oracle_matches(t, d)
    }
    recall = len(stored & reference) / len(reference)
    ok = recall < 1 and len(missing) > 0 and missing == untagged_replies
    assert report(6, "reply-drop 0.5: recall < 1 and missing set is exactly the untagged replies", ok)


def test_criterion_07_geo_bias(baseline):
    topic = [t for t in baseline.scenario.timeline]
    geo_size = len(stored_ids(baseline.store, "geo"))
    ratio = geo_size / len(topic)
    ok = len(topic) >= 2000 and abs(ratio - 0.3) <= 0.05
    assert report(7, f"geo corpus fraction {ratio:.3f} within 0.3 +/- 0.05 at {len(topic)} tweets", ok)


def test_criterion_08_archival_round_trip(baseline):
    ids_path = baseline.root / "kand.ids"
    dehydrate(baseline.store, "kand", ids_path)
    source = SimpleNamespace(fetch_tweets=lambda ids: [
        t for t in baseline.scenario.timeline if t.id in set(ids)])
    intact = rehydrate(ids_path, source)
    want = {r.tweet.id: r.tweet for r in baseline.store.scan("kand")}
    identity = {t.id: t for t in intact.tweets} == want and intact.missing_ids == ()

    victims = sorted(want)[:5]
    lossy_source = SimpleNamespace(fetch_tweets=lambda ids: [
        t for t in baseline.scenario.timeline if t.id in set(ids) and t.id not in victims])
    lossy = rehydrate(ids_path, lossy_source)
    deletion = sorted(lossy.missing_ids) == victims

    index = {uid: f"K{i:03d}" for i, (uid, _) in enumerate(
        sorted((a.user_id, a.screen_name) for a in baseline.scenario.accounts_of_kind("candidate"))[:5])}
    derived = privacy_filter(baseline.store, "kand", index)
    got = stored_ids(baseline.store, derived)
    oracle = {r.tweet.id for r in baseline.store.scan("kand") if r.tweet.user_id in index}
    privacy = got == oracle and len(got) > 0

    ok = identity and deletion and privacy
    assert report(8, "dehydrate/rehydrate identity, 5 deletions reported, privacy filter exact", ok)


def test_criterion_09_idempotency_and_concurrency(baseline):
    no_dupes = True
    for name in baseline.defs:
        rows = baseline.store.scan(name, include_probes=True)
        no_dupes = no_dupes and len(rows) == len({r.tweet.id for r in rows})
    algebra = all(
        snap.seen >= snap.matched == snap.stored + snap.duplicates
        for snap in baseline.manifest.corpora
    )
    ok = no_dupes and algebra and len(baseline.manifest.corpora) == 4
    assert report(9, "4 observers on one store: no duplicate (corpus, id), counter algebra holds", ok)


def test_criterion_10_reproducibility(tmp_path):
    def run(tag):
        s = build_scenario(bundestag_mini())
        defs = four_strategy_defs(s)
        out = tmp_path / tag
        with CorpusStore(out / "store") as store:
            collect_run(s, defs, store, manifest_path=out / "manifest.json")
            exports = {}
            for d in defs:
                dehydrate(store, d.name, out / f"{d.name}.ids")
                exports[d.name] = (out / f"{d.name}.ids").read_bytes()
        return (out / "manifest.json").read_bytes(), exports

    manifest_a, exports_a = run("a")
    manifest_b, exports_b = run("b")
    ok = manifest_a == manifest_b and exports_a == exports_b
    assert report(10, "identical config and seed: byte-identical manifests and exports", ok)


def test_criterion_11_sampler_calibration():
    seed = bundestag_mini().seed
    accepted = sum(1 for i in range(1, 100_001) if sample_decision(i, 0.25, seed))
    rate = accepted / 100_000
    ok = abs(rate - 0.25) <= 0.01
    assert report(11, f"sampler rate {rate:.4f} within 0.25 +/- 0.01 over 100,000 ids", ok)
