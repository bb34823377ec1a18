"""One benchmark stage, run in a fresh process.

    python3 perfbench/workloads.py '<stage spec as JSON>'

Stages:

* ``build``: ``sim build`` of a workload's world (``build_scenario`` +
  ``write_world``), timed as ``build_s``.
* ``run``: set-up (``setup_s``), then ``collect_run`` into a fresh store
  (``collect_s``) when ``collect`` is set, then the read side when ``read``
  is set.  ``peak_rss_mb`` is this process's peak resident memory.
* ``verify``: the oracle checks on what a ``run`` stage left behind.  They
  run in their own process so that neither their time nor their memory
  lands in a measured process.

The read side is what a researcher runs after a collection: ``store scan``
of every corpus (``scan_s``); ``dehydrate`` of every corpus and
``rehydrate`` of each export against the world source (``export_s``); the
bias report against the conversation reference plus the probe report
(``quality_s``); and the engagement table of one corpus (``engagement_s``).

A stage prints one JSON object: metrics, the checks it made as
``[name, passed, detail]``, output digests for the parent to compare with
goldens and across repetitions, rows per corpus, and, with ``trace`` set,
the raw tracer totals.  Paths in the spec are relative to the repository
root, which is the working directory, so manifests (which record config
paths) are byte-identical wherever the benchmark runs.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tweetcorpus import authority, collect, corpus, observer, probes, sim, tweets  # noqa: E402
from tweetcorpus import store as st  # noqa: E402

perf_counter = time.perf_counter

BENCH = Path("perfbench")
CONFIGS = Path("configs")

# The inputs of each study.  `campaign` is the configs/ study unchanged;
# `firehose` is four sample-stream corpora under source faults.  The
# `archive` workload reads a store collected from the `campaign` study.
STUDIES = {
    "campaign": {
        "corpora": CONFIGS / "corpora.json",
        "probes": CONFIGS / "probes.json",
        "amendments": CONFIGS / "amendments.json",
        "faults": None,
        "engagement_corpus": "wahl",
    },
    "firehose": {
        "corpora": BENCH / "firehose" / "corpora.json",
        "probes": None,
        "amendments": None,
        "faults": BENCH / "firehose" / "faults.json",
        "engagement_corpus": "zufall100",
    },
}
STUDY_OF = {"campaign": "campaign", "firehose": "firehose", "archive": "campaign"}

# campaign: these corpora are fault-free and unamended, so the oracle pins them exactly
CAMPAIGN_EXACT = ("wahl", "inland", "stichprobe")
CAMPAIGN_AMENDED = "kandidaten"
# firehose: every other corpus is this one filtered by its own matcher
FIREHOSE_FULL = "zufall100"


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")).hexdigest()


def line_counts(store_dir: Path) -> dict[str, int]:
    """Rows per corpus, counted as lines of the store files."""
    return {p.stem: p.read_bytes().count(b"\n") for p in sorted(store_dir.glob("*.ndjson"))}


def dir_bytes(path: Path, pattern: str) -> int:
    return sum(p.stat().st_size for p in path.glob(pattern))


class Checks:
    """Named pass/fail results; each failed check is a failed operation."""

    def __init__(self):
        self.items: list[list] = []

    def __call__(self, name: str, ok: bool, detail=None):
        self.items.append([name, bool(ok), None if ok else detail])


def study_of(spec: dict) -> dict:
    return STUDIES[STUDY_OF[spec["workload"]]]


# -- stages -------------------------------------------------------------------------

def stage_build(spec: dict, tracer) -> dict:
    study = study_of(spec)
    obj = json.loads((CONFIGS / "scenario.json").read_text(encoding="utf-8"))
    if study["faults"] is not None:
        obj["faults"] = json.loads(study["faults"].read_text(encoding="utf-8"))
    config = replace(sim.config_from_obj(obj), seed=spec["seed"], n_tweets=spec["n_tweets"])
    t0 = perf_counter()
    sim.write_world(sim.build_scenario(config), spec["world"])
    return {"metrics": {"build_s": perf_counter() - t0}}


def load_inputs(study: dict, world: Path) -> dict:
    """The config loads of `collect run`: corpora, probe plans, amendments."""
    inputs = {"defs": corpus.load_corpus_config(study["corpora"]), "probe_plans": (), "amendments": (),
              "config_paths": [world / "scenario.json", study["corpora"]]}
    if study["probes"] is not None:
        inputs["probe_plans"] = collect.probe_plans_from_obj(collect.load_json_config(study["probes"]))
        inputs["config_paths"].append(study["probes"])
    if study["amendments"] is not None:
        inputs["amendments"] = collect.amendments_from_obj(collect.load_json_config(study["amendments"]))
        inputs["config_paths"].append(study["amendments"])
    return inputs


def stage_run(spec: dict, tracer) -> dict:
    world, store_dir = Path(spec["world"]), Path(spec["store"])
    logs = Path(spec["logs"]) if spec["logs"] else None
    t0 = perf_counter()
    scenario = sim.load_world(world)
    source = sim.open_source(scenario)
    store = st.CorpusStore(store_dir)
    inputs = load_inputs(study_of(spec), world)
    metrics = {"setup_s": perf_counter() - t0}
    result = {"metrics": metrics, "checks": [], "digests": {}, "extra": {}}

    if spec["collect"]:
        t0 = perf_counter()
        collect.collect_run(
            scenario, inputs["defs"], store, probe_plans=inputs["probe_plans"],
            amendments=inputs["amendments"], config_paths=inputs["config_paths"],
            manifest_path=spec["manifest"], logs_dir=logs,
            clock_factory=lambda: observer.AcceleratedClock(scenario.start),
        )
        metrics["collect_s"] = perf_counter() - t0
        store.close()
        result["digests"]["manifest"] = sha256_file(Path(spec["manifest"]))
        for path in sorted(store_dir.glob("*.ndjson")):
            result["digests"][f"store/{path.name}"] = sha256_file(path)
        result["extra"]["bytes_written"] = dir_bytes(store_dir, "*.ndjson")
        result["extra"]["log_bytes"] = dir_bytes(logs, "observer-*.ndjson") if logs else 0

    if spec["read"]:
        read_side(spec, scenario, source, store, inputs, tracer, result)
    result["stored"] = line_counts(store_dir)
    result["extra"]["rows_stored"] = sum(result["stored"].values())
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def read_side(spec: dict, scenario, source, store, inputs, tracer, result: dict):
    defs = inputs["defs"]
    exports = Path(spec["exports"])
    exports.mkdir(parents=True, exist_ok=True)
    names = store.corpora()

    t0 = perf_counter()
    scanned = {}
    for c in names:  # `store scan`: every row serialized, here into a digest instead of stdout
        h, n = hashlib.sha256(), 0
        for row in store.scan(c):
            h.update(tweets.serialize_tweet(row.tweet).encode("utf-8") + b"\n")
            n += 1
        scanned[c] = (h.hexdigest(), n)
    t1 = perf_counter()
    exported = {c: st.dehydrate(store, c, exports / f"{c}.ids") for c in names}
    rehydrated = {}
    for c in names:
        r = st.rehydrate(exports / f"{c}.ids", source)
        rehydrated[c] = (len(r.tweets), len(r.missing_ids))
    t2 = perf_counter()
    entries = [
        sim.BiasEntry(name=d.name, stored_ids=frozenset(r.tweet.id for r in store.scan(d.name)),
                      reference_ids=sim.conversation_reference(scenario, d))
        for d in defs
    ]
    bias = sim.bias_report_json(sim.bias_report(entries))
    completeness = {}
    for plan in inputs["probe_plans"]:
        log = probes.read_probe_log(Path(spec["logs"]) / f"probes-{plan.corpus}.ndjson")
        window = next(d.window for d in defs if d.name == plan.corpus)
        completeness[plan.corpus] = probes.report_json(probes.compute_completeness(store, log, window=window))
    t3 = perf_counter()
    wall = store.scan(study_of(spec)["engagement_corpus"], include_probes=False)
    table = authority.engagement_table(authority.wall_posts_from_tweets([r.tweet for r in wall]))
    t4 = perf_counter()

    tracer.enabled = False
    result["metrics"].update(scan_s=t1 - t0, export_s=t2 - t1, quality_s=t3 - t2, engagement_s=t4 - t3)
    checks = Checks()
    for c in names:
        got, missing = rehydrated[c]
        checks(f"rehydrate.{c}.missing", missing == 0, f"{missing} ids did not resolve")
        checks(f"rehydrate.{c}.count", got == exported[c], f"{got} rehydrated, {exported[c]} exported")
        checks(f"export.{c}.rows", exported[c] == scanned[c][1],
               f"{exported[c]} exported, {scanned[c][1]} scanned")
    for plan in inputs["probe_plans"]:
        report = completeness[plan.corpus]
        # no probe faults in the campaign study, so every probe must be stored
        checks(f"completeness.{plan.corpus}", report["stored"] == report["created"] == plan.count,
               f"{report['stored']}/{report['created']} probes stored, {plan.count} planned")
    result["checks"].extend(checks.items)
    digests = result["digests"]
    digests.update({f"scan/{c}": scanned[c][0] for c in names})
    digests.update({f"export/{c}": sha256_file(exports / f"{c}.ids") for c in names})
    digests["bias"] = sha256_json(bias)
    digests["completeness"] = sha256_json(completeness)
    digests["engagement"] = sha256_json(table)
    tracer.enabled = True


# -- oracle checks --------------------------------------------------------------------

def stage_verify(spec: dict, tracer) -> dict:
    world = Path(spec["world"])
    scenario = sim.load_world(world)
    inputs = load_inputs(study_of(spec), world)
    # decode the store files directly, independent of the store's read path
    rows = {p.stem: [json.loads(line) for line in p.read_text(encoding="utf-8").splitlines() if line]
            for p in sorted(Path(spec["store"]).glob("*.ndjson"))}
    manifest = json.loads(Path(spec["manifest"]).read_text(encoding="utf-8"))
    checks = Checks()
    checks("manifest.status", manifest["status"] == "ok", manifest["error"])
    for c in manifest["corpora"]:
        n = len(rows.get(c["corpus"], ()))
        checks(f"manifest.{c['corpus']}.stored", c["stored"] == n, f"manifest says {c['stored']}, store has {n}")
    if STUDY_OF[spec["workload"]] == "campaign":
        campaign_oracle(scenario, rows, inputs, Path(spec["logs"]), checks)
    else:
        firehose_oracle(scenario, rows, inputs, manifest, checks)
    return {"checks": checks.items}


def ids(rows, include_probes: bool = False) -> set[int]:
    return {r["_id"] for r in rows if include_probes or not r["isProbe"]}


def campaign_oracle(scenario, rows: dict, inputs: dict, logs: Path, checks: Checks):
    """Fault-free, unamended corpora hold exactly their ground truth plus the
    probes (of any probed corpus) their matcher accepts; the amended account
    corpus lies between the original and the widened definition's ground
    truth."""
    defs = {d.name: d for d in inputs["defs"]}
    probe_tweets = []
    for plan in inputs["probe_plans"]:
        carriers = {p.carrier_id for p in probes.read_probe_log(logs / f"probes-{plan.corpus}.ndjson")}
        stored = [tweets.tweet_from_dict(r) for r in rows[plan.corpus] if r["isProbe"]]
        checks(f"oracle.{plan.corpus}.probes", {t.id for t in stored} == carriers,
               f"{len(stored)} probe rows stored for {len(carriers)} posted")
        probe_tweets.extend(stored)

    def expected(d):
        return set(sim.ground_truth(scenario, d)) | {t.id for t in probe_tweets if corpus.matches(t, d)}

    for name in CAMPAIGN_EXACT:
        want, got = expected(defs[name]), ids(rows[name], include_probes=True)
        checks(f"oracle.{name}", got == want, f"{len(got - want)} extra, {len(want - got)} missing")
    base = defs[CAMPAIGN_AMENDED]
    added = tuple(a for sa in inputs["amendments"] if sa.corpus == base.name for a in sa.plan.accounts)
    widened = replace(base, strategy=replace(base.strategy, accounts=base.strategy.accounts + added))
    got = ids(rows[base.name], include_probes=True)
    lower, upper = expected(base), expected(widened)
    checks(f"oracle.{base.name}", lower <= got <= upper,
           f"{len(lower - got)} of the original ground truth missing, {len(got - upper)} beyond the widened one")


def firehose_oracle(scenario, rows: dict, inputs: dict, manifest: dict, checks: Checks):
    """Every sample-stream corpus is the full corpus filtered by its matcher,
    and every ground-truth tweet the full corpus lacks is accounted for by
    a recorded gap or a source drop."""
    defs = {d.name: d for d in inputs["defs"]}
    windows = len(scenario.config.faults.disconnect_windows)
    counters = {c["corpus"]: c for c in manifest["corpora"]}
    for name, c in counters.items():
        closed = all(g["closedAt"] is not None for g in c["gaps"])
        checks(f"gaps.{name}", closed and len(c["gaps"]) == windows,
               f"{len(c['gaps'])} gaps for {windows} windows, all closed: {closed}")
    by_id = {t.id: t for t in scenario.timeline}
    full = ids(rows[FIREHOSE_FULL])
    for name, d in defs.items():
        got, truth = ids(rows[name]), sim.ground_truth(scenario, d)
        checks(f"oracle.{name}.precision", got <= truth, f"{len(got - truth)} stored ids outside ground truth")
        if name != FIREHOSE_FULL:
            want = {i for i in full if corpus.matches(by_id[i], d)}
            checks(f"oracle.{name}.filter", got == want,
                   f"{len(got - want)} extra, {len(want - got)} missing against {FIREHOSE_FULL}")
    gaps = [(tweets.parse_timestamp(g["openedAt"]), tweets.parse_timestamp(g["closedAt"]))
            for g in counters[FIREHOSE_FULL]["gaps"] if g["closedAt"] is not None]
    missing = sim.ground_truth(scenario, defs[FIREHOSE_FULL]) - full
    in_gap = {i for i in missing if any(a <= by_id[i].created_at < b for a, b in gaps)}
    dropped = counters[FIREHOSE_FULL]["droppedBySource"]
    checks(f"oracle.{FIREHOSE_FULL}.losses", len(missing) - len(in_gap) == dropped,
           f"{len(missing)} missing, {len(in_gap)} inside gaps, {dropped} dropped by the source")


STAGES = {"build": stage_build, "run": stage_run, "verify": stage_verify}


class _Untraced:
    """Stands in for the tracer when a stage runs untraced."""

    enabled = False


def main(argv) -> int:
    spec = json.loads(argv[1])
    tracer = None
    if spec.get("trace"):
        from tracing import Tracer, instrument
        tracer = Tracer()
        instrument(tracer)
    try:
        result = STAGES[spec["stage"]](spec, tracer or _Untraced())
    except Exception:
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    if tracer is not None:
        result["trace"] = tracer.totals()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
