"""The benchmark's tracer wraps package attributes by name from outside.

Renaming one of them (``Subscription.__iter__``, ``sim._delivers``,
``CorpusStore._read_all``/``_lock``/``_index``, ``ObserverHandle._run``/
``_log``/``_log_fh``/``_backfill_account``, ...) would break
``perfbench/run.py --trace 1`` without failing anything else, so this runs
``perfbench/tracing.instrument`` over a world write and load, a small
collect and a probe log read in a fresh process and requires every span to
have seen calls.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import sys, tempfile
from pathlib import Path

from tracing import Tracer, instrument

tracer = Tracer()
instrument(tracer)

from tweetcorpus import collect, probes, sim, store
from tweetcorpus.corpus import AccountQuery, CorpusDefinition, KeywordQuery, TimeWindow
from tweetcorpus.observer import AmendmentPlan

with tempfile.TemporaryDirectory() as tmp:
    world = sim.write_world(sim.build_scenario(sim.bundestag_mini(n_tweets=400, duration_s=6000)),
                            Path(tmp) / "world")
    s = sim.load_world(world)
    accounts = tuple((a.user_id, a.screen_name) for a in s.accounts_of_kind("candidate"))
    late = tuple((a.user_id, a.screen_name) for a in s.accounts_of_kind("emergent"))
    d = CorpusDefinition("kand", AccountQuery(accounts=accounts), TimeWindow(s.start, s.end))
    tag = CorpusDefinition("tag", KeywordQuery(hashtags=("wahl2013",)), TimeWindow(s.start, s.end))
    amend = collect.ScheduledAmendment("kand", AmendmentPlan(at=s.emergence_time, accounts=late))
    with store.CorpusStore(Path(tmp) / "store") as st:
        collect.collect_run(s, [d, tag], st, amendments=[amend], probe_plans=[collect.ProbePlan("tag", 2)],
                            logs_dir=Path(tmp) / "logs")
        st.scan("kand")
    assert len(probes.read_probe_log(Path(tmp) / "logs" / "probes-tag.ndjson")) == 2
calls = tracer.totals()["calls"]
spans = ("sim.write_world", "sim.load_world", "sim.subscribe", "sim.stream", "sim.delivers",
         "corpus.matches", "store.open", "store.lock_wait", "store.append", "store.read_all", "store.scan",
         "tweets.encode", "tweets.decode", "observer.wall", "observer.log", "observer.backfill",
         "probes.inject", "probes.completeness", "collect.run")
idle = [name for name in spans if not calls.get(name)]
sys.exit(f"spans that saw no calls: {idle}" if idle else 0)
"""


def test_tracer_instruments_a_collect():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
