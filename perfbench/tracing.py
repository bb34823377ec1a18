"""Per-layer tracing from outside the package.

The tracer replaces module and class attributes that the package looks up
at call time (``sim._delivers``, ``CorpusStore.append``, ...) with timing
wrappers, so no file under ``src/`` changes.  Each thread accumulates into
its own record; records are merged only when the benchmark asks for the
totals at the end of a run.

A span's total time includes the spans it calls; its self time excludes
them.  Times summed over observer threads are thread-summed and can exceed
wall time.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

perf_counter = time.perf_counter


class _ThreadRecord:
    __slots__ = ("calls", "total", "self_time", "counts", "stack")

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.stack: list[float] = []


class Tracer:
    """Span and count accumulator; ``enabled`` gates every wrapper."""

    def __init__(self):
        self.enabled = True
        self._local = threading.local()
        self._records: list[_ThreadRecord] = []
        self._records_lock = threading.Lock()
        self.gauges: dict[str, float] = {}

    def _record(self) -> _ThreadRecord:
        rec = getattr(self._local, "rec", None)
        if rec is None:
            rec = self._local.rec = _ThreadRecord()
            with self._records_lock:
                self._records.append(rec)
        return rec

    def count(self, name: str, n: int = 1):
        if self.enabled:
            self._record().counts[name] += n

    def gauge(self, name: str, value: float):
        if self.enabled:
            self.gauges[name] = value

    def add_time(self, name: str, seconds: float):
        """Record a span measured by the caller (no nesting bookkeeping)."""
        if self.enabled:
            rec = self._record()
            rec.calls[name] += 1
            rec.total[name] += seconds
            rec.self_time[name] += seconds

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        rec = self._record()
        stack = rec.stack
        stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - t0
            child = stack.pop()
            rec.calls[name] += 1
            rec.total[name] += elapsed
            rec.self_time[name] += elapsed - child
            if stack:
                stack[-1] += elapsed

    def wrap(self, owner, attr: str, name: str, on_result=None):
        """Replace ``owner.attr`` with a version that runs inside a span.

        ``on_result(result)`` runs after each traced call, for counts that
        depend on what the call returned.
        """
        orig = getattr(owner, attr)
        call = self.call

        def wrapper(*args, **kwargs):
            result = call(name, orig, *args, **kwargs)
            if on_result is not None and self.enabled:
                on_result(result)
            return result

        setattr(owner, attr, wrapper)

    def totals(self) -> dict:
        """Merge every thread's record: calls, total and self time, counts."""
        calls, total, self_time = defaultdict(int), defaultdict(float), defaultdict(float)
        counts = defaultdict(int)
        with self._records_lock:
            records = list(self._records)
        for rec in records:
            for k, v in rec.calls.items():
                calls[k] += v
            for k, v in rec.total.items():
                total[k] += v
            for k, v in rec.self_time.items():
                self_time[k] += v
            for k, v in rec.counts.items():
                counts[k] += v
        return {"calls": dict(calls), "total": dict(total), "self": dict(self_time),
                "counts": dict(counts), "gauges": dict(self.gauges)}


class TimedLock:
    """Stands in for a ``threading.Lock`` and records how long ``with`` waits."""

    def __init__(self, lock, tracer: Tracer, name: str):
        self._lock = lock
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        t0 = perf_counter()
        self._lock.acquire()
        if self._tracer.enabled:
            rec = self._tracer._record()
            rec.calls[self._name] += 1
            rec.total[self._name] += perf_counter() - t0
        return self

    def __exit__(self, *exc):
        self._lock.release()
        return False


def instrument(tracer: Tracer):
    """Wrap the package's layer boundaries; call before any work starts."""
    from tweetcorpus import authority, collect, corpus, observer, probes, sim, store, tweets

    wrap = tracer.wrap

    wrap(sim, "build_scenario", "sim.build")
    wrap(sim, "write_world", "sim.write_world")
    wrap(sim, "load_world", "sim.load_world")
    wrap(sim.SimStreamSource, "subscribe", "sim.subscribe")
    wrap(sim.SimStreamSource, "fetch_tweets", "sim.fetch")
    wrap(sim, "_delivers", "sim.delivers")
    wrap(sim, "ground_truth", "sim.oracle")
    wrap(sim, "conversation_reference", "sim.oracle")
    wrap(sim, "term_in_text", "corpus.term_in_text")
    wrap(corpus, "term_in_text", "corpus.term_in_text")
    wrap(observer, "matches", "corpus.matches",
         on_result=lambda result: tracer.count("corpus.matched", int(bool(result))))

    orig_iter = sim.Subscription.__iter__

    def traced_iter(sub):
        items = orig_iter(sub)
        try:
            while True:
                try:
                    item = tracer.call("sim.stream", next, items)
                except StopIteration:
                    return
                tracer.count("sim.delivered" if item.kind == "tweet" else "sim.limit_notices")
                yield item
        finally:
            items.close()

    sim.Subscription.__iter__ = traced_iter

    wrap(store, "tweet_from_dict", "tweets.decode")
    wrap(sim, "parse_tweet", "tweets.decode")
    wrap(store, "tweet_to_dict", "tweets.encode")
    wrap(sim, "serialize_tweet", "tweets.encode")
    wrap(tweets, "serialize_tweet", "tweets.encode")

    orig_init = store.CorpusStore.__init__

    def traced_init(self, root):
        tracer.call("store.open", orig_init, self, root)
        self._lock = TimedLock(self._lock, tracer, "store.lock_wait")
        tracer.count("store.open_rows", sum(len(ids) for ids in self._index.values()))

    store.CorpusStore.__init__ = traced_init
    wrap(store.CorpusStore, "append", "store.append",
         on_result=lambda result: tracer.count(
             "store.appended" if result == "appended" else "store.duplicates"))
    wrap(store.CorpusStore, "_read_all", "store.read_all",
         on_result=lambda result: tracer.count("store.rows_decoded", len(result)))
    wrap(store.CorpusStore, "scan", "store.scan")
    wrap(store, "dehydrate", "store.dehydrate")

    orig_run = observer.ObserverHandle._run

    def traced_run(self):
        wall0, cpu0 = perf_counter(), time.thread_time()
        try:
            orig_run(self)
        finally:
            tracer.add_time("observer.cpu", time.thread_time() - cpu0)
            tracer.add_time("observer.wall", perf_counter() - wall0)

    observer.ObserverHandle._run = traced_run

    orig_log = observer.ObserverHandle._log

    def traced_log(self, event, at, **extra):
        if self._log_fh is None:
            return orig_log(self, event, at, **extra)
        return tracer.call("observer.log", orig_log, self, event, at, **extra)

    observer.ObserverHandle._log = traced_log
    wrap(observer.ObserverHandle, "_backfill_account", "observer.backfill",
         on_result=lambda result: tracer.count("observer.backfill_recovered", result.recovered))

    wrap(collect, "collect_run", "collect.run")
    wrap(collect, "write_manifest", "collect.manifest_write")
    wrap(collect, "inject_probes", "probes.inject")
    for mod in (collect, probes):
        wrap(mod, "compute_completeness", "probes.completeness",
             on_result=lambda result: tracer.gauge("probes.stored", result.stored))
    wrap(authority, "wall_posts_from_tweets", "authority.wall_posts")
    wrap(authority, "engagement_table", "authority.engagement_table",
         on_result=lambda result: tracer.gauge("authority.actors", len(result)))


def merge_totals(parts) -> dict:
    """Sum raw tracer totals from several processes of one repetition."""
    merged = {"calls": defaultdict(int), "total": defaultdict(float), "self": defaultdict(float),
              "counts": defaultdict(int), "gauges": {}, "extra": defaultdict(float)}
    for part in parts:
        for key in ("calls", "total", "self", "counts", "extra"):
            for k, v in part.get(key, {}).items():
                merged[key][k] += v
        merged["gauges"].update(part.get("gauges", {}))
    return merged


def layer_metrics(t: dict) -> dict:
    """Named per-layer metrics from merged totals; 0 where a layer did no work.

    ``t["extra"]`` carries what the benchmark measures outside the wrappers:
    ``log_bytes``, ``bytes_written`` and ``rows_stored``.
    """
    calls, total, self_time = t["calls"], t["total"], t["self"]
    counts, gauges, extra = t["counts"], t["gauges"], t["extra"]

    def ratio(num, den):
        return num / den if den else 0.0

    delivered = counts.get("sim.delivered", 0)
    rows_decoded = counts.get("store.rows_decoded", 0)
    return {
        "sim.build_s": total.get("sim.build", 0.0),
        "sim.write_world_s": total.get("sim.write_world", 0.0),
        "sim.load_world_s": total.get("sim.load_world", 0.0),
        "sim.subscribe_calls": calls.get("sim.subscribe", 0),
        "sim.stream_s": self_time.get("sim.stream", 0.0),
        "sim.delivers_calls": calls.get("sim.delivers", 0),
        "sim.delivered": delivered,
        "sim.delivers_s": total.get("sim.delivers", 0.0),
        "sim.limit_notices": counts.get("sim.limit_notices", 0),
        "sim.oracle_s": total.get("sim.oracle", 0.0),
        "sim.fetch_s": total.get("sim.fetch", 0.0),
        "corpus.term_in_text_calls": calls.get("corpus.term_in_text", 0),
        "corpus.term_in_text_s": total.get("corpus.term_in_text", 0.0),
        "corpus.matches_calls": calls.get("corpus.matches", 0),
        "corpus.matches_s": total.get("corpus.matches", 0.0),
        "corpus.match_yield": ratio(counts.get("corpus.matched", 0), delivered),
        "observer.cpu_s": total.get("observer.cpu", 0.0),
        "observer.wait_s": total.get("observer.wall", 0.0) - total.get("observer.cpu", 0.0),
        "observer.log_events": calls.get("observer.log", 0),
        "observer.log_bytes": int(extra.get("log_bytes", 0)),
        "observer.log_s": total.get("observer.log", 0.0),
        "observer.backfill_s": total.get("observer.backfill", 0.0),
        "observer.backfill_recovered": counts.get("observer.backfill_recovered", 0),
        "store.append_calls": calls.get("store.append", 0),
        "store.appended": counts.get("store.appended", 0),
        "store.duplicates": counts.get("store.duplicates", 0),
        "store.append_s": total.get("store.append", 0.0),
        "store.lock_wait_s": total.get("store.lock_wait", 0.0),
        "store.bytes_written": int(extra.get("bytes_written", 0)),
        "store.open_s": total.get("store.open", 0.0),
        "store.open_rows": counts.get("store.open_rows", 0),
        "store.scan_calls": calls.get("store.scan", 0),
        "store.rows_decoded": rows_decoded,
        "store.decode_amplification": ratio(rows_decoded, extra.get("rows_stored", 0)),
        "store.scan_s": total.get("store.scan", 0.0),
        "store.dehydrate_s": total.get("store.dehydrate", 0.0),
        "tweets.decode_s": total.get("tweets.decode", 0.0),
        "tweets.encode_s": total.get("tweets.encode", 0.0),
        "probes.inject_s": total.get("probes.inject", 0.0),
        "probes.completeness_s": total.get("probes.completeness", 0.0),
        "probes.stored": gauges.get("probes.stored", 0),
        "authority.wall_posts_s": total.get("authority.wall_posts", 0.0),
        "authority.engagement_table_s": total.get("authority.engagement_table", 0.0),
        "authority.actors": gauges.get("authority.actors", 0),
        "collect.run_s": total.get("collect.run", 0.0),
        "collect.manifest_write_s": total.get("collect.manifest_write", 0.0),
    }
