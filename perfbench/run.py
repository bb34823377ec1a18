"""Benchmark of the tweetcorpus collector: three workloads, oracle-checked.

    python3 perfbench/run.py --workload campaign|firehose|archive \\
        --seed N --seconds S --trace 0|1

Each repetition runs its stages in fresh processes (see workloads.py), one
after another.  Repetitions start until ``--seconds`` of measuring have
passed, and at least ``MIN_REPS`` of them run.  Each metric is the median
over the repetitions; spreading the samples over the whole run makes the
medians robust to the host's speed drifting over tens of seconds.

With ``--trace 0`` the result holds the end-to-end metrics of
BENCHMARK.json.  With ``--trace 1`` untraced and traced repetitions
alternate; the result holds the per-layer metrics of the traced ones, and
``trace.overhead`` is the traced over the untraced median of the
workload's main work.

Every repetition is checked: the oracle checks, digests against
``goldens.json`` (for the seeds recorded there), and byte-identical output
across repetitions.  A failed check or a crashed stage is a failed
operation.  The known defect D3 (see README.md) is reported by name and
not counted.

The last line of standard output is the result object; the line before it
records provenance, every sample, every failed check and the D3 report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import layer_metrics, merge_totals

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"

WORKLOADS = ("campaign", "firehose", "archive")
DEFAULT_SEED = 20130922
# tweets in each workload's world; the archive store is a larger campaign collection
SIZES = {"campaign": 10_000, "firehose": 10_000, "archive": 20_000}
MIN_REPS = 3
MIN_TRACE_PAIRS = 2
# no repetition starts after LAST_START_S, and every stage is killed at
# DEADLINE_S, so a run ends inside 180 s however slow the host is
LAST_START_S = 100
DEADLINE_S = 170

# D3: sample-stream corpora share one redelivery buffer, so on `firehose`
# which tweets a reconnect redelivers depends on thread interleaving.  The
# manifest (seen, matched, duplicates), the line order of store files and
# the counts below vary from run to run; they are reported, not counted.
D3_DIGESTS = ("manifest", "store/")
D3_COUNTS = ("store.duplicates", "store.append_calls", "corpus.match_yield")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def stage(run: "Run", spec: dict) -> dict:
    """Run one stage in a fresh process; a crash comes back as ``error``."""
    timeout = max(1.0, run.deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "workloads.py"), json.dumps(spec)],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"stage {spec['stage']} killed at the {DEADLINE_S} s deadline"}
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        out = {"error": f"stage {spec['stage']} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    if proc.returncode != 0 and "error" not in out:
        out["error"] = f"stage {spec['stage']} exited {proc.returncode}"
    return out


class Run:
    """Accumulates samples, checks and the D3 report of one benchmark run."""

    def __init__(self, workload: str, seed: int, goldens: dict):
        self.workload = workload
        self.seed = seed
        self.golden = goldens.get(f"{workload}/{seed}")
        if self.golden is not None and self.golden["n_tweets"] != SIZES[workload]:
            self.golden = None
        self.attempted = 0
        self.failed: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.first_digests: dict[str, str] = {}
        self.d3: dict[str, set] = {}
        self.start = time.monotonic()
        self.deadline = self.start + DEADLINE_S

    def check(self, name: str, ok: bool, detail=None):
        self.attempted += 1
        if not ok:
            self.failed.append(f"{name}: {detail}" if detail is not None else name)

    def absorb(self, label: str, out: dict) -> bool:
        """Count a stage's checks and compare its digests; False if it crashed."""
        if "error" in out:
            self.check(f"{label}.completed", False, out["error"])
            return False
        for name, ok, detail in out.get("checks", []):
            self.check(f"{label}.{name}", ok, detail)
        golden = (self.golden or {}).get(label, {})
        golden_digests = golden.get("digests", {})
        for key, digest in sorted(out.get("digests", {}).items()):
            same = digest == self.first_digests.setdefault(key, digest)
            as_golden = golden_digests.get(key, digest) == digest
            if self.workload == "firehose" and key.startswith(D3_DIGESTS):
                if not same:
                    self.d3.setdefault("digests_differing_across_reps", set()).add(key)
                if not as_golden:
                    self.d3.setdefault("digests_differing_from_golden", set()).add(key)
                continue
            self.check(f"{label}.repeatable.{key}", same, "differs from the first repetition")
            if key in golden_digests:
                self.check(f"{label}.golden.{key}", as_golden, "differs from the golden digest")
        if "stored" in out and "stored" in golden:
            self.check(f"{label}.golden.stored", out["stored"] == golden["stored"],
                       f"stored {out['stored']} != golden {golden['stored']}")
        return True


def spec_for(workload: str, seed: int, stage_name: str, trace: bool, **extra) -> dict:
    base = WORK / workload
    spec = {
        "stage": stage_name, "workload": workload, "seed": seed, "n_tweets": SIZES[workload],
        "trace": trace, "world": rel(base / "world"), "store": rel(base / "store"),
        "logs": rel(base / "logs") if workload != "firehose" else None,
        "manifest": rel(base / "manifest.json"), "exports": rel(base / "exports"),
    }
    spec.update(extra)
    return spec


def rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


def clear(workload: str, *names: str):
    for name in names:
        path = WORK / workload / name
        if path.is_dir():
            shutil.rmtree(path)
        elif path.exists():
            path.unlink()


def collect_rep(run: Run, trace: bool, verify: bool) -> dict | None:
    """campaign / firehose: build, collect + read side, optionally verify."""
    w, s = run.workload, run.seed
    clear(w, "store", "logs", "exports", "manifest.json")
    build = stage(run, spec_for(w, s, "build", trace))
    if not run.absorb("build", build):
        return None
    out = stage(run, spec_for(w, s, "run", trace, collect=True, read=True))
    if not run.absorb("run", out):
        return None
    out["metrics"].update(build["metrics"])
    out["traces"] = [build.get("trace", {}), out.get("trace", {})]
    if verify:
        run.absorb("verify", stage(run, spec_for(w, s, "verify", False)))
    return out


def archive_fixture(run: Run) -> dict | None:
    """The store the archive workload reads: a campaign collection, untimed
    for the read side; its build and collect times are the archive's
    ``build_s`` and ``collect_s``."""
    w, s = run.workload, run.seed
    clear(w, "world", "store", "logs", "exports", "manifest.json")
    build = stage(run, spec_for(w, s, "build", False))
    if not run.absorb("build", build):
        return None
    out = stage(run, spec_for(w, s, "run", False, collect=True, read=False))
    if not run.absorb("fixture", out):
        return None
    run.absorb("verify", stage(run, spec_for(w, s, "verify", False)))
    run.samples["build_s"] = [build["metrics"]["build_s"]]
    run.samples["collect_s"] = [out["metrics"]["collect_s"]]
    return out


def archive_rep(run: Run, trace: bool) -> dict | None:
    clear(run.workload, "exports")
    out = stage(run, spec_for(run.workload, run.seed, "run", trace, collect=False, read=True))
    if not run.absorb("read", out):
        return None
    out["traces"] = [out.get("trace", {})]
    return out


def main_work(workload: str, metrics: dict) -> float:
    if workload == "archive":
        return sum(metrics[k] for k in ("scan_s", "export_s", "quality_s", "engagement_s"))
    return metrics["collect_s"]


def measure(run: Run, seconds: float, trace: bool) -> tuple[dict, int]:
    """Repeat until the time is up; returns per-layer samples when tracing
    and the number of repetitions."""
    fixture = archive_fixture(run) if run.workload == "archive" else None
    measuring = time.monotonic()
    plan = [False, True] if trace else [False]
    reps, layers, main = 0, {}, {False: [], True: []}
    minimum = MIN_TRACE_PAIRS * 2 if trace else MIN_REPS
    while reps < minimum or time.monotonic() - measuring < seconds:
        if time.monotonic() - run.start > LAST_START_S or (run.workload == "archive" and fixture is None):
            break
        traced = plan[reps % len(plan)]
        if run.workload == "archive":
            out = archive_rep(run, traced)
        else:
            out = collect_rep(run, traced, verify=reps == 0)
        reps += 1
        if out is None:
            continue
        main[traced].append(main_work(run.workload, out["metrics"]))
        if not traced:
            for name, value in out["metrics"].items():
                run.samples.setdefault(name, []).append(value)
        else:
            totals = merge_totals(out["traces"] + [{"extra": out["extra"]}])
            for name, value in layer_metrics(totals).items():
                layers.setdefault(name, []).append(value)
    if trace and main[True] and main[False]:
        layers["trace.overhead"] = [statistics.median(main[True]) / statistics.median(main[False])]
    return layers, reps


def provenance(args, reps: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    h = hashlib.sha256()
    for top in ("src", "configs", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and ".work" not in p.parts and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "n_tweets": SIZES[args.workload], "repetitions": reps, "nproc": os.cpu_count(),
        "python": platform.python_version(), "git_commit": commit, "source_sha256": h.hexdigest(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "tweetcorpus").is_dir() or not (ROOT / "configs").is_dir():
        print(f"error: {ROOT} has no src/tweetcorpus or configs/ to benchmark", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    goldens = json.loads((BENCH / "goldens.json").read_text(encoding="utf-8"))

    run = Run(args.workload, args.seed, goldens)
    layers, reps = measure(run, args.seconds, bool(args.trace))

    wanted = contract["per_layer"] if args.trace else contract["end_to_end"]
    source = layers if args.trace else run.samples
    metrics, missing = {}, []
    for m in wanted:
        values = source.get(m["name"])
        if not values:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
    if missing:
        run.check("metrics.complete", False, f"no samples for {missing}")
    if args.trace:  # counts and ratios must repeat exactly across traced repetitions
        for m in wanted:
            if m["unit"] == "s" or m["name"] == "trace.overhead":
                continue
            values = layers.get(m["name"], [])
            if args.workload == "firehose" and m["name"] in D3_COUNTS:
                if len(set(values)) > 1:
                    run.d3.setdefault("counts_differing_across_reps", set()).add(m["name"])
            else:
                run.check(f"trace.repeatable.{m['name']}", len(set(values)) <= 1, f"values {values}")

    d3 = {k: sorted(v) for k, v in run.d3.items() if v}
    record = {
        "provenance": provenance(args, reps),
        "samples": source, "failed_checks": run.failed,
        "known_defects": {"D3": d3} if d3 else {},
    }
    if d3:
        print(f"D3 observed on {args.workload}: {json.dumps(d3)}", file=sys.stderr)
    result = {"correct": not run.failed and run.attempted > 0, "attempted": run.attempted,
              "failed": len(run.failed), "metrics": metrics}
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**record, "result": result}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
