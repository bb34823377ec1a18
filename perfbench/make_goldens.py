"""Record goldens.json: output digests and stored row counts per workload and seed.

    python3 perfbench/make_goldens.py [SEED ...]

Runs one untraced repetition of every workload for each seed (default: the
benchmark's default seed and seeds 0-10) and records what it produced.  A
repetition whose oracle checks fail is not recorded, and the script exits
non-zero.  Regenerate only when a change is meant to alter the program's
output, and say so in that change; regenerating to make a failing
benchmark pass hides the regression the goldens exist to catch.
"""

from __future__ import annotations

import json
import sys

import run

DEFAULT_SEEDS = [run.DEFAULT_SEED, *range(11)]


def record(workload: str, seed: int) -> dict:
    r = run.Run(workload, seed, goldens={})
    entry = {"n_tweets": run.SIZES[workload]}
    if workload == "archive":
        stages = {"fixture": run.archive_fixture(r)}
        stages["read"] = run.archive_rep(r, trace=False) if stages["fixture"] else None
    else:
        stages = {"run": run.collect_rep(r, trace=False, verify=True)}
    if r.failed or any(out is None for out in stages.values()):
        raise SystemExit(f"{workload}/{seed}: checks failed, nothing recorded: {r.failed}")
    for label, out in stages.items():
        entry[label] = {"digests": out["digests"], "stored": out["stored"]}
    return entry


def main(argv) -> int:
    seeds = [int(s) for s in argv[1:]] or DEFAULT_SEEDS
    path = run.BENCH / "goldens.json"
    goldens = json.loads(path.read_text(encoding="utf-8"))
    for seed in seeds:
        for workload in run.WORKLOADS:
            goldens[f"{workload}/{seed}"] = record(workload, seed)
            print(f"recorded {workload}/{seed}", file=sys.stderr)
            path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
