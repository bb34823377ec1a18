"""Regenerate the worked-example configuration files from the stock preset.

Account ids and screen names in corpora.json, amendments.json, and
roster.csv must match what `sim build` produces for scenario.json, so the
files are derived from an actual scenario build rather than written by hand.
Run from the repository root:

    python3 configs/generate.py
"""

from datetime import datetime, timezone
from pathlib import Path

from tweetcorpus.roster import CandidateRecord, VerifiedLink, export_candidates
from tweetcorpus.sim import build_scenario, bundestag_mini, config_to_obj
from tweetcorpus.tweets import format_timestamp, write_json

HERE = Path(__file__).resolve().parent

STATES = ("BW", "BY", "BE", "BB", "HE", "NW", "SN", "SH")


def dump(name, doc):
    write_json(HERE / name, doc)
    print(f"wrote {HERE / name}")


def account_refs(accounts):
    return [{"id": a.user_id, "screenName": a.screen_name} for a in accounts]


def main():
    config = bundestag_mini()
    scenario = build_scenario(config)
    window = {"start": format_timestamp(scenario.start), "end": format_timestamp(scenario.end)}
    candidates = scenario.accounts_of_kind("candidate")
    emergent = scenario.accounts_of_kind("emergent")

    dump("scenario.json", config_to_obj(config))

    dump("corpora.json", {"corpora": [
        {
            "name": "kandidaten",
            "window": window,
            "strategy": {"kind": "accounts", "accounts": account_refs(candidates)},
        },
        {
            "name": "wahl",
            "window": window,
            "strategy": {"kind": "keywords", "hashtags": ["wahl2013", "btw13", "tvduell"], "terms": []},
        },
        {
            "name": "inland",
            "window": window,
            "strategy": {"kind": "metadata", "country": "DE", "languages": ["de"]},
        },
        {
            "name": "stichprobe",
            "window": window,
            "strategy": {"kind": "random", "rate": 0.1, "seed": config.seed},
        },
    ]})

    dump("probes.json", {"probes": [{"corpus": "wahl", "count": 12, "intervalSeconds": 3600}]})

    dump("amendments.json", {"amendments": [{
        "corpus": "kandidaten",
        "at": format_timestamp(scenario.emergence_time),
        "accounts": account_refs(emergent),
        "keywords": [],
        "backfill": True,
    }]})

    dump("resolve-sets.json", {"sets": [
        {
            "candidateId": "K2013-001",
            "options": [
                {"userId": 100000, "screenName": "kand000",
                 "evidence": ["party_reference", "website_link"], "isProfessional": True},
            ],
        },
        {
            "candidateId": "K2013-002",
            "options": [
                {"userId": 100001, "screenName": "kand001",
                 "evidence": ["party_reference"], "isProfessional": True},
                {"userId": 555001, "screenName": "kand001_fan",
                 "evidence": ["image_or_constituency_match"], "isProfessional": True},
            ],
        },
        {
            "candidateId": "K2013-003",
            "options": [
                {"userId": 555002, "screenName": "privatperson", "evidence": [],
                 "isProfessional": False},
            ],
        },
    ]})

    decided = datetime(2013, 6, 1, tzinfo=timezone.utc)
    records = [
        CandidateRecord(
            candidate_id=f"K2013-{i:03d}",
            name=a.display_name or a.screen_name,
            party=a.party,
            candidature="list",
            constituency=None,
            state=STATES[i % len(STATES)],
            twitter=VerifiedLink(
                user_id=a.user_id, screen_name=a.screen_name,
                evidence=frozenset({"party_reference"}),
                platform_verified_badge=i % 5 == 0, is_professional=True,
                decided_at=decided,
            ),
        )
        for i, a in enumerate(candidates)
    ]
    export_candidates(records, HERE / "roster.csv")
    print(f"wrote {HERE / 'roster.csv'} (+ evidence sidecar)")


if __name__ == "__main__":
    main()
