"""Roster records, account resolution rules, file IO."""

import csv
import json
import random
from datetime import datetime, timezone

import pytest

from tweetcorpus.errors import ConfigError
from tweetcorpus.roster import (
    AccountCandidateSet,
    AccountOption,
    CandidateRecord,
    Roster,
    VerifiedLink,
    build_demo_roster,
    export_candidates,
    load_roster,
    resolve_account,
)


def utc(*args):
    return datetime(*args, tzinfo=timezone.utc)


def option(user_id, evidence=("party_reference",), badge=False, professional=True):
    return AccountOption(
        user_id=user_id,
        screen_name=f"acct{user_id}",
        evidence=frozenset(evidence),
        platform_verified_badge=badge,
        is_professional=professional,
        decided_at=utc(2013, 8, 1),
    )


class TestResolveAccount:
    def set_of(self, *options):
        return AccountCandidateSet(candidate_id="K-1", options=tuple(options))

    def test_single_evidenced_professional_accepted(self):
        r = resolve_account(self.set_of(option(1)))
        assert r.link is not None and r.link.user_id == 1
        assert r.tied == ()

    def test_no_eligible_account(self):
        r = resolve_account(self.set_of(option(1, evidence=()), option(2, professional=False)))
        assert r.link is None and r.tied == ()

    def test_badge_breaks_two_professional_accounts(self):
        r = resolve_account(self.set_of(option(1), option(2, badge=True)))
        assert r.link.user_id == 2

    def test_professional_preferred_over_private(self):
        r = resolve_account(self.set_of(option(1, professional=False, badge=True), option(2)))
        assert r.link.user_id == 2

    def test_unresolvable_tie_reports_contenders(self):
        r = resolve_account(self.set_of(option(1), option(2)))
        assert r.link is None
        assert [o.user_id for o in r.tied] == [1, 2]

    def test_tie_among_badged(self):
        r = resolve_account(self.set_of(option(1, badge=True), option(2, badge=True), option(3)))
        assert r.link is None
        assert [o.user_id for o in r.tied] == [1, 2]

    def test_order_independent(self):
        opts = [option(3), option(1, badge=True), option(2)]
        results = []
        for seed in range(6):
            shuffled = list(opts)
            random.Random(seed).shuffle(shuffled)
            results.append(resolve_account(self.set_of(*shuffled)))
        assert all(r.link == results[0].link for r in results)
        assert results[0].link.user_id == 1

    def test_accepted_link_carries_option_facts(self):
        o = option(9, evidence=("website_link", "party_reference"), badge=True)
        r = resolve_account(self.set_of(o))
        assert r.link.evidence == frozenset({"website_link", "party_reference"})
        assert r.link.platform_verified_badge is True
        assert r.link.is_professional is True
        assert r.link.decided_at == utc(2013, 8, 1)


class TestInvariants:
    def test_link_without_evidence_impossible(self):
        with pytest.raises(ConfigError, match="evidence"):
            VerifiedLink(1, "a", frozenset(), False, True, utc(2013, 8, 1))

    def test_link_not_professional_impossible(self):
        with pytest.raises(ConfigError, match="professional"):
            VerifiedLink(1, "a", frozenset({"party_reference"}), False, False, utc(2013, 8, 1))

    def test_unknown_evidence_kind(self):
        with pytest.raises(ConfigError, match="gut_feeling"):
            VerifiedLink(1, "a", frozenset({"gut_feeling"}), False, True, utc(2013, 8, 1))

    def test_direct_candidature_needs_constituency(self):
        with pytest.raises(ConfigError, match="constituency"):
            CandidateRecord("K-1", "N", "P", "direct", None, "BE")

    def test_duplicate_candidate_ids(self):
        c = CandidateRecord("K-1", "N", "P", "list", None, "BE")
        with pytest.raises(ConfigError, match="K-1"):
            Roster(candidates=(c, c))

    def test_twitter_account_linked_to_two_candidates(self):
        with pytest.raises(ConfigError, match="twitter account 7 is linked to both K-1 and K-2"):
            Roster(candidates=(cand("K-2", twitter_uid=7), cand("K-1", twitter_uid=7)))


def cand(cid, party="SDP", twitter_uid=None):
    twitter = None
    if twitter_uid is not None:
        twitter = VerifiedLink(
            user_id=twitter_uid,
            screen_name=f"tw{twitter_uid}",
            evidence=frozenset({"party_reference"}),
            platform_verified_badge=False,
            is_professional=True,
            decided_at=utc(2013, 8, 1),
        )
    return CandidateRecord(cid, f"Name {cid}", party, "list", None, "BE", twitter=twitter)


class TestFileRoundTrip:
    def make_roster(self):
        cands = [
            cand("K-001", twitter_uid=11),
            cand("K-002"),
            CandidateRecord(
                "K-003", "Direct Person", "UDC", "both", 42, "BY",
                twitter=VerifiedLink(12, "dp", frozenset({"website_link", "image_or_constituency_match"}), True, True, utc(2013, 7, 2, 9, 30)),
                facebook=VerifiedLink(9912, "dp.fb", frozenset({"party_reference"}), False, True, utc(2013, 7, 3)),
            ),
        ]
        return Roster(candidates=tuple(cands))

    def test_export_then_load_reproduces_roster(self, tmp_path):
        roster = self.make_roster()
        out = tmp_path / "cands.csv"
        assert export_candidates(roster.candidates, out) == 3
        assert load_roster(out) == roster

    def test_export_writes_header_and_sidecar(self, tmp_path):
        out = tmp_path / "cands.csv"
        export_candidates(self.make_roster().candidates, out)
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == (
            "candidate_id,name,party,candidature,constituency,state,"
            "twitter_user_id,twitter_screen_name,facebook_user_id,facebook_screen_name"
        )
        sidecar = json.loads((tmp_path / "cands.evidence.json").read_text(encoding="utf-8"))
        assert sidecar["K-003"]["twitter"]["badge"] is True
        assert sidecar["K-003"]["facebook"]["evidence"] == ["party_reference"]
        assert "K-002" not in sidecar

    def test_empty_roster_header_only(self, tmp_path):
        out = tmp_path / "cands.csv"
        assert export_candidates([], out) == 0
        assert len(out.read_text(encoding="utf-8").strip().splitlines()) == 1

    def test_linked_account_without_evidence_record_refused(self, tmp_path):
        out = tmp_path / "cands.csv"
        export_candidates(self.make_roster().candidates, out)
        sidecar_file = tmp_path / "cands.evidence.json"
        sidecar = json.loads(sidecar_file.read_text(encoding="utf-8"))
        del sidecar["K-001"]
        sidecar_file.write_text(json.dumps(sidecar), encoding="utf-8")
        with pytest.raises(ConfigError, match="K-001"):
            load_roster(out)

    def test_unprofessional_link_refused_on_load(self, tmp_path):
        out = tmp_path / "cands.csv"
        export_candidates(self.make_roster().candidates, out)
        sidecar_file = tmp_path / "cands.evidence.json"
        sidecar = json.loads(sidecar_file.read_text(encoding="utf-8"))
        sidecar["K-001"]["twitter"]["professional"] = False
        sidecar_file.write_text(json.dumps(sidecar), encoding="utf-8")
        with pytest.raises(ConfigError, match="professional"):
            load_roster(out)

    @pytest.mark.parametrize("column", ["twitter_user_id", "facebook_user_id", "constituency"])
    @pytest.mark.parametrize("cell", ["1_000_001", "+1000002", " 1000003", "\u0661"])
    def test_integer_cell_of_ascii_digits_only(self, tmp_path, column, cell):
        out = tmp_path / "cands.csv"
        export_candidates(self.make_roster().candidates, out)
        with open(out, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        rows[2][column] = cell  # K-003, on line 4, has both cells set
        with open(out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        with pytest.raises(ConfigError, match=rf"cands\.csv:4: column '{column}': expected ASCII digits"):
            load_roster(out)

    def test_missing_header_columns(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("candidate_id,name\nK-1,X\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="missing columns"):
            load_roster(p)


class TestDemoRoster:
    def test_documented_cardinalities(self):
        roster, agents = build_demo_roster()
        assert len(roster) == 2346
        assert sum(1 for c in roster if c.twitter) == 1009
        assert len(agents) == 76

    def test_deterministic(self):
        a, _ = build_demo_roster()
        b, _ = build_demo_roster()
        assert a == b

    def test_round_trips_through_files(self, tmp_path):
        roster, _ = build_demo_roster(n_candidates=60, n_linked=25, n_agents=5)
        out = tmp_path / "demo.csv"
        export_candidates(roster.candidates, out)
        assert load_roster(out) == roster

    def test_indices_consistent(self):
        roster, _ = build_demo_roster(n_candidates=50, n_linked=20, n_agents=5)
        index = roster.twitter_index()
        assert len(index) == 20
        assert sorted(index.values()) == sorted(c.candidate_id for c in roster if c.twitter)
        assert all(cid.startswith("K-") for cid in index.values())
