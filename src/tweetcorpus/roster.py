"""Candidate roster: records, account verification, and file IO.

An account is linked to a candidate only after a human review recorded at
least one piece of evidence (party reference on the profile, a website
linking to it, or recognition by image/constituency) and judged the
account professional.  ``resolve_account`` applies the decision rules to
reviewed options; it never invents evidence, and a tie that survives the
badge preference is reported for manual adjudication rather than broken
arbitrarily.

On disk a roster is a CSV (header below) plus an evidence sidecar JSON
keyed by candidate id, located at ``<csv stem>.evidence.json`` next to
the CSV.  The loader refuses any linked account that lacks evidence or
the professional flag.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

from .errors import ConfigError
from .tweets import format_timestamp, int_cell, json_field, json_value, load_json_config, write_json

EVIDENCE_KINDS = frozenset({"party_reference", "website_link", "image_or_constituency_match"})
CANDIDATURES = ("direct", "list", "both")

ROSTER_HEADER = [
    "candidate_id", "name", "party", "candidature", "constituency", "state",
    "twitter_user_id", "twitter_screen_name", "facebook_user_id", "facebook_screen_name",
]


@dataclass(frozen=True)
class VerifiedLink:
    """An accepted candidate-account link; constructing one asserts the
    acceptance invariants."""

    user_id: int
    screen_name: str
    evidence: frozenset[str]
    platform_verified_badge: bool
    is_professional: bool
    decided_at: datetime

    def __post_init__(self):
        object.__setattr__(self, "evidence", frozenset(self.evidence))
        unknown = self.evidence - EVIDENCE_KINDS
        if unknown:
            raise ConfigError(f"unknown evidence kinds: {sorted(unknown)}")
        if not self.evidence:
            raise ConfigError(f"account {self.screen_name!r}: accepted link needs evidence")
        if not self.is_professional:
            raise ConfigError(f"account {self.screen_name!r}: accepted link must be professional")


@dataclass(frozen=True)
class CandidateRecord:
    candidate_id: str
    name: str
    party: str
    candidature: str
    constituency: int | None
    state: str
    twitter: VerifiedLink | None = None
    facebook: VerifiedLink | None = None

    def __post_init__(self):
        if self.candidature not in CANDIDATURES:
            raise ConfigError(f"candidate {self.candidate_id}: candidature must be one of {CANDIDATURES}")
        if self.candidature in ("direct", "both") and self.constituency is None:
            raise ConfigError(f"candidate {self.candidate_id}: direct candidature needs a constituency")


@dataclass(frozen=True)
class AccountOption:
    """One reviewed account for a candidate, before resolution."""

    user_id: int
    screen_name: str
    evidence: frozenset[str] = frozenset()
    platform_verified_badge: bool = False
    is_professional: bool = False
    decided_at: datetime | None = None

    def __post_init__(self):
        object.__setattr__(self, "evidence", frozenset(self.evidence))
        unknown = self.evidence - EVIDENCE_KINDS
        if unknown:
            raise ConfigError(f"unknown evidence kinds: {sorted(unknown)}")


@dataclass(frozen=True)
class AccountCandidateSet:
    candidate_id: str
    options: tuple[AccountOption, ...]

    def __post_init__(self):
        object.__setattr__(self, "options", tuple(self.options))


@dataclass(frozen=True)
class Resolution:
    """Outcome of resolve_account: an accepted link, nothing, or a tie
    needing manual adjudication (never an arbitrary pick)."""

    link: VerifiedLink | None
    tied: tuple[AccountOption, ...] = ()


def resolve_account(s: AccountCandidateSet) -> Resolution:
    """Pick the candidate's account: eligible = evidenced AND professional;
    among several eligibles prefer platform-badge holders; a remaining tie
    resolves to none with the contenders reported."""
    eligible = sorted(
        (o for o in s.options if o.evidence and o.is_professional),
        key=lambda o: o.user_id,
    )
    if not eligible:
        return Resolution(link=None)
    badged = [o for o in eligible if o.platform_verified_badge]
    pool = badged or eligible
    if len(pool) > 1:
        return Resolution(link=None, tied=tuple(pool))
    o = pool[0]
    return Resolution(
        link=VerifiedLink(
            user_id=o.user_id,
            screen_name=o.screen_name,
            evidence=o.evidence,
            platform_verified_badge=o.platform_verified_badge,
            is_professional=True,
            decided_at=o.decided_at or datetime(1970, 1, 1, tzinfo=timezone.utc),
        )
    )


@dataclass(frozen=True)
class Roster:
    candidates: tuple[CandidateRecord, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "candidates", tuple(sorted(self.candidates, key=lambda c: c.candidate_id)))
        ids = [c.candidate_id for c in self.candidates]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ConfigError(f"duplicate candidate ids: {dupes}")

    def __iter__(self):
        return iter(self.candidates)

    def __len__(self):
        return len(self.candidates)

    def twitter_index(self) -> dict[int, str]:
        """Verified account user id -> candidate id."""
        return {c.twitter.user_id: c.candidate_id for c in self.candidates if c.twitter}

    def twitter_accounts(self) -> tuple[tuple[int, str], ...]:
        """(user_id, screen_name) pairs for every linked account, id order."""
        return tuple(
            sorted(((c.twitter.user_id, c.twitter.screen_name) for c in self.candidates if c.twitter))
        )


# -- file IO -----------------------------------------------------------------

def _sidecar_path(csv_path) -> Path:
    return Path(csv_path).with_suffix(".evidence.json")


def _link_from_parts(candidate_id, platform, user_id_cell, screen_name_cell, sidecar, sidecar_file):
    if not user_id_cell and not screen_name_cell:
        return None
    if not user_id_cell or not screen_name_cell:
        raise ConfigError(f"candidate {candidate_id}: {platform} account needs both id and screen name")
    user_id = int_cell(user_id_cell)
    entry = json_field(sidecar, candidate_id, dict, {})
    if platform not in entry:
        raise ConfigError(f"candidate {candidate_id}: {platform} account has no evidence record in {sidecar_file}")
    return json_value(entry[platform], lambda record: VerifiedLink(
        user_id=user_id,
        screen_name=screen_name_cell,
        evidence=json_field(record, "evidence", [str]),
        platform_verified_badge=json_field(record, "badge", bool, False),
        is_professional=json_field(record, "professional", bool, False),
        decided_at=json_field(record, "decidedAt", datetime),
    ), f"candidate {candidate_id} {platform} evidence record in {sidecar_file}")


def load_roster(path) -> Roster:
    """Read a roster CSV plus its evidence sidecar; every linked account
    must carry evidence and the professional flag or the load fails."""
    path = Path(path)
    sidecar_file = _sidecar_path(path)
    sidecar = load_json_config(sidecar_file) if sidecar_file.exists() else {}
    candidates = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(ROSTER_HEADER) - set(reader.fieldnames or ())
        if missing:
            raise ConfigError(f"{path}: roster header missing columns: {sorted(missing)}")
        for lineno, row in enumerate(reader, start=2):
            try:
                candidates.append(
                    CandidateRecord(
                        candidate_id=row["candidate_id"],
                        name=row["name"],
                        party=row["party"],
                        candidature=row["candidature"],
                        constituency=int_cell(row["constituency"]) if row["constituency"] else None,
                        state=row["state"],
                        twitter=_link_from_parts(
                            row["candidate_id"], "twitter", row["twitter_user_id"], row["twitter_screen_name"],
                            sidecar, sidecar_file,
                        ),
                        facebook=_link_from_parts(
                            row["candidate_id"], "facebook", row["facebook_user_id"], row["facebook_screen_name"],
                            sidecar, sidecar_file,
                        ),
                    )
                )
            except (ValueError, ConfigError) as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return Roster(candidates=tuple(candidates))


def _link_cells(link) -> list[str]:
    if link is None:
        return ["", ""]
    return [str(link.user_id), link.screen_name]


def _link_sidecar(link):
    if link is None:
        return None
    return {
        "evidence": sorted(link.evidence),
        "badge": link.platform_verified_badge,
        "professional": link.is_professional,
        "decidedAt": format_timestamp(link.decided_at),
    }


def export_candidates(candidates, path) -> int:
    """Write the candidate table (one row per candidate, fixed header) and
    its evidence sidecar; export then load reproduces the roster."""
    path = Path(path)
    sidecar = {}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ROSTER_HEADER)
        n = 0
        for c in sorted(candidates, key=lambda c: c.candidate_id):
            writer.writerow(
                [c.candidate_id, c.name, c.party, c.candidature,
                 "" if c.constituency is None else str(c.constituency), c.state]
                + _link_cells(c.twitter)
                + _link_cells(c.facebook)
            )
            entries = {}
            if c.twitter:
                entries["twitter"] = _link_sidecar(c.twitter)
            if c.facebook:
                entries["facebook"] = _link_sidecar(c.facebook)
            if entries:
                sidecar[c.candidate_id] = entries
            n += 1
    write_json(_sidecar_path(path), sidecar)
    return n


# -- synthetic demo roster -----------------------------------------------------

DEMO_PARTIES = ("SDP", "UDC", "GRN", "LNK", "LIB", "PIR")
DEMO_STATES = ("BW", "BY", "BE", "BB", "HE", "NW", "SN", "SH")


def build_demo_roster(seed: int = 20130922, n_candidates: int = 2346, n_linked: int = 1009,
                      n_agents: int = 76) -> tuple[Roster, tuple[tuple[int, str], ...]]:
    """Synthetic roster at the documented working scale: ``n_candidates``
    candidates of whom ``n_linked`` have a verified account, plus
    ``n_agents`` non-candidate accounts (parties, media desks) that a
    account-list collection would follow alongside the candidates."""
    rng = random.Random(seed)
    linked = set(rng.sample(range(n_candidates), n_linked))
    base_day = datetime(2013, 6, 1, tzinfo=timezone.utc)
    candidates = []
    for i in range(n_candidates):
        candidature = rng.choice(CANDIDATURES)
        twitter = None
        if i in linked:
            evidence = frozenset(rng.sample(sorted(EVIDENCE_KINDS), rng.randrange(1, 4)))
            twitter = VerifiedLink(
                user_id=100_000 + i,
                screen_name=f"kandidat{i:04d}",
                evidence=evidence,
                platform_verified_badge=rng.random() < 0.2,
                is_professional=True,
                decided_at=base_day + timedelta(minutes=i),
            )
        candidates.append(
            CandidateRecord(
                candidate_id=f"K-{i:04d}",
                name=f"Kandidat {i:04d}",
                party=rng.choice(DEMO_PARTIES),
                candidature=candidature,
                constituency=rng.randrange(1, 300) if candidature in ("direct", "both") else None,
                state=rng.choice(DEMO_STATES),
                twitter=twitter,
            )
        )
    agents = tuple((900_000 + i, f"redaktion{i:02d}") for i in range(n_agents))
    return Roster(candidates=tuple(candidates)), agents
