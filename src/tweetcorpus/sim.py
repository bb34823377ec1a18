"""Deterministic scripted platform simulator.

Generates an election scenario (accounts, follow graph, tweet timeline
with reply threads and a late-emerging party), serves it through the
stream-source interface with a scripted fault schedule, and provides the
brute-force ground truth every recall/precision measurement is judged
against.

Determinism is absolute: the same config yields byte-identical worlds,
and faults are part of the script, never of the environment.  Drops use
a systematic accumulator (the i-th deliverable event is dropped exactly
when floor(i*rate) exceeds floor((i-1)*rate)), so a rate of 0.1 over 100
events drops exactly 10 of them, on every run.  A reconnect redelivers
exactly the last ``redeliver_on_reconnect`` items the subscriber was
given.  Faults shape delivery only; the ground truth never sees them.
"""

from __future__ import annotations

import bisect
import math
import random
from collections import defaultdict, deque
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

from .authority import FollowGraph, load_follow_graph, write_follow_graph
from .corpus import (
    CorpusDefinition,
    StreamQuery,
    matches,
    term_in_text,  # noqa: F401 -- unused here, but perfbench/tracing.py wraps sim.term_in_text
)
from .errors import ConfigError, SourceDisconnected, SourceUnavailable
from .probes import PROBE_AUTHOR
from .tweets import (
    TweetRecord,
    extract_entities,
    format_timestamp,
    json_field,
    json_line,
    json_value,
    load_json_config,
    parse_tweet,  # noqa: F401 -- unused here, but perfbench/tracing.py wraps sim.parse_tweet
    read_ndjson,
    serialize_tweet,
    tweet_from_dict,
    write_json,
)

WORDS = (
    "heute", "debatte", "stimmen", "umfrage", "koalition", "thema", "politik",
    "berlin", "zukunft", "steuern", "energie", "bildung", "europa", "netz",
)

PARTY_CODES = ("SDP", "UDC", "GRN", "LNK", "LIB", "PIR", "FWV", "OEK")


@dataclass(frozen=True)
class DisconnectWindow:
    """Half-open window of source unavailability, in seconds from start."""

    start_s: int
    end_s: int

    def __post_init__(self):
        if not 0 <= self.start_s < self.end_s:
            raise ConfigError(f"disconnect window must have 0 <= start < end, got [{self.start_s}, {self.end_s})")


@dataclass(frozen=True)
class FaultSchedule:
    drop_rate: float = 0.0
    probe_drop_rate: float = 0.0
    disconnect_windows: tuple[DisconnectWindow, ...] = ()
    redeliver_on_reconnect: int = 0

    def __post_init__(self):
        object.__setattr__(self, "disconnect_windows", tuple(self.disconnect_windows))
        for name in ("drop_rate", "probe_drop_rate"):
            v = getattr(self, name)
            if not 0 <= v <= 1:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        if self.redeliver_on_reconnect < 0:
            raise ConfigError(f"redeliver_on_reconnect must be >= 0, got {self.redeliver_on_reconnect}")


@dataclass(frozen=True)
class EmergentParty:
    account_count: int = 0
    emergence_fraction: float = 0.6

    def __post_init__(self):
        if not 0 <= self.emergence_fraction <= 1:
            raise ConfigError(f"emergence_fraction must be in [0, 1], got {self.emergence_fraction}")


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    n_candidates: int = 40
    n_parties: int = 6
    n_journalists: int = 8
    n_editors: int = 3
    n_public: int = 200
    n_tweets: int = 5000
    start: datetime = datetime(2013, 9, 1, tzinfo=timezone.utc)
    duration_s: int = 86_400
    hashtag_propensities: tuple[tuple[str, float], ...] = (
        ("wahl2013", 0.30), ("btw13", 0.18), ("tvduell", 0.10), ("netzpolitik", 0.08),
    )
    reply_probability: float = 0.35
    reply_without_hashtag_probability: float = 0.3
    retweet_probability: float = 0.15
    mention_probability: float = 0.3
    name_hashtag_probability: float = 0.05
    geo_enabled_fraction: float = 0.3
    language_mix: tuple[tuple[str, float], ...] = (("de", 0.75), ("en", 0.20), ("", 0.05))
    faults: FaultSchedule = field(default_factory=FaultSchedule)
    emergent: EmergentParty = field(default_factory=lambda: EmergentParty(account_count=15))

    def __post_init__(self):
        for name in (
            "reply_probability", "reply_without_hashtag_probability",
            "retweet_probability", "mention_probability",
            "name_hashtag_probability", "geo_enabled_fraction",
        ):
            v = getattr(self, name)
            if not 0 <= v <= 1:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        for tag, p in self.hashtag_propensities:
            if not 0 <= p <= 1:
                raise ConfigError(f"hashtag_propensities[{tag!r}] must be in [0, 1], got {p}")
        for lang, w in self.language_mix:
            if w < 0:
                raise ConfigError(f"language_mix[{lang!r}] weight must be >= 0, got {w}")
        for name in ("n_candidates", "n_parties", "n_tweets", "duration_s"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("n_journalists", "n_editors", "n_public"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")

    @property
    def end(self) -> datetime:
        return self.start + timedelta(seconds=self.duration_s)

    @property
    def emergence_time(self) -> datetime:
        return self.start + timedelta(seconds=int(self.duration_s * self.emergent.emergence_fraction))


def bundestag_mini(seed: int = 20130922, **overrides) -> ScenarioConfig:
    """The stock working scenario: 40 candidates in 6 parties, 8
    journalists, 3 editors, 200 public accounts, 5,000 tweets, one
    15-account party emerging at 60% of the duration."""
    return replace(ScenarioConfig(seed=seed), **overrides)


@dataclass(frozen=True)
class SimAccount:
    user_id: int
    screen_name: str
    kind: str  # candidate | journalist | editor | public | emergent | probe
    party: str | None = None
    display_name: str | None = None


@dataclass(frozen=True)
class Scenario:
    config: ScenarioConfig
    accounts: tuple[SimAccount, ...]
    graph: FollowGraph
    timeline: tuple[TweetRecord, ...]

    @property
    def start(self) -> datetime:
        return self.config.start

    @property
    def end(self) -> datetime:
        return self.config.end

    @property
    def emergence_time(self) -> datetime:
        return self.config.emergence_time

    def accounts_of_kind(self, kind: str) -> tuple[SimAccount, ...]:
        return tuple(a for a in self.accounts if a.kind == kind)


def _weighted_choice(rng: random.Random, pairs):
    total = sum(w for _, w in pairs)
    x = rng.random() * total
    for value, w in pairs:
        x -= w
        if x <= 0:
            return value
    return pairs[-1][0]


def build_scenario(config: ScenarioConfig) -> Scenario:
    """Generate the whole world from the seed.  Same config, same world."""
    rng = random.Random(config.seed)

    accounts: list[SimAccount] = []
    for i in range(config.n_candidates):
        accounts.append(
            SimAccount(
                user_id=100_000 + i,
                screen_name=f"kand{i:03d}",
                kind="candidate",
                party=PARTY_CODES[i % config.n_parties],
                display_name=f"Kandidat {i:03d}",
            )
        )
    for i in range(config.n_journalists):
        accounts.append(SimAccount(user_id=200_000 + i, screen_name=f"presse{i:02d}", kind="journalist"))
    for i in range(config.n_editors):
        accounts.append(SimAccount(user_id=210_000 + i, screen_name=f"redakteur{i:02d}", kind="editor"))
    for i in range(config.n_public):
        accounts.append(SimAccount(user_id=300_000 + i, screen_name=f"buerger{i:03d}", kind="public"))
    for i in range(config.emergent.account_count):
        accounts.append(
            SimAccount(
                user_id=400_000 + i,
                screen_name=f"neupartei{i:02d}",
                kind="emergent",
                party="NEU",
                display_name=f"Neupartei {i:02d}",
            )
        )
    accounts.append(SimAccount(user_id=PROBE_AUTHOR[0], screen_name=PROBE_AUTHOR[1], kind="probe"))

    gatekeepers = frozenset(
        a.user_id for a in accounts if a.kind in ("candidate", "journalist", "editor")
    )
    journalists = frozenset(a.user_id for a in accounts if a.kind == "journalist")
    editors = frozenset(a.user_id for a in accounts if a.kind == "editor")
    followable = [a.user_id for a in accounts if a.kind != "probe"]
    edges = set()
    for g in sorted(gatekeepers):
        k = rng.randrange(3, min(15, len(followable)))
        for target in rng.sample(followable, k):
            if target != g:
                edges.add((g, target))
    graph = FollowGraph(
        edges=frozenset(edges), gatekeepers=gatekeepers, journalists=journalists, editors=editors
    )

    registry = {a.screen_name.lower(): (a.user_id, a.display_name or a.screen_name) for a in accounts}
    authors = [a for a in accounts if a.kind != "probe"]
    author_weights = {"candidate": 3.0, "journalist": 2.0, "editor": 2.0, "emergent": 2.0, "public": 1.0}
    weighted_authors = [(a, author_weights[a.kind]) for a in authors]
    mention_pool = [a for a in accounts if a.kind != "probe"]

    offsets = sorted(rng.randrange(config.duration_s) for _ in range(config.n_tweets))
    timeline: list[TweetRecord] = []
    roots: dict[int, TweetRecord] = {}  # id -> root of its conversation
    recent: list[TweetRecord] = []

    for k, off in enumerate(offsets):
        tweet_id = 1_000_000 + k
        created = config.start + timedelta(seconds=off)
        author = _weighted_choice(rng, weighted_authors)

        parent = None
        if recent and rng.random() < config.reply_probability:
            parent = rng.choice(recent[-50:])

        words = rng.sample(WORDS, rng.randrange(2, 5))
        tags: list[str] = []
        is_retweet = False
        reply_to_id = None

        if parent is not None and parent.user_id != author.user_id:
            reply_to_id = parent.id
            words.insert(0, "@" + parent.screen_name)
            root = roots.get(parent.id, parent)
            inherited = [h.text for h in root.hashtags]
            if inherited and rng.random() >= config.reply_without_hashtag_probability:
                tags = inherited
        else:
            parent = None
            for tag, propensity in config.hashtag_propensities:
                if rng.random() < propensity:
                    tags.append(tag)
                if len(tags) >= 2:
                    break
            if rng.random() < config.retweet_probability and recent:
                orig = rng.choice(recent[-50:])
                if orig.user_id != author.user_id:
                    is_retweet = True
                    words = ["RT", "@" + orig.screen_name] + orig.text.split()[:8]
                    tags = []

        if not is_retweet:
            if rng.random() < config.mention_probability:
                m = rng.choice(mention_pool)
                if m.user_id != author.user_id:
                    words.append("@" + m.screen_name)
            if rng.random() < config.name_hashtag_probability:
                m = rng.choice(mention_pool)
                words.append("#" + m.screen_name)
            for tag in tags:
                words.append("#" + tag)

        url = None
        if rng.random() < 0.2:
            url = f"https://t.co/s{k:05d}"
            words.append(url)

        text = " ".join(words)
        hashtags, mentions = extract_entities(text, accounts=registry)
        language = _weighted_choice(rng, config.language_mix) or None
        geo = None
        if rng.random() < config.geo_enabled_fraction:
            geo = (round(47.3 + rng.random() * 7.6, 4), round(6.0 + rng.random() * 9.0, 4), "DE")

        record = TweetRecord(
            id=tweet_id,
            user_id=author.user_id,
            screen_name=author.screen_name,
            created_at=created,
            text=text,
            hashtags=hashtags,
            mentions=mentions,
            urls=(url,) if url else (),
            is_retweet=is_retweet,
            reply_to_id=reply_to_id,
            geo=geo,
            language=language,
            has_image=rng.random() < 0.1,
        )
        timeline.append(record)
        roots[tweet_id] = roots.get(reply_to_id, record) if reply_to_id else record
        recent.append(record)

    return Scenario(config=config, accounts=tuple(accounts), graph=graph, timeline=tuple(timeline))


# -- ground truth and bias measurements ----------------------------------------

def ground_truth(scenario: Scenario, definition: CorpusDefinition) -> frozenset[int]:
    """Every timeline tweet the matcher accepts; blind to faults and probes."""
    return frozenset(t.id for t in scenario.timeline if matches(t, definition))


def conversation_reference(scenario: Scenario, definition: CorpusDefinition) -> frozenset[int]:
    """All members of every conversation that contains at least one
    matching tweet: the 'whole topic' a keyword collection aims at but
    cannot reach once replies drop the tag."""
    roots: dict[int, int] = {}
    by_id = {t.id: t for t in scenario.timeline}
    for t in scenario.timeline:
        if t.reply_to_id is not None and t.reply_to_id in roots:
            roots[t.id] = roots[t.reply_to_id]
        elif t.reply_to_id is not None and t.reply_to_id in by_id:
            roots[t.id] = t.reply_to_id
        else:
            roots[t.id] = t.id
    matched_roots = {roots[t.id] for t in scenario.timeline if matches(t, definition)}
    return frozenset(t.id for t in scenario.timeline if roots[t.id] in matched_roots)


@dataclass(frozen=True)
class BiasEntry:
    name: str
    stored_ids: frozenset[int]
    reference_ids: frozenset[int]


@dataclass(frozen=True)
class BiasLine:
    name: str
    recall: float | None
    precision: float | None
    missing: tuple[int, ...]
    extra: tuple[int, ...]


def bias_report(entries) -> list[BiasLine]:
    """Recall/precision of each stored set against its reference set."""
    lines = []
    for e in entries:
        hit = e.stored_ids & e.reference_ids
        recall = len(hit) / len(e.reference_ids) if e.reference_ids else None
        precision = len(hit) / len(e.stored_ids) if e.stored_ids else None
        lines.append(
            BiasLine(
                name=e.name,
                recall=recall,
                precision=precision,
                missing=tuple(sorted(e.reference_ids - e.stored_ids)),
                extra=tuple(sorted(e.stored_ids - e.reference_ids)),
            )
        )
    return lines


def bias_report_json(lines) -> dict:
    return {
        "corpora": [
            {
                "name": l.name,
                "recall": l.recall,
                "precision": l.precision,
                "missingCount": len(l.missing),
                "extraCount": len(l.extra),
                "missing": list(l.missing),
                "extra": list(l.extra),
            }
            for l in lines
        ]
    }


# -- stream source --------------------------------------------------------------

@dataclass(frozen=True)
class StreamItem:
    """One subscription event: a tweet, or a drop ('limit') notice carrying
    the cumulative count of events the source chose not to deliver."""

    kind: str  # tweet | limit
    tweet: TweetRecord | None = None
    is_probe: bool = False
    dropped_total: int = 0


class _Accumulator:
    """Systematic drop schedule: exact floor(n*rate) drops over n events."""

    def __init__(self, rate: float):
        self.rate = rate
        self.count = 0
        self.dropped = 0

    def admit(self) -> bool:
        self.count += 1
        before = math.floor((self.count - 1) * self.rate)
        after = math.floor(self.count * self.rate)
        if after > before:
            self.dropped += 1
            return False
        return True


def _delivers(query: StreamQuery, t: TweetRecord, author_of: dict[int, int]) -> bool:
    """The source-side delivery rule: a superset of the matcher for every
    compiled query (over-delivery allowed, under-delivery never)."""
    if query.sample:
        return True
    followed = query.followed
    if t.user_id in followed:
        return True
    for m in t.mentions:
        if m.user_id in followed:
            return True
    if t.reply_to_id is not None and author_of.get(t.reply_to_id) in followed:
        return True
    return query.term_set.found_in(t.text)


class Subscription:
    """One live stream: iterate StreamItems; disconnects raise.

    The next disconnect window drops the stream at its start even when no
    event falls inside it, if it starts before the scenario end.
    """

    def __init__(self, source: "SimStreamSource", query: StreamQuery, at: datetime, subscriber=None):
        self._source = source
        self.query = query
        self.at = at
        self.subscriber = subscriber
        self._drop = _Accumulator(source.scenario.config.faults.drop_rate)
        self._probe_drop = _Accumulator(source.scenario.config.faults.probe_drop_rate)

    def __iter__(self):
        source = self._source
        outage = next((start for start, _ in source._outages if start > self.at), None)
        key = (self.subscriber, self.query.follow_ids, self.query.track_terms, self.query.sample)

        delivered = source._delivered[key]
        redeliver = list(delivered) if self.at > source.scenario.start else []
        events = source._events[bisect.bisect_left(source._events, self.at, key=_created_at):]
        yield from redeliver

        for t, is_probe in events:
            if outage is not None and outage <= t.created_at:
                raise SourceDisconnected(at=outage)
            if not _delivers(self.query, t, source._author_of):
                continue
            acc = self._probe_drop if is_probe else self._drop
            if not acc.admit():
                yield StreamItem(kind="limit", dropped_total=self._drop.dropped + self._probe_drop.dropped)
                continue
            item = StreamItem(kind="tweet", tweet=t, is_probe=is_probe)
            delivered.append(item)
            yield item
        if outage is not None and outage < source.scenario.end:
            raise SourceDisconnected(at=outage)


def _created_at(event) -> datetime:
    return event[0].created_at


def _event_order(event) -> tuple[datetime, int]:
    return event[0].created_at, event[0].id


class SimStreamSource:
    """Stream interface over a scenario: subscribe, backfill, post probes.

    Timeline tweets and posted probes share one list of ``(tweet,
    is_probe)`` pairs in ``(created_at, id)`` order, sorted once here;
    probes are inserted in place.  A subscription reads it from the first
    event at or after its start, as it stands when reading begins, with
    its own fault accumulators.  Disconnect windows become ``(start,
    end)`` times, sorted once here too.  The accelerated clock is pure
    data, and the source serves one caller thread, so it has no lock.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self._outages = sorted(
            (scenario.start + timedelta(seconds=w.start_s), scenario.start + timedelta(seconds=w.end_s))
            for w in scenario.config.faults.disconnect_windows
        )
        self._events = sorted(((t, False) for t in scenario.timeline), key=_event_order)
        self._next_id = (max((t.id for t in scenario.timeline), default=1_000_000)) + 1
        self._author_of = {t.id: t.user_id for t in scenario.timeline}
        n = scenario.config.faults.redeliver_on_reconnect
        self._delivered: defaultdict[tuple, deque] = defaultdict(lambda: deque(maxlen=n))

    # -- probes -----------------------------------------------------------

    def post_probe(self, tweet: TweetRecord) -> TweetRecord:
        """Inject a synthetic tweet into the live stream; the source assigns
        the id.  Probes ride the same delivery path as everything else."""
        if not self.scenario.start <= tweet.created_at < self.scenario.end:
            raise SourceUnavailable(f"probe timestamp {tweet.created_at} outside the scenario")
        assigned = TweetRecord(**{**tweet.__dict__, "id": self._next_id})
        self._next_id += 1
        bisect.insort(self._events, (assigned, True), key=_event_order)
        self._author_of[assigned.id] = assigned.user_id
        return assigned

    # -- subscription -----------------------------------------------------

    def subscribe(self, query: StreamQuery, at: datetime | None = None, subscriber=None) -> Subscription:
        """Open a stream from simulated time ``at`` (default scenario start).

        Subscribing inside a disconnect window fails; after the scenario
        end it succeeds and delivers nothing.  A reconnect redelivers the
        last ``redeliver_on_reconnect`` items delivered to the same
        ``subscriber`` on the same query; subscribers that give no id
        share one buffer per query.
        """
        at = at or self.scenario.start
        if any(start <= at < end for start, end in self._outages):
            raise SourceUnavailable(f"source unreachable at {at}")
        return Subscription(self, query, at, subscriber)

    # -- lookups ------------------------------------------------------------

    def backfill_timeline(self, user_id: int, since: datetime) -> list[TweetRecord]:
        """Authored tweets from ``since`` on.  Authored only — a mention of
        the account is not the account's timeline and can never be
        recovered this way."""
        return [t for t in self.scenario.timeline if t.user_id == user_id and since <= t.created_at]

    def fetch_tweets(self, ids) -> list[TweetRecord]:
        wanted = set(ids)
        by_id = {t.id: t for t, _ in self._events if t.id in wanted}
        return [by_id[i] for i in ids if i in by_id]


def open_source(scenario: Scenario) -> SimStreamSource:
    return SimStreamSource(scenario)


# -- world files -----------------------------------------------------------------

# JSON key -> field of ScenarioConfig, FaultSchedule and EmergentParty, for
# the fields stored as plain numbers
_CONFIG_KEYS = {
    "nCandidates": "n_candidates", "nParties": "n_parties", "nJournalists": "n_journalists",
    "nEditors": "n_editors", "nPublic": "n_public", "nTweets": "n_tweets", "durationS": "duration_s",
    "replyProbability": "reply_probability",
    "replyWithoutHashtagProbability": "reply_without_hashtag_probability",
    "retweetProbability": "retweet_probability", "mentionProbability": "mention_probability",
    "nameHashtagProbability": "name_hashtag_probability", "geoEnabledFraction": "geo_enabled_fraction",
}
_FAULT_KEYS = {"dropRate": "drop_rate", "probeDropRate": "probe_drop_rate",
               "redeliverOnReconnect": "redeliver_on_reconnect"}
_EMERGENT_KEYS = {"accountCount": "account_count", "emergenceFraction": "emergence_fraction"}


def _numbers_to_obj(value, keys) -> dict:
    return {key: getattr(value, name) for key, name in keys.items()}


def _numbers_from_obj(obj, keys, default) -> dict:
    """Each field named in ``keys``: ``obj``'s value, read as the type of the
    field's value in ``default``, or that value when ``obj`` lacks the key."""
    return {name: json_field(obj, key, type(getattr(default, name)), getattr(default, name))
            for key, name in keys.items()}


def config_to_obj(config: ScenarioConfig) -> dict:
    return {
        "seed": config.seed,
        **_numbers_to_obj(config, _CONFIG_KEYS),
        "start": format_timestamp(config.start),
        "hashtagPropensities": [[t, p] for t, p in config.hashtag_propensities],
        "languageMix": [[l, w] for l, w in config.language_mix],
        "faults": {
            **_numbers_to_obj(config.faults, _FAULT_KEYS),
            "disconnectWindows": [[w.start_s, w.end_s] for w in config.faults.disconnect_windows],
        },
        "emergent": _numbers_to_obj(config.emergent, _EMERGENT_KEYS),
    }


def config_from_obj(obj) -> ScenarioConfig:
    """Inverse of ``config_to_obj``; an absent key keeps its ScenarioConfig default."""
    return json_value(obj, _scenario_config, "scenario config")


def _scenario_config(obj) -> ScenarioConfig:
    d = ScenarioConfig(seed=json_field(obj, "seed", int))

    def faults(f) -> FaultSchedule:
        windows = json_field(f, "disconnectWindows", [(int, int)], ())
        return replace(d.faults, **_numbers_from_obj(f, _FAULT_KEYS, d.faults),
                       disconnect_windows=tuple(DisconnectWindow(a, b) for a, b in windows))

    return replace(
        d, **_numbers_from_obj(obj, _CONFIG_KEYS, d),
        start=json_field(obj, "start", datetime, d.start),
        hashtag_propensities=json_field(obj, "hashtagPropensities", [(str, float)], d.hashtag_propensities),
        language_mix=json_field(obj, "languageMix", [(str, float)], d.language_mix),
        faults=json_field(obj, "faults", faults, d.faults),
        emergent=json_field(obj, "emergent", lambda e: replace(
            d.emergent, **_numbers_from_obj(e, _EMERGENT_KEYS, d.emergent)), d.emergent),
    )


def write_world(scenario: Scenario, world_dir) -> Path:
    """Persist a scenario as plain files; regeneration is byte-identical."""
    world = Path(world_dir)
    world.mkdir(parents=True, exist_ok=True)
    meta = {
        "config": config_to_obj(scenario.config),
        "end": format_timestamp(scenario.end),
        "emergenceTime": format_timestamp(scenario.emergence_time),
    }
    write_json(world / "scenario.json", meta)
    with open(world / "accounts.ndjson", "w", encoding="utf-8") as fh:
        for a in scenario.accounts:
            obj = {"userId": a.user_id, "screenName": a.screen_name, "kind": a.kind,
                   "party": a.party, "displayName": a.display_name}
            fh.write(json_line(obj) + "\n")
    write_follow_graph(scenario.graph, world / "follows.tsv", world / "groups.json")
    with open(world / "timeline.ndjson", "w", encoding="utf-8") as fh:
        for t in scenario.timeline:
            fh.write(serialize_tweet(t) + "\n")
    return world


def _account(obj) -> SimAccount:
    party, display_name = obj.get("party"), obj.get("displayName")
    return SimAccount(
        user_id=json_field(obj, "userId", int),
        screen_name=json_field(obj, "screenName", str),
        kind=json_field(obj, "kind", str),
        party=None if party is None else json_field(obj, "party", str),
        display_name=None if display_name is None else json_field(obj, "displayName", str),
    )


def _world_config(meta) -> ScenarioConfig:
    config = json_field(meta, "config", config_from_obj)
    if (json_field(meta, "end", datetime), json_field(meta, "emergenceTime", datetime)) != (
            config.end, config.emergence_time):
        raise ConfigError("fields 'end' and 'emergenceTime' do not follow from field 'config'")
    return config


def load_world(world_dir) -> Scenario:
    world = Path(world_dir)
    config = load_json_config(world / "scenario.json", _world_config)
    accounts = tuple(read_ndjson(world / "accounts.ndjson", lambda obj: json_value(obj, _account, "account")))
    graph = load_follow_graph(world / "follows.tsv", world / "groups.json")
    timeline = tuple(read_ndjson(world / "timeline.ndjson", tweet_from_dict))
    return Scenario(config=config, accounts=accounts, graph=graph, timeline=timeline)
