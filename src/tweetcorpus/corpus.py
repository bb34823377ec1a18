"""Corpus definitions for the four collection strategies and the matching engine.

A corpus definition names a collection campaign: exactly one strategy
(account list, keyword list, metadata filter, or random sample), an
optional conjunctive metadata constraint, and a [start, end) collection
window.  ``matches`` is the single matching authority; stream
subscriptions compiled by ``compile_query`` may over-deliver but the
matcher decides what is stored.

Terms have one compiled form, ``TermSet``: a keyword query's terms and a
stream query's track terms are each compiled once, and the source's
delivery rule and the matcher both test text through it, tokenizing the
text once per test.  ``term_in_text`` is the reference it must agree with;
it also confirms the rare multi-word candidates.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from datetime import datetime
from functools import cached_property
from typing import Union

from .errors import ConfigError
from .tweets import TweetRecord, format_timestamp, json_field, load_json_config, object_list

FORMAT_FLAGS = frozenset({"retweets_only", "must_have_url", "must_have_image"})

_TOKEN_RE = re.compile(r"\w+")


@dataclass(frozen=True)
class TimeWindow:
    """Half-open UTC interval [start, end)."""

    start: datetime
    end: datetime

    def __post_init__(self):
        if not self.start < self.end:
            raise ConfigError(
                f"window start {format_timestamp(self.start)} is not before end {format_timestamp(self.end)}")

    def contains(self, dt: datetime) -> bool:
        return self.start <= dt < self.end


@dataclass(frozen=True)
class AccountQuery:
    """Collect by account list: authored tweets, mentions, name-as-hashtag."""

    accounts: tuple[tuple[int, str], ...]
    match_mentions: bool = True
    match_name_hashtag: bool = True
    include_retweets_and_replies: bool = True

    def __post_init__(self):
        object.__setattr__(self, "accounts", tuple(self.accounts))
        if not self.accounts:
            raise ConfigError("account list is empty")
        ids = [i for i, _ in self.accounts]
        if len(set(ids)) != len(ids):
            raise ConfigError("account list has duplicate user ids")

    # computed once per instance (here and on the other queries); ``replace()``
    # makes a new instance with a fresh cache
    @cached_property
    def user_ids(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.accounts)

    @cached_property
    def names_lower(self) -> frozenset[str]:
        return frozenset(n.lower() for _, n in self.accounts)


@dataclass(frozen=True)
class KeywordQuery:
    """Collect by hashtag list and/or full-text terms (whole-token match)."""

    hashtags: tuple[str, ...] = ()
    terms: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "hashtags", tuple(h.lower().lstrip("#") for h in self.hashtags))
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.hashtags and not self.terms:
            raise ConfigError("keyword query needs at least one hashtag or term")

    @cached_property
    def term_set(self) -> TermSet:
        return TermSet.compile(self.terms)


@dataclass(frozen=True)
class MetadataQuery:
    """Collect (or constrain) by structural criteria, conjunctively."""

    country: str | None = None
    time_window: TimeWindow | None = None
    languages: frozenset[str] | None = None
    format: frozenset[str] = frozenset()

    def __post_init__(self):
        if self.languages is not None:
            object.__setattr__(self, "languages", frozenset(l.lower() for l in self.languages))
        object.__setattr__(self, "format", frozenset(self.format))
        unknown = self.format - FORMAT_FLAGS
        if unknown:
            raise ConfigError(f"unknown format flags: {sorted(unknown)}")
        if self.country is None and self.time_window is None and self.languages is None and not self.format:
            raise ConfigError("metadata query sets no constraint")


@dataclass(frozen=True)
class RandomSampleQuery:
    """Collect a deterministic pseudo-random sample of the stream."""

    rate: float
    seed: int

    def __post_init__(self):
        if not 0 < self.rate <= 1:
            raise ConfigError(f"sample rate must be in (0, 1], got {self.rate}")


Strategy = Union[AccountQuery, KeywordQuery, MetadataQuery, RandomSampleQuery]


@dataclass(frozen=True)
class CorpusDefinition:
    """A named collection campaign: one strategy, a window, optional metadata."""

    name: str
    strategy: Strategy
    window: TimeWindow
    extra_metadata: MetadataQuery | None = None


@dataclass(frozen=True)
class StreamQuery:
    """Subscription request for a stream source.

    ``sample`` asks for the full sample stream (used for random-sample and
    metadata strategies, which are filtered client-side).  The subscription
    may over-deliver; it must never under-deliver for conformant sources.
    """

    follow_ids: tuple[int, ...] = ()
    track_terms: tuple[str, ...] = ()
    sample: bool = False

    @cached_property
    def followed(self) -> frozenset[int]:
        return frozenset(self.follow_ids)

    @cached_property
    def term_set(self) -> TermSet:
        return TermSet.compile(self.track_terms)


def text_tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def term_in_text(term: str, text: str) -> bool:
    """Whole-token, case-insensitive containment; multi-word terms must
    appear as consecutive tokens."""
    needle = text_tokens(term)
    if not needle:
        return False
    hay = text_tokens(text)
    n = len(needle)
    return any(hay[i : i + n] == needle for i in range(len(hay) - n + 1))


@dataclass(frozen=True)
class TermSet:
    """A term list compiled once: the one-token terms as a set, and each
    multi-word term with its tokens.  Terms without tokens never match."""

    words: frozenset[str]
    phrases: tuple[tuple[str, frozenset[str]], ...]

    @classmethod
    def compile(cls, terms) -> TermSet:
        words, phrases = set(), []
        for term in terms:
            needle = text_tokens(term)
            if len(needle) == 1:
                words.add(needle[0])
            elif needle:
                phrases.append((term, frozenset(needle)))
        return cls(frozenset(words), tuple(phrases))

    def found_in(self, text: str) -> bool:
        """``any(term_in_text(term, text) for term in terms)``, tokenizing
        ``text`` once; a multi-word term whose tokens all occur is confirmed
        by ``term_in_text``."""
        if not self.words and not self.phrases:
            return False
        tokens = text_tokens(text)
        if not self.words.isdisjoint(tokens):
            return True
        present = set(tokens)
        return any(needle <= present and term_in_text(term, text) for term, needle in self.phrases)


def sample_decision(tweet_id: int, rate: float, seed: int) -> bool:
    """Deterministic accept/reject from a stable hash of (tweet_id, seed).

    Over ids drawn uniformly the acceptance fraction converges to ``rate``.
    """
    if not 0 < rate <= 1:
        raise ConfigError(f"sample rate must be in (0, 1], got {rate}")
    digest = hashlib.blake2b(f"{tweet_id}:{seed}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") < int(rate * 2**64)


def _account_matches(t: TweetRecord, q: AccountQuery) -> bool:
    if t.user_id in q.user_ids:
        return True
    if not q.include_retweets_and_replies and (t.is_retweet or t.reply_to_id is not None):
        return False
    if q.match_mentions:
        for m in t.mentions:
            if m.user_id in q.user_ids or m.screen_name.lower() in q.names_lower:
                return True
    if q.match_name_hashtag:
        for h in t.hashtags:
            if h.text.lower() in q.names_lower:
                return True
    return False


def _keyword_matches(t: TweetRecord, q: KeywordQuery) -> bool:
    tags = {h.text.lower() for h in t.hashtags}
    if any(tag in tags for tag in q.hashtags):
        return True
    return q.term_set.found_in(t.text)


def _metadata_matches(t: TweetRecord, q: MetadataQuery) -> bool:
    if q.country is not None:
        if t.geo is None or t.geo[2].lower() != q.country.lower():
            return False
    if q.time_window is not None and not q.time_window.contains(t.created_at):
        return False
    if q.languages is not None:
        if t.language is None or t.language.lower() not in q.languages:
            return False
    if "retweets_only" in q.format and not t.is_retweet:
        return False
    if "must_have_url" in q.format and not t.urls:
        return False
    if "must_have_image" in q.format and not t.has_image:
        return False
    return True


def matches(t: TweetRecord, d: CorpusDefinition) -> bool:
    """True iff the record belongs in corpus ``d``.  Pure function."""
    if not d.window.contains(t.created_at):
        return False
    s = d.strategy
    if isinstance(s, AccountQuery):
        ok = _account_matches(t, s)
    elif isinstance(s, KeywordQuery):
        ok = _keyword_matches(t, s)
    elif isinstance(s, MetadataQuery):
        ok = _metadata_matches(t, s)
    elif isinstance(s, RandomSampleQuery):
        ok = sample_decision(t.id, s.rate, s.seed)
    else:
        raise TypeError(f"unknown strategy type: {type(s).__name__}")
    if not ok:
        return False
    if d.extra_metadata is not None and not _metadata_matches(t, d.extra_metadata):
        return False
    return True


def compile_query(d: CorpusDefinition) -> StreamQuery:
    """Compile a definition into its stream subscription.

    Account corpora follow the account ids and track the names, so the
    source delivers authored tweets plus mentions; keyword corpora track
    '#'-prefixed tags and plain terms.  Metadata and random strategies
    request the sample stream and are narrowed client-side by ``matches``.
    """
    s = d.strategy
    if isinstance(s, AccountQuery):
        return StreamQuery(
            follow_ids=tuple(i for i, _ in s.accounts),
            track_terms=tuple(n.lower() for _, n in s.accounts),
        )
    if isinstance(s, KeywordQuery):
        return StreamQuery(track_terms=tuple("#" + h for h in s.hashtags) + tuple(t.lower() for t in s.terms))
    return StreamQuery(sample=True)


# --- configuration file ---------------------------------------------------

def account_from_obj(obj) -> tuple[int, str]:
    """An ``{"id": ..., "screenName": ...}`` object as a (user id, screen name) pair."""
    return json_field(obj, "id", int), json_field(obj, "screenName", str)


def _window_from_obj(obj) -> TimeWindow:
    return TimeWindow(start=json_field(obj, "start", datetime), end=json_field(obj, "end", datetime))


def _metadata_from_obj(obj) -> MetadataQuery:
    return MetadataQuery(
        country=json_field(obj, "country", str, None),
        time_window=json_field(obj, "timeWindow", _window_from_obj, None),
        languages=json_field(obj, "languages", [str], None),
        format=json_field(obj, "format", [str], ()),
    )


def _strategy_from_obj(obj) -> Strategy:
    kind = json_field(obj, "kind", str)
    if kind == "accounts":
        return AccountQuery(
            accounts=json_field(obj, "accounts", [account_from_obj], ()),
            match_mentions=json_field(obj, "matchMentions", bool, True),
            match_name_hashtag=json_field(obj, "matchNameHashtag", bool, True),
            include_retweets_and_replies=json_field(obj, "includeRetweetsAndReplies", bool, True),
        )
    if kind == "keywords":
        return KeywordQuery(hashtags=json_field(obj, "hashtags", [str], ()), terms=json_field(obj, "terms", [str], ()))
    if kind == "metadata":
        return _metadata_from_obj(obj)
    if kind == "random":
        return RandomSampleQuery(rate=json_field(obj, "rate", float), seed=json_field(obj, "seed", int, 0))
    raise ConfigError(f"unknown strategy kind {kind!r}")


def corpora_from_obj(doc) -> list[CorpusDefinition]:
    """Build definitions from a decoded config document; the problems of all
    corpora are reported together, each with the corpus name and field."""
    seen: set[str] = set()

    def definition(entry) -> CorpusDefinition:
        name = json_field(entry, "name", str)
        if not name:
            raise ConfigError("field 'name' is empty")
        if name in seen:
            raise ConfigError(f"corpus {name!r}: duplicate corpus name")
        seen.add(name)
        try:
            return CorpusDefinition(
                name=name,
                window=json_field(entry, "window", _window_from_obj),
                strategy=json_field(entry, "strategy", _strategy_from_obj),
                extra_metadata=json_field(entry, "metadata", _metadata_from_obj, None),
            )
        except ConfigError as exc:
            raise ConfigError(f"corpus {name!r} {exc}") from exc

    return object_list(doc, "corpora", "corpus config", definition)


def load_corpus_config(path) -> list[CorpusDefinition]:
    """Load and check a corpus configuration file (JSON)."""
    return load_json_config(path, corpora_from_obj)
