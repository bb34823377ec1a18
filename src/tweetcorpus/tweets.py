"""Tweet record model: parsing, serialization, entity extraction, validation.

The wire format is one JSON object per tweet with the attribute names
``_id``, ``userid``, ``screenName``, ``createdAt``, ``tweettext``,
``hashtags``, ``mentions`` (mandatory) plus optional metadata keys
(``urls``, ``isRetweet``, ``replyToId``, ``geo``, ``lang``, ``hasImage``).

This module owns the package's JSON file format.  Line files (the world
timeline and accounts, the store, probe logs and run logs) are
newline-delimited JSON, UTF-8, one object per line, written by
``json_line``: compact, with non-ASCII text kept as is.  ``read_ndjson``
ends a line at ``"\\n"`` only, so U+2028 or U+0085 inside a string is text,
skips blank lines, and names ``path:line`` in the ``ParseError`` for a
line that does not decode.  JSON documents (configs, the world's
``scenario.json``, manifests, evidence sidecars) are read by
``load_json_config``, which names the file in its ``ConfigError``.

Entity offset convention: ``start`` indexes the marker character
('#' or '@'), ``end`` is exclusive, the entity text excludes the marker,
and indices count Unicode code points.  Records parsed from external
files may violate the convention; ``validate`` flags them instead of
rejecting them.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping

from .errors import ConfigError, ParseError, SchemaError

MANDATORY_ATTRS = ("_id", "userid", "screenName", "createdAt", "tweettext", "hashtags", "mentions")

ISSUE_KINDS = frozenset({"offset-out-of-range", "slice-mismatch", "marker-missing", "timestamp-invalid"})

_ENTITY_RE = re.compile(r"[#@]\w+")


@dataclass(frozen=True)
class HashtagEntity:
    """One hashtag occurrence; ``text`` is the tag without the '#'."""

    start: int
    end: int
    text: str


@dataclass(frozen=True)
class MentionEntity:
    """One user mention; ``screen_name`` is the account name without '@'."""

    start: int
    end: int
    user_id: int
    screen_name: str
    display_name: str


@dataclass(frozen=True)
class TweetRecord:
    """One status update with entities and optional collection metadata."""

    id: int
    user_id: int
    screen_name: str
    created_at: datetime
    text: str
    hashtags: tuple[HashtagEntity, ...] = ()
    mentions: tuple[MentionEntity, ...] = ()
    urls: tuple[str, ...] = ()
    is_retweet: bool = False
    reply_to_id: int | None = None
    geo: tuple[float, float, str] | None = None
    language: str | None = None
    has_image: bool = False

    def __post_init__(self):
        # Accept lists from callers; store tuples so records stay hashable values.
        object.__setattr__(self, "hashtags", tuple(self.hashtags))
        object.__setattr__(self, "mentions", tuple(self.mentions))
        object.__setattr__(self, "urls", tuple(self.urls))
        if self.geo is not None:
            object.__setattr__(self, "geo", tuple(self.geo))


@dataclass(frozen=True)
class ValidationIssue:
    """One convention violation found in a record."""

    tweet_id: int
    field: str
    kind: str
    message: str

    def __post_init__(self):
        if self.kind not in ISSUE_KINDS:
            raise ValueError(f"unknown issue kind: {self.kind!r}")


def parse_timestamp(value: str) -> datetime:
    """Parse an ISO-8601 timestamp; 'Z' means UTC.  Naive values pass through."""
    if not isinstance(value, str):
        raise SchemaError(f"createdAt must be a string, got {type(value).__name__}")
    text = value.replace("Z", "+00:00") if value.endswith("Z") else value
    try:
        return datetime.fromisoformat(text)
    except ValueError as exc:
        raise SchemaError(f"createdAt does not parse as a timestamp: {value!r}") from exc


def format_timestamp(value: datetime) -> str:
    """Emit the 'YYYY-MM-DDTHH:MM:SSZ' form; naive datetimes keep no suffix."""
    if value.tzinfo is None:
        return value.isoformat()
    return value.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


def parse_tweet(raw: str) -> TweetRecord:
    """Parse one JSON tweet object into a TweetRecord.

    Values are preserved verbatim, unknown attributes are ignored, and
    absent optional attributes default to empty/none/false.  Raises
    ParseError for malformed JSON and SchemaError naming the attribute
    when a mandatory one is missing.
    """
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed tweet JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"tweet JSON must be an object, got {type(obj).__name__}")
    return tweet_from_dict(obj)


def tweet_from_dict(obj: Mapping) -> TweetRecord:
    """Build a TweetRecord from an already-decoded JSON object."""
    for attr in MANDATORY_ATTRS:
        if attr not in obj:
            raise SchemaError(f"tweet object is missing mandatory attribute {attr!r}")
    hashtags = tuple(
        HashtagEntity(start=int(h["start"]), end=int(h["end"]), text=str(h["text"]))
        for h in obj["hashtags"]
    )
    mentions = tuple(
        MentionEntity(
            start=int(m["start"]),
            end=int(m["end"]),
            user_id=int(m["id"]),
            screen_name=str(m["screenName"]),
            display_name=str(m.get("name", "")),
        )
        for m in obj["mentions"]
    )
    geo = None
    if obj.get("geo") is not None:
        g = obj["geo"]
        geo = (float(g["lat"]), float(g["lon"]), str(g["country"]))
    return TweetRecord(
        id=int(obj["_id"]),
        user_id=int(obj["userid"]),
        screen_name=str(obj["screenName"]),
        created_at=parse_timestamp(obj["createdAt"]),
        text=str(obj["tweettext"]),
        hashtags=hashtags,
        mentions=mentions,
        urls=tuple(str(u) for u in obj.get("urls", ())),
        is_retweet=bool(obj.get("isRetweet", False)),
        reply_to_id=int(obj["replyToId"]) if obj.get("replyToId") is not None else None,
        geo=geo,
        language=str(obj["lang"]) if obj.get("lang") is not None else None,
        has_image=bool(obj.get("hasImage", False)),
    )


def tweet_to_dict(t: TweetRecord) -> dict:
    """Canonical JSON object for a record; optional keys only when set."""
    obj = {
        "_id": t.id,
        "userid": t.user_id,
        "screenName": t.screen_name,
        "createdAt": format_timestamp(t.created_at),
        "tweettext": t.text,
        "hashtags": [{"start": h.start, "end": h.end, "text": h.text} for h in t.hashtags],
        "mentions": [
            {
                "start": m.start,
                "end": m.end,
                "id": m.user_id,
                "screenName": m.screen_name,
                "name": m.display_name,
            }
            for m in t.mentions
        ],
    }
    if t.urls:
        obj["urls"] = list(t.urls)
    if t.is_retweet:
        obj["isRetweet"] = True
    if t.reply_to_id is not None:
        obj["replyToId"] = t.reply_to_id
    if t.geo is not None:
        obj["geo"] = {"lat": t.geo[0], "lon": t.geo[1], "country": t.geo[2]}
    if t.language is not None:
        obj["lang"] = t.language
    if t.has_image:
        obj["hasImage"] = True
    return obj


def serialize_tweet(t: TweetRecord) -> str:
    """Serialize to canonical one-line JSON; parse_tweet inverts it exactly."""
    return json_line(tweet_to_dict(t))


def extract_entities(
    text: str,
    accounts: Mapping[str, tuple[int, str]] | None = None,
) -> tuple[list[HashtagEntity], list[MentionEntity]]:
    """Find every '#word' and '@word' run with convention-conformant offsets.

    A word is a maximal run of letters, digits and underscores.  Mention
    user ids are 0 unless ``accounts`` maps the lowercased screen name to
    (user_id, display_name); scenario authoring passes its account registry
    here so the emitted records carry real ids.
    """
    hashtags: list[HashtagEntity] = []
    mentions: list[MentionEntity] = []
    for match in _ENTITY_RE.finditer(text):
        word = match.group()[1:]
        if match.group()[0] == "#":
            hashtags.append(HashtagEntity(start=match.start(), end=match.end(), text=word))
        else:
            user_id, display = 0, word
            if accounts is not None and word.lower() in accounts:
                user_id, display = accounts[word.lower()]
            mentions.append(
                MentionEntity(
                    start=match.start(),
                    end=match.end(),
                    user_id=user_id,
                    screen_name=word,
                    display_name=display,
                )
            )
    return hashtags, mentions


def validate(t: TweetRecord) -> list[ValidationIssue]:
    """Check the record against the offset convention; empty list iff clean.

    Never mutates the record.  Issue kinds are the closed set in
    ISSUE_KINDS; an entity with out-of-range offsets gets only the range
    issue (marker and slice cannot be checked safely).
    """
    issues: list[ValidationIssue] = []
    if t.created_at.tzinfo is None:
        issues.append(
            ValidationIssue(
                tweet_id=t.id,
                field="created_at",
                kind="timestamp-invalid",
                message="timestamp has no UTC offset; instant is ambiguous",
            )
        )

    def check(path: str, start: int, end: int, marker: str, expected: str):
        if not (0 <= start < end <= len(t.text)):
            issues.append(
                ValidationIssue(
                    tweet_id=t.id,
                    field=path,
                    kind="offset-out-of-range",
                    message=f"offsets [{start}, {end}) outside text of length {len(t.text)}",
                )
            )
            return
        if t.text[start] != marker:
            issues.append(
                ValidationIssue(
                    tweet_id=t.id,
                    field=path,
                    kind="marker-missing",
                    message=f"text at index {start} is {t.text[start]!r}, expected {marker!r}",
                )
            )
        if t.text[start + 1 : end].lower() != expected.lower():
            issues.append(
                ValidationIssue(
                    tweet_id=t.id,
                    field=path,
                    kind="slice-mismatch",
                    message=f"slice [{start + 1}, {end}) is {t.text[start + 1:end]!r}, expected {expected!r}",
                )
            )

    for i, h in enumerate(t.hashtags):
        check(f"hashtags[{i}]", h.start, h.end, "#", h.text)
    for i, m in enumerate(t.mentions):
        check(f"mentions[{i}]", m.start, m.end, "@", m.screen_name)
    return issues


# -- files ---------------------------------------------------------------------

def json_line(obj) -> str:
    """``obj`` as one compact JSON line, without the newline."""
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def read_ndjson(path, row):
    """Yield ``row(obj)`` for each JSON line of ``path``, one at a time.

    A line that does not decode, or that ``row`` rejects, raises a
    ParseError naming ``path:line``; if it is an unterminated final line
    that is not JSON (a write cut short), ``torn_at`` is where it starts.
    """
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            parsed = False
            try:
                obj = json.loads(line.decode("utf-8"))
                parsed = True
                value = row(obj)
            except (AttributeError, KeyError, TypeError, ValueError, ConfigError) as exc:
                err = ParseError(f"{path}:{lineno}: unreadable line: {type(exc).__name__}: {exc}")
                if not parsed and not line.endswith(b"\n"):
                    err.torn_at = fh.tell() - len(line)
                raise err from exc
            yield value


def load_json_config(path) -> dict:
    """Read a JSON document whose top level is an object."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must hold a JSON object, got {type(doc).__name__}")
    return doc
