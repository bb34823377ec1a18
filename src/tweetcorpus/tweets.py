"""Tweet record model: parsing, serialization, entity extraction, validation.

The wire format is one JSON object per tweet with the attribute names
``_id``, ``userid``, ``screenName``, ``createdAt``, ``tweettext``,
``hashtags``, ``mentions`` (mandatory) plus optional metadata keys
(``urls``, ``isRetweet``, ``replyToId``, ``geo``, ``lang``, ``hasImage``).

This module owns the package's JSON file format, both ways; no other
module imports ``json``.  Line files (the world timeline and accounts, the
store, probe logs and run logs) and the CLI's stderr events are
newline-delimited JSON, UTF-8, one object per line, written by
``json_line``: compact, with non-ASCII text kept as is.  ``read_ndjson``
ends a line at ``"\\n"`` only, so U+2028 or U+0085 inside a string is text,
skips blank lines, and names ``path:line`` in the ``ParseError`` for a
line that does not decode.  JSON documents (manifests, amendment batches,
the world's ``scenario.json`` and ``groups.json``, evidence sidecars,
reference exports and the CLI's stdout) are written in one form by
``json_document`` and ``write_json``: indented by 1, keys sorted, non-ASCII
text kept, newline-terminated.  Documents, configs among them, are read by
``load_json_config``, which names the file in its ``ConfigError``.  Their
values are read by ``json_field`` and ``json_value``, and a document's list
of entries by ``object_list``: a value of the wrong kind is never coerced,
it is a ``ConfigError`` that names the entry and the key.  An object built
by a builder function may hold only the keys that builder reads, so a
misspelt key is refused instead of leaving its default in force.  Rows are
not coerced either: ``tweet_from_dict`` checks each field of a tweet row
against its JSON kind, world account rows are built through ``json_field``,
and ``int_cell`` reads an integer in a text cell as ASCII digits only.

Entity offset convention: ``start`` indexes the marker character
('#' or '@'), ``end`` is exclusive, the entity text excludes the marker,
and indices count Unicode code points.  Records parsed from external
files may violate the convention; ``validate`` flags them instead of
rejecting them.
"""

from __future__ import annotations

import contextlib
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

# what decoding a value of the wrong shape may raise; each is reported naming the place
DECODE_ERRORS = (AttributeError, KeyError, TypeError, ValueError, ConfigError)


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


def _kind_error(key: str, value, kind: str) -> SchemaError:
    return SchemaError(f"field {key!r} must be {kind}, got {_shown(value)}")


def _hashtag(h) -> HashtagEntity:
    start, end, text = h["start"], h["end"], h["text"]
    if type(start) is not int or type(end) is not int or type(text) is not str:
        raise _kind_error("hashtags", h, "objects with integers 'start' and 'end' and a string 'text'")
    return HashtagEntity(start, end, text)


def _mention(m) -> MentionEntity:
    start, end, user_id, screen_name, name = m["start"], m["end"], m["id"], m["screenName"], m.get("name", "")
    if (type(start) is not int or type(end) is not int or type(user_id) is not int
            or type(screen_name) is not str or type(name) is not str):
        raise _kind_error("mentions", m, "objects with integers 'start', 'end' and 'id' and strings "
                                         "'screenName' and 'name'")
    return MentionEntity(start, end, user_id, screen_name, name)


def tweet_from_dict(obj: Mapping) -> TweetRecord:
    """Build a TweetRecord from an already-decoded JSON object.

    Each field is read as its JSON kind and never coerced (only a ``geo``
    integer reads as a float); another kind is a SchemaError naming the
    field.  A naive ``createdAt`` passes, because ``validate`` flags it.
    """
    for attr in MANDATORY_ATTRS:
        if attr not in obj:
            raise SchemaError(f"tweet object is missing mandatory attribute {attr!r}")
    tweet_id, user_id, screen_name, text = obj["_id"], obj["userid"], obj["screenName"], obj["tweettext"]
    hashtags, mentions, urls = obj["hashtags"], obj["mentions"], obj.get("urls", [])
    is_retweet, has_image = obj.get("isRetweet", False), obj.get("hasImage", False)
    reply_to_id, language, geo = obj.get("replyToId"), obj.get("lang"), obj.get("geo")
    if type(tweet_id) is not int:
        raise _kind_error("_id", tweet_id, "an integer")
    if type(user_id) is not int:
        raise _kind_error("userid", user_id, "an integer")
    if type(screen_name) is not str:
        raise _kind_error("screenName", screen_name, "a string")
    if type(text) is not str:
        raise _kind_error("tweettext", text, "a string")
    if type(hashtags) is not list:
        raise _kind_error("hashtags", hashtags, "a list")
    if type(mentions) is not list:
        raise _kind_error("mentions", mentions, "a list")
    if type(urls) is not list or not all(type(u) is str for u in urls):
        raise _kind_error("urls", urls, "a list of strings")
    if type(is_retweet) is not bool:
        raise _kind_error("isRetweet", is_retweet, "true or false")
    if type(has_image) is not bool:
        raise _kind_error("hasImage", has_image, "true or false")
    if reply_to_id is not None and type(reply_to_id) is not int:
        raise _kind_error("replyToId", reply_to_id, "an integer or null")
    if language is not None and type(language) is not str:
        raise _kind_error("lang", language, "a string or null")
    if geo is not None:
        lat, lon, country = geo["lat"], geo["lon"], geo["country"]
        if type(lat) not in (int, float) or type(lon) not in (int, float) or type(country) is not str:
            raise _kind_error("geo", geo, "null or an object with numbers 'lat' and 'lon' and a string 'country'")
        geo = (float(lat), float(lon), country)
    return TweetRecord(
        id=tweet_id,
        user_id=user_id,
        screen_name=screen_name,
        created_at=parse_timestamp(obj["createdAt"]),
        text=text,
        hashtags=[_hashtag(h) for h in hashtags],
        mentions=[_mention(m) for m in mentions],
        urls=urls,
        is_retweet=is_retweet,
        reply_to_id=reply_to_id,
        geo=geo,
        language=language,
        has_image=has_image,
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


def json_document(doc) -> str:
    """``doc`` as a JSON document: indented by 1, keys sorted, non-ASCII kept, newline-terminated."""
    return json.dumps(doc, ensure_ascii=False, indent=1, sort_keys=True) + "\n"


def write_json(path, doc):
    """Write ``json_document(doc)`` to ``path`` as UTF-8, creating its directory."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json_document(doc), encoding="utf-8")


def int_cell(text: str) -> int:
    """An integer written in a text cell as ASCII digits only; a sign, a space,
    an underscore or a digit of another script is a ValueError."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected ASCII digits, got {text!r}")
    return int(text)


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
            except DECODE_ERRORS as exc:
                err = ParseError(f"{path}:{lineno}: unreadable line: {type(exc).__name__}: {exc}")
                if not parsed and not line.endswith(b"\n"):
                    err.torn_at = fh.tell() - len(line)
                raise err from exc
            yield value


def load_json_config(path, build=dict):
    """``build(doc)`` for the JSON document at ``path``, whose top level must
    be an object; every error names the file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    return json_value(doc, build, str(path))


def object_list(doc, key: str, what: str, entry) -> list:
    """``entry(obj)`` for each JSON object in the list that the ``what``
    document ``doc`` holds under ``key``; otherwise a ConfigError naming the
    key, or the entry as ``what key[i]``; the problems of every entry are
    reported together."""
    items = doc.get(key) if isinstance(doc, dict) else None
    if type(items) is not list:
        raise ConfigError(f"{what} must be an object with a '{key}' list")
    built, problems = [], []
    for i, item in enumerate(items):
        try:
            built.append(json_value(item, entry, f"{what} {key}[{i}]"))
        except ConfigError as exc:
            problems.append(str(exc))
    if problems:
        raise ConfigError("; ".join(problems))
    return built


# -- config values ---------------------------------------------------------------

_REQUIRED = object()

_KIND_NAMES = {
    str: "a string", int: "an integer", float: "a number", bool: "true or false",
    dict: "a JSON object", datetime: "a timestamp with a UTC offset",
}


class _Fields(dict):
    """A JSON object that records which keys its builder looked up."""

    def __init__(self, obj):
        super().__init__(obj)
        self.read = set()

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def _shown(value) -> str:
    """``value`` as JSON, cut to 40 characters for an error message."""
    shown = json_line(value)
    return shown if len(shown) <= 40 else shown[:37] + "..."


def _kind_name(kind) -> str:
    if isinstance(kind, (list, tuple)):
        return "a list" if isinstance(kind, list) else f"a list of {len(kind)}"
    return _KIND_NAMES[kind]


def json_value(value, kind, name: str):
    """``value`` read as ``kind``, never coerced; otherwise a ConfigError naming ``name``.

    ``kind`` is a type: ``str``, ``int``, ``bool``, ``dict``, ``float`` (an
    integer comes back as a float) or ``datetime`` (ISO-8601 with a UTC
    offset); ``[k]``, a list of ``k``, or ``(k1, k2)``, a list of that shape,
    both read as tuples; or a function that builds a value from a JSON object,
    which must look up every key the object holds.
    """
    if isinstance(kind, tuple):
        if type(value) is list and len(value) == len(kind):
            return tuple(json_value(v, k, f"{name}[{i}]") for i, (v, k) in enumerate(zip(value, kind)))
    elif isinstance(kind, list):
        if type(value) is list:
            return tuple(json_value(v, kind[0], f"{name}[{i}]") for i, v in enumerate(value))
    elif kind not in _KIND_NAMES:
        obj = value if type(value) is _Fields else _Fields(json_value(value, dict, name))
        try:
            built = kind(obj)
        except DECODE_ERRORS as exc:
            reason = exc if isinstance(exc, ConfigError) else f"{type(exc).__name__}: {exc}"
            raise ConfigError(f"{name}: {reason}") from exc
        if unread := obj.keys() - obj.read:
            raise ConfigError(f"{name}: unknown field {', '.join(map(repr, sorted(unread)))}")
        return built
    elif kind is datetime:
        with contextlib.suppress(ParseError):
            if (stamp := parse_timestamp(value)).tzinfo is not None:
                return stamp
    elif type(value) is kind:
        return value
    elif kind is float and type(value) is int:
        return float(value)
    raise ConfigError(f"{name} must be {_kind_name(kind)}, got {_shown(value)}")


def json_field(obj, key: str, kind, default=_REQUIRED):
    """``obj[key]`` read by ``json_value`` as ``kind`` and named as the field
    ``key``; an absent key gives ``default``, or a ConfigError without one."""
    if key in obj:
        return json_value(obj[key], kind, f"field {key!r}")
    if default is _REQUIRED:
        raise ConfigError(f"field {key!r} is missing")
    return default
