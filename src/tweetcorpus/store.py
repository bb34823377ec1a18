"""Append-only tweet persistence partitioned by corpus.

Layout: one line file (``tweets.read_ndjson``) per corpus under the store
root.  Each line is the canonical tweet object plus an envelope
(``corpus``, ``storedAt``, ``isProbe``).  A corpus's ledger, the in-memory
index (tweet id -> probe flag) and its latest non-probe ``storedAt``, is
the record of what the corpus holds: append dedupe (per process, so two
concurrent ``collect run``s on one store can duplicate rows), ``count``,
``ids``, the probe filter of ``scan`` and ``dehydrate``.  Opening a store
reads no row.  A corpus file is read one way: every row read (``scan``,
``dehydrate`` with a roster) is one pass that also refreshes the corpus's
ledger, so rows another writer appended are counted and filtered as they
are read; ``count``, ``ids``, appends and plain ``dehydrate`` run that pass
only on the corpus's first use, without building rows.  So a command
decodes only the corpora it uses.  Scans yield a stable total order by
(created_at, id).

The ledger checks the keys that order and filter rows (``_id``,
``isProbe``, ``storedAt``, ``createdAt``), so a row with one of them
unreadable fails every use of its corpus, an export among them; a field of
the wrong kind elsewhere in a row fails only where rows are decoded.

A crash can cut the last append short.  On any pass, a final line without
a newline that does not parse is cut off into ``<corpus>.ndjson.torn`` and
reported in ``CorpusStore.torn``; one that parses gets its newline before
the next append.  Any other unreadable line is a StoreError.

Dehydration writes the shareable ID-list form: a ``# corpus:<name>
generated:<UTC>`` header followed by one ``tweet_id<TAB>candidate_id?``
row per stored id, in ascending id order; it reads rows only to annotate
candidates.  Rehydration resolves such a file
against any object with ``fetch_tweets(ids)`` and reports unresolvable
ids instead of fabricating records.
"""

from __future__ import annotations

import os
import re
import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .errors import ParseError, SchemaError, StoreError, UnknownCorpusError
from .tweets import (
    TweetRecord,
    format_timestamp,
    int_cell,
    json_line,
    parse_timestamp,
    read_ndjson,
    read_text,
    tweet_from_dict,
    tweet_to_dict,
)

# the one rule for a corpus name, which is also its file name; collect checks configs by it
CORPUS_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*$")
_HEADER_RE = re.compile(r"# corpus:(?P<name>\S+) generated:(?P<ts>\S+)$")

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


@dataclass(slots=True)
class StoredTweet:
    tweet: TweetRecord
    stored_at: datetime


@dataclass(frozen=True)
class RehydrationResult:
    corpus: str
    tweets: tuple[TweetRecord, ...]
    missing_ids: tuple[int, ...]


def _author(obj, stored_at) -> tuple[int, int]:
    """A row's ``_id`` and integer ``userid``, after the ledger's ``createdAt`` check; the rest is not decoded."""
    _timestamp(obj, "createdAt")
    user_id = obj["userid"]
    if type(user_id) is not int:
        raise ValueError(f"'userid' must be an integer, got {user_id!r}")
    return obj["_id"], user_id


def _stored_tweet(obj, stored_at) -> StoredTweet:
    return StoredTweet(tweet_from_dict(obj), stored_at)


def _timestamp(obj, key: str) -> datetime:
    try:
        return parse_timestamp(obj[key])
    except SchemaError as exc:
        raise SchemaError(f"field {key!r}: {exc}") from exc


def _cut_tail(path: Path, offset: int) -> int:
    """Move ``path``'s bytes from ``offset`` on to its ``.torn`` sidecar as one line."""
    with open(path, "rb+") as fh:
        fh.seek(offset)
        tail = fh.read()
        with open(path.with_name(path.name + ".torn"), "ab") as sidecar:
            sidecar.write(tail + b"\n")
        fh.truncate(offset)
    return len(tail)


class CorpusStore:
    """Directory-backed store; one writer handle per corpus, shared lock.
    The open only lists the corpus files, and the first write makes the
    directory.  Every row read refreshes the corpus's ledger; a first-use
    pass builds it for ``count``, ``ids``, appends and plain ``dehydrate``.
    ``torn`` maps a corpus to the bytes of the torn lines its passes cut
    off."""

    def __init__(self, root):
        self.root = Path(root)
        self._lock = threading.Lock()
        self._names = {path.stem for path in self.root.glob("*.ndjson")}
        self._index: dict[str, dict[int, bool]] = {}
        self._latest: dict[str, datetime] = {}
        self._handles: dict[str, object] = {}
        self.torn: dict[str, int] = {}

    # -- lifecycle ---------------------------------------------------------

    def close(self):
        with self._lock:
            for fh in self._handles.values():
                fh.close()
            self._handles.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- corpus files and their ledgers (lock held) --------------------------

    def _path(self, corpus: str) -> Path:
        return self.root / f"{corpus}.ndjson"

    def _pass(self, corpus: str, row) -> list:
        """Refresh ``corpus``'s ledger from one pass over its file, cutting a
        torn final line off, and return ``row(obj, stored_at)`` for each line
        from the same pass (nothing when ``row`` is None).  Each line's
        ``_id`` must be a JSON integer, its ``isProbe`` a JSON bool (absent
        is false) and its ``storedAt`` and ``createdAt`` timestamps with a UTC
        offset; ``row`` checks ``createdAt`` when it is given."""
        index, latest, rows = self._index.get(corpus, {}), self._latest.get(corpus), []

        def line(obj):
            nonlocal latest
            tweet_id, is_probe = obj["_id"], obj.get("isProbe", False)
            if type(tweet_id) is not int or type(is_probe) is not bool:
                raise ValueError(f"'_id' must be an integer and 'isProbe' true or false, got {tweet_id!r} and {is_probe!r}")
            stored_at = _timestamp(obj, "storedAt")
            if row is None:
                _timestamp(obj, "createdAt")  # scans order by it: a row they would refuse fails every use
            else:
                rows.append(row(obj, stored_at))  # before the ledger, which a refresh updates in place
            index[tweet_id] = is_probe
            if not is_probe and (latest is None or stored_at > latest):
                latest = stored_at

        path = self._path(corpus)
        if path.exists():
            try:
                for _ in read_ndjson(path, line):
                    pass
            except ParseError as exc:
                if exc.torn_at is None:
                    raise StoreError(str(exc)) from exc
                self.torn[corpus] = self.torn.get(corpus, 0) + _cut_tail(path, exc.torn_at)
        self._index[corpus] = index
        if latest is not None:
            self._latest[corpus] = latest
        return rows

    def _ledger(self, corpus: str) -> dict[int, bool]:
        """``corpus``'s index, built on first use, which also registers the corpus."""
        if corpus not in self._index:
            self._names.add(corpus)
            self._pass(corpus, None)
        return self._index[corpus]

    # -- writes ------------------------------------------------------------

    def _handle(self, corpus: str):
        fh = self._handles.get(corpus)
        if fh is None:
            path = self._path(corpus)
            self.root.mkdir(parents=True, exist_ok=True)
            fh = open(path, "a", encoding="utf-8")
            if fh.tell():
                with open(path, "rb") as last:
                    last.seek(-1, os.SEEK_END)
                    if last.read() != b"\n":
                        fh.write("\n")  # terminate a final line a crash left unterminated
            self._handles[corpus] = fh
        return fh

    def ensure_corpus(self, corpus: str):
        """Register an (initially empty) corpus so scans of it are legal."""
        if not CORPUS_NAME_RE.match(corpus):
            raise StoreError(f"corpus name not usable as a file name: {corpus!r}")
        with self._lock:
            self._ledger(corpus)
            self._handle(corpus)

    def append(self, tweet: TweetRecord, corpus: str, *, is_probe: bool = False, stored_at: datetime) -> str:
        """Persist ``tweet`` into ``corpus`` at ``stored_at``; returns "appended" or "duplicate"."""
        if not CORPUS_NAME_RE.match(corpus):
            raise StoreError(f"corpus name not usable as a file name: {corpus!r}")
        with self._lock:
            ids = self._ledger(corpus)
            if tweet.id in ids:
                return "duplicate"
            obj = {"corpus": corpus, "storedAt": format_timestamp(stored_at), "isProbe": is_probe}
            obj.update(tweet_to_dict(tweet))
            fh = self._handle(corpus)
            fh.write(json_line(obj) + "\n")
            fh.flush()
            ids[tweet.id] = is_probe
            if not is_probe:
                self._latest[corpus] = max(self._latest.get(corpus, stored_at), stored_at)
            return "appended"

    # -- reads -------------------------------------------------------------

    def corpora(self) -> list[str]:
        with self._lock:
            return sorted(self._names)

    def _require(self, corpus: str):
        if corpus not in self._names:
            raise UnknownCorpusError(corpus)

    def _read_rows(self, corpus: str, row) -> list:
        """``row(obj, stored_at)`` for each line of ``corpus``'s file, appends
        included, from the pass that also refreshes its ledger."""
        with self._lock:
            self._require(corpus)
            fh = self._handles.get(corpus)
            if fh is not None:
                fh.flush()
            return self._pass(corpus, row)

    def _read_all(self, corpus: str) -> list[StoredTweet]:
        return self._read_rows(corpus, _stored_tweet)

    def scan(self, corpus: str, include_probes: bool = False) -> list[StoredTweet]:
        """Point-in-time snapshot, ordered by (created_at, id)."""
        rows = self._read_all(corpus)
        if not include_probes:
            probes = self.ids(corpus, probes=True)
            rows = [r for r in rows if r.tweet.id not in probes]
        rows.sort(key=lambda r: (r.tweet.created_at, r.tweet.id))
        return rows

    def count(self, corpus: str) -> int:
        """Rows in ``corpus``, probes included, answered from the ledger without decoding."""
        with self._lock:
            self._require(corpus)
            return len(self._ledger(corpus))

    def ids(self, corpus: str, probes: bool = False) -> frozenset[int]:
        """Ids of ``corpus``'s probe rows, or of its other rows, from the ledger without decoding."""
        with self._lock:
            self._require(corpus)
            return frozenset(i for i, is_probe in self._ledger(corpus).items() if is_probe == probes)


# -- derived corpora ---------------------------------------------------------

def privacy_filter(store: CorpusStore, corpus: str, roster_index: dict[int, str], derived_name: str | None = None) -> str:
    """Copy only roster-authored records into a derived corpus.

    ``roster_index`` maps verified account user ids to candidate ids.  An
    empty index is refused: filtering everything away is almost certainly
    a misconfiguration, not an intent.
    """
    if not roster_index:
        raise StoreError("privacy filter refused: roster resolves no accounts")
    derived = derived_name or f"{corpus}-candidates"
    store.ensure_corpus(derived)
    for row in store.scan(corpus, include_probes=False):
        if row.tweet.user_id in roster_index:
            store.append(row.tweet, derived, stored_at=row.stored_at)
    return derived


# -- dehydration / rehydration -----------------------------------------------

def dehydrate(store: CorpusStore, corpus: str, path, roster_index: dict[int, str] | None = None) -> int:
    """Write the shareable ID list for ``corpus``; returns the id count.

    The ledger answers: probe records never leave the store, an id stored
    twice is written once, and the header timestamp is the latest storedAt
    of the non-probe rows (the epoch for an empty corpus), so identical
    stores give byte-identical files.  Rows are read, for their ``_id`` and
    ``userid`` only, just when ``roster_index`` annotates candidates.
    """
    authors = dict(store._read_rows(corpus, _author)) if roster_index else {}  # first, so it builds the ledger
    ids = sorted(store.ids(corpus))
    lines = [f"# corpus:{corpus} generated:{format_timestamp(store._latest.get(corpus, EPOCH))}"]
    for tweet_id in ids:
        cid = roster_index.get(authors[tweet_id]) if roster_index else None
        lines.append(f"{tweet_id}\t{cid}" if cid is not None else str(tweet_id))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(ids)


def read_dehydrated(path) -> tuple[str, datetime, list[tuple[int, str | None]]]:
    """Parse an ID-list file; malformed content is reported with its line."""
    lines = read_text(path).splitlines()
    if not lines:
        raise ParseError(f"{path}:1: empty file, expected header")
    m = _HEADER_RE.match(lines[0])
    if not m:
        raise ParseError(f"{path}:1: bad header: {lines[0]!r}")
    try:
        generated = parse_timestamp(m.group("ts"))
    except SchemaError as exc:
        raise ParseError(f"{path}:1: header time {exc}") from exc
    rows: list[tuple[int, str | None]] = []
    seen: set[int] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) > 2:
            raise ParseError(f"{path}:{lineno}: expected 'id' or 'id<TAB>candidate', got {line!r}")
        try:
            tweet_id = int_cell(parts[0])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: tweet id is not ASCII digits: {parts[0]!r}") from exc
        if tweet_id in seen:
            raise ParseError(f"{path}:{lineno}: duplicate tweet id {tweet_id}")
        seen.add(tweet_id)
        rows.append((tweet_id, parts[1] if len(parts) == 2 else None))
    return m.group("name"), generated, rows


def rehydrate(path, lookup) -> RehydrationResult:
    """Resolve an ID-list file against ``lookup.fetch_tweets(ids)``.

    Returns the records that resolved and the exact ids that did not.
    """
    corpus, _, rows = read_dehydrated(path)
    ids = [tweet_id for tweet_id, _ in rows]
    fetched = {t.id: t for t in lookup.fetch_tweets(ids)}
    tweets = tuple(fetched[i] for i in ids if i in fetched)
    missing = tuple(i for i in ids if i not in fetched)
    return RehydrationResult(corpus=corpus, tweets=tweets, missing_ids=missing)


