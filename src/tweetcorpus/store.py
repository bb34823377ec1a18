"""Append-only tweet persistence partitioned by corpus.

Layout: one line file (``tweets.read_ndjson``) per corpus under the store
root.  Each line is the canonical tweet object plus an envelope
(``corpus``, ``storedAt``, ``isProbe``).  The in-memory index (tweet id
-> probe flag), built at open, is the ledger of what a corpus holds: append
dedupe (per process, so two concurrent ``collect run``s on one store can
duplicate rows), ``count``, ``ids`` and the probe filter of ``scan``.
Scans yield a stable total order by (created_at, id).

A crash can cut the last append short.  On open, a final line without a
newline that does not parse is cut off into ``<corpus>.ndjson.torn`` and
reported in ``CorpusStore.torn``; one that parses gets its newline before
the next append.  Any other unreadable line is a StoreError.

Dehydration writes the shareable ID-list form: a ``# corpus:<name>
generated:<UTC>`` header followed by one ``tweet_id<TAB>candidate_id?``
row per record, in ascending id order.  Rehydration resolves such a file
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

from .corpus import _as_utc
from .errors import ParseError, StoreError, UnknownCorpusError
from .tweets import (
    TweetRecord,
    format_timestamp,
    int_cell,
    json_line,
    parse_timestamp,
    read_ndjson,
    tweet_from_dict,
    tweet_to_dict,
)

_CORPUS_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*$")
_HEADER_RE = re.compile(r"# corpus:(?P<name>\S+) generated:(?P<ts>\S+)$")

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


@dataclass(frozen=True)
class StoredTweet:
    tweet: TweetRecord
    stored_at: datetime


@dataclass(frozen=True)
class RehydrationResult:
    corpus: str
    tweets: tuple[TweetRecord, ...]
    missing_ids: tuple[int, ...]


def _index_entry(obj) -> tuple[int, bool]:
    """A row's ledger entry: ``_id`` a JSON integer, ``isProbe`` a JSON bool (absent is false)."""
    tweet_id, is_probe = obj["_id"], obj.get("isProbe", False)
    if type(tweet_id) is not int or type(is_probe) is not bool:
        raise ValueError(f"'_id' must be an integer and 'isProbe' true or false, got {tweet_id!r} and {is_probe!r}")
    return tweet_id, is_probe


def _stored_tweet(obj) -> StoredTweet:
    return StoredTweet(tweet=tweet_from_dict(obj), stored_at=parse_timestamp(obj["storedAt"]))


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
    ``torn`` maps a corpus to the bytes of the torn line cut off at open."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._index: dict[str, dict[int, bool]] = {}
        self._handles: dict[str, object] = {}
        self.torn: dict[str, int] = {}
        for path in sorted(self.root.glob("*.ndjson")):
            index = self._index[path.stem] = {}
            try:
                for tweet_id, is_probe in read_ndjson(path, _index_entry):
                    index[tweet_id] = is_probe
            except ParseError as exc:
                if exc.torn_at is None:
                    raise StoreError(str(exc)) from exc
                self.torn[path.stem] = _cut_tail(path, exc.torn_at)

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

    # -- writes ------------------------------------------------------------

    def _path(self, corpus: str) -> Path:
        return self.root / f"{corpus}.ndjson"

    def _handle(self, corpus: str):
        fh = self._handles.get(corpus)
        if fh is None:
            path = self._path(corpus)
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
        if not _CORPUS_NAME_RE.match(corpus):
            raise StoreError(f"corpus name not usable as a file name: {corpus!r}")
        with self._lock:
            self._index.setdefault(corpus, {})
            self._handle(corpus)

    def append(self, tweet: TweetRecord, corpus: str, *, is_probe: bool = False, stored_at: datetime) -> str:
        """Persist ``tweet`` into ``corpus`` at ``stored_at``; returns "appended" or "duplicate"."""
        if not _CORPUS_NAME_RE.match(corpus):
            raise StoreError(f"corpus name not usable as a file name: {corpus!r}")
        with self._lock:
            ids = self._index.setdefault(corpus, {})
            if tweet.id in ids:
                return "duplicate"
            obj = {"corpus": corpus, "storedAt": format_timestamp(stored_at), "isProbe": is_probe}
            obj.update(tweet_to_dict(tweet))
            fh = self._handle(corpus)
            fh.write(json_line(obj) + "\n")
            fh.flush()
            ids[tweet.id] = is_probe
            return "appended"

    # -- reads -------------------------------------------------------------

    def corpora(self) -> list[str]:
        with self._lock:
            return sorted(self._index)

    def _require(self, corpus: str):
        if corpus not in self._index:
            raise UnknownCorpusError(corpus)

    def _read_all(self, corpus: str) -> list[StoredTweet]:
        with self._lock:
            self._require(corpus)
            fh = self._handles.get(corpus)
            if fh is not None:
                fh.flush()
            path = self._path(corpus)
            if not path.exists():
                return []
            try:
                return list(read_ndjson(path, _stored_tweet))
            except ParseError as exc:
                raise StoreError(str(exc)) from exc

    def scan(self, corpus: str, include_probes: bool = False) -> list[StoredTweet]:
        """Point-in-time snapshot, ordered by (created_at, id)."""
        rows = self._read_all(corpus)
        if not include_probes:
            probes = self.ids(corpus, probes=True)
            rows = [r for r in rows if r.tweet.id not in probes]
        rows.sort(key=lambda r: (_as_utc(r.tweet.created_at), r.tweet.id))
        return rows

    def count(self, corpus: str) -> int:
        """Rows in ``corpus``, probes included, answered from the index without decoding."""
        with self._lock:
            self._require(corpus)
            return len(self._index[corpus])

    def ids(self, corpus: str, probes: bool = False) -> frozenset[int]:
        """Ids of ``corpus``'s probe rows, or of its other rows, from the index without decoding."""
        with self._lock:
            self._require(corpus)
            return frozenset(i for i, is_probe in self._index[corpus].items() if is_probe == probes)


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
    """Write the shareable ID list for ``corpus``; returns the row count.

    Probe records never leave the store.  The header timestamp is the
    latest storedAt (the epoch for an empty corpus), so identical stores
    give byte-identical files.
    """
    rows = store.scan(corpus, include_probes=False)
    generated_at = max((r.stored_at for r in rows), default=EPOCH)
    lines = [f"# corpus:{corpus} generated:{format_timestamp(_as_utc(generated_at))}"]
    for row in sorted(rows, key=lambda r: r.tweet.id):
        cid = roster_index.get(row.tweet.user_id) if roster_index else None
        lines.append(f"{row.tweet.id}\t{cid}" if cid is not None else str(row.tweet.id))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(rows)


def read_dehydrated(path) -> tuple[str, datetime, list[tuple[int, str | None]]]:
    """Parse an ID-list file; malformed content is reported with its line."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        raise ParseError(f"{path}:1: empty file, expected header")
    m = _HEADER_RE.match(lines[0])
    if not m:
        raise ParseError(f"{path}:1: bad header: {lines[0]!r}")
    generated = parse_timestamp(m.group("ts"))
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


