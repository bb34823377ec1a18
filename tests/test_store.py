"""Store: idempotent appends, ordered scans, archival exports, privacy filter."""

import dataclasses
import json
import random
import re
import threading
from datetime import datetime, timedelta, timezone

import pytest

from tweetcorpus.errors import ParseError, StoreError, UnknownCorpusError
from tweetcorpus.store import (
    CorpusStore,
    dehydrate,
    privacy_filter,
    read_dehydrated,
    rehydrate,
)
from tweetcorpus.tweets import TweetRecord, extract_entities, read_ndjson


def utc(*args):
    return datetime(*args, tzinfo=timezone.utc)


BASE = utc(2013, 9, 1)


def change_second_row(path, **change):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = json.dumps({**json.loads(lines[1]), **change}) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def make_tweet(i, user_id=500, text=None, created=None):
    text = text or f"beitrag nummer {i}"
    hashtags, mentions = extract_entities(text)
    return TweetRecord(
        id=i,
        user_id=user_id,
        screen_name=f"user{user_id}",
        created_at=created or (BASE + timedelta(seconds=i)),
        text=text,
        hashtags=hashtags,
        mentions=mentions,
    )


class TestAppend:
    def test_fresh_then_duplicate(self, tmp_path):
        with CorpusStore(tmp_path) as s:
            t = make_tweet(1)
            assert s.append(t, "c", stored_at=BASE) == "appended"
            assert s.append(t, "c", stored_at=BASE) == "duplicate"
            assert s.count("c") == 1

    def test_many_appends_leave_one_record(self, tmp_path):
        with CorpusStore(tmp_path) as s:
            t = make_tweet(7)
            for _ in range(10):
                s.append(t, "c", stored_at=BASE)
            assert s.count("c") == 1
        with CorpusStore(tmp_path) as s2:
            assert s2.count("c") == 1
            assert s2.append(t, "c", stored_at=BASE) == "duplicate"

    def test_parallel_corpora_share_ids(self, tmp_path):
        with CorpusStore(tmp_path) as s:
            t = make_tweet(1)
            assert s.append(t, "a", stored_at=BASE) == "appended"
            assert s.append(t, "b", stored_at=BASE) == "appended"
            assert s.count("a") == 1
            assert s.count("b") == 1

    def test_envelope_fields_on_disk(self, tmp_path):
        with CorpusStore(tmp_path) as s:
            s.append(make_tweet(1), "c", is_probe=True, stored_at=utc(2013, 9, 2, 3, 4, 5))
        line = (tmp_path / "c.ndjson").read_text(encoding="utf-8").strip()
        obj = json.loads(line)
        assert obj["corpus"] == "c"
        assert obj["storedAt"] == "2013-09-02T03:04:05Z"
        assert obj["isProbe"] is True
        assert obj["_id"] == 1

    def test_unsafe_corpus_name(self, tmp_path):
        with CorpusStore(tmp_path) as s:
            with pytest.raises(StoreError):
                s.append(make_tweet(1), "../escape", stored_at=BASE)

    def test_stored_at_is_required(self, tmp_path):
        with CorpusStore(tmp_path) as s:
            with pytest.raises(TypeError, match="stored_at"):
                s.append(make_tweet(1), "c")
            assert s.corpora() == []
        assert not (tmp_path / "c.ndjson").exists()

    def test_concurrent_appends_no_duplicates(self, tmp_path):
        with CorpusStore(tmp_path) as s:
            tweets = [make_tweet(i) for i in range(500)]
            results = []

            def worker(seed):
                order = list(tweets)
                random.Random(seed).shuffle(order)
                out = [s.append(t, "c", stored_at=BASE) for t in order]
                results.append(out)

            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
            flat = [r for out in results for r in out]
            assert flat.count("appended") == 500
            assert flat.count("duplicate") == 1500
            assert s.count("c") == 500
        lines = (tmp_path / "c.ndjson").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 500
        assert len({json.loads(l)["_id"] for l in lines}) == 500


class TestScan:
    def test_order_is_created_at_then_id(self, tmp_path):
        with CorpusStore(tmp_path) as s:
            same_time = utc(2013, 9, 5)
            tweets = [make_tweet(i) for i in range(20)]
            tweets += [make_tweet(100 + i, created=same_time) for i in range(5)]
            shuffled = list(tweets)
            random.Random(3).shuffle(shuffled)
            for t in shuffled:
                s.append(t, "c", stored_at=BASE)
            got = [r.tweet.id for r in s.scan("c")]
            want = [t.id for t in sorted(tweets, key=lambda t: (t.created_at, t.id))]
            assert got == want

    def test_order_stable_across_reopen(self, tmp_path):
        with CorpusStore(tmp_path) as s:
            for t in [make_tweet(3), make_tweet(1), make_tweet(2)]:
                s.append(t, "c", stored_at=BASE)
            first = [r.tweet.id for r in s.scan("c")]
        with CorpusStore(tmp_path) as s2:
            assert [r.tweet.id for r in s2.scan("c")] == first

    def test_probe_visibility_toggle(self, tmp_path):
        with CorpusStore(tmp_path) as s:
            for i in range(6):
                s.append(make_tweet(i), "c", is_probe=(i % 3 == 0), stored_at=BASE)
            assert len(s.scan("c")) == 4
            assert len(s.scan("c", include_probes=True)) == 6

    def test_unknown_corpus_named_in_error(self, tmp_path):
        with CorpusStore(tmp_path) as s:
            with pytest.raises(UnknownCorpusError, match="nope"):
                s.scan("nope")

    def test_empty_registered_corpus_is_empty_not_error(self, tmp_path):
        with CorpusStore(tmp_path) as s:
            s.ensure_corpus("new")
            assert s.scan("new") == []

    def test_line_separator_in_text_survives_reopen(self, tmp_path):
        # json.dumps leaves U+2028 unescaped; only "\n" may split store lines
        t = make_tweet(1, text="erste zeile\u2028zweite zeile\x85ende")
        with CorpusStore(tmp_path) as s:
            s.append(t, "c", stored_at=BASE)
        with CorpusStore(tmp_path) as s2:
            assert s2.scan("c")[0].tweet == t

    def test_payload_round_trips(self, tmp_path):
        t = make_tweet(9, text="richtig #wahl2013 und @someone dazu https://t.co/zz")
        t2 = dataclasses.replace(t, urls=("https://t.co/zz",), geo=(52.5, 13.4, "DE"), language="de")
        with CorpusStore(tmp_path) as s:
            s.append(t2, "c", stored_at=BASE)
        with CorpusStore(tmp_path) as s2:
            assert s2.scan("c")[0].tweet == t2


class TestCount:
    def test_count_answers_from_the_index(self, tmp_path):
        with CorpusStore(tmp_path) as s:
            for i in range(6):
                s.append(make_tweet(i), "c", is_probe=(i % 3 == 0), stored_at=BASE)
        with CorpusStore(tmp_path) as s2:
            assert s2.count("c") == 6
            assert len(s2.ids("c")) == 4
            with pytest.raises(UnknownCorpusError):
                s2.count("nope")

    def test_ids_answer_from_the_index(self, tmp_path):
        with CorpusStore(tmp_path) as s:
            for i in range(6):
                s.append(make_tweet(i), "c", is_probe=(i % 3 == 0), stored_at=BASE)
        with CorpusStore(tmp_path) as s2:
            assert s2.ids("c") == {1, 2, 4, 5}
            assert s2.ids("c", probes=True) == {0, 3}
            with pytest.raises(UnknownCorpusError):
                s2.ids("nope")

    @pytest.mark.parametrize("stored_at", [5, "yesterday", None, "2013-09-01T00:00:00"])
    def test_open_reads_stored_at_strictly(self, tmp_path, stored_at):
        with CorpusStore(tmp_path) as s:
            for i in (1, 2, 3):
                s.append(make_tweet(i), "c", stored_at=BASE)
        change_second_row(tmp_path / "c.ndjson", storedAt=stored_at)
        with CorpusStore(tmp_path) as s2:  # the open reads no row; the corpus's first use does
            with pytest.raises(StoreError, match=r"c\.ndjson:2: .*storedAt"):
                s2.count("c")

    def test_scan_refuses_a_created_at_without_utc_offset(self, tmp_path):
        with CorpusStore(tmp_path) as s:
            for i in (1, 2, 3):
                s.append(make_tweet(i), "c", stored_at=BASE)
        change_second_row(tmp_path / "c.ndjson", createdAt="2013-09-01T00:00:02")
        with CorpusStore(tmp_path) as s2:
            with pytest.raises(StoreError, match=r"c\.ndjson:2: .*'createdAt': '2013-09-01T00:00:02' has no UTC offset"):
                s2.scan("c")

    @pytest.mark.parametrize("use", ["count", "ids", "dehydrate", "scan"])
    def test_ledger_refuses_a_created_at_without_utc_offset(self, tmp_path, use):
        # the rows a scan refuses are neither counted nor exported
        with CorpusStore(tmp_path) as s:
            for i in (1, 2, 3):
                s.append(make_tweet(i), "c", stored_at=BASE)
        change_second_row(tmp_path / "c.ndjson", createdAt="2013-09-01T00:00:02")
        with CorpusStore(tmp_path) as s2:
            with pytest.raises(StoreError, match=r"c\.ndjson:2: .*'createdAt': '2013-09-01T00:00:02' has no UTC offset"):
                if use == "dehydrate":
                    dehydrate(s2, "c", tmp_path / "c.ids")
                else:
                    getattr(s2, use)("c")
        assert not (tmp_path / "c.ids").exists()


class TestTornTail:
    """A crash can cut the last append short; only the final line may be torn."""

    def three_rows(self, tmp_path):
        with CorpusStore(tmp_path) as s:
            for i in (1, 2, 3):
                s.append(make_tweet(i), "c", stored_at=BASE)
        return tmp_path / "c.ndjson"

    def test_torn_final_line_is_cut_into_sidecar(self, tmp_path):
        path = self.three_rows(tmp_path)
        data = path.read_bytes()
        last_start = data.rindex(b"\n", 0, len(data) - 1) + 1
        path.write_bytes(data[:-40])  # the append of row 3 cut short
        with CorpusStore(tmp_path) as s:
            assert [r.tweet.id for r in s.scan("c")] == [1, 2]
            assert s.torn == {"c": len(data) - 40 - last_start}
            assert s.append(make_tweet(3), "c", stored_at=BASE) == "appended"
        assert path.read_bytes() == data
        assert (tmp_path / "c.ndjson.torn").read_bytes() == data[last_start:-40] + b"\n"
        with CorpusStore(tmp_path) as s2:
            assert s2.torn == {}
            assert s2.count("c") == 3

    def test_unterminated_final_line_that_parses_is_kept_and_terminated(self, tmp_path):
        path = self.three_rows(tmp_path)
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        with CorpusStore(tmp_path) as s:
            assert s.torn == {}
            assert s.count("c") == 3
            s.append(make_tweet(4), "c", stored_at=BASE)
        with CorpusStore(tmp_path) as s2:
            assert [r.tweet.id for r in s2.scan("c")] == [1, 2, 3, 4]

    def test_append_as_first_use_cuts_the_tail_before_writing(self, tmp_path):
        path = self.three_rows(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-40])
        with CorpusStore(tmp_path) as s:
            assert s.append(make_tweet(3), "c", stored_at=BASE) == "appended"
            assert s.torn == {"c": len(data) - 40 - (data.rindex(b"\n", 0, len(data) - 1) + 1)}
        assert path.read_bytes() == data

    def test_torn_line_met_on_a_reread_is_cut(self, tmp_path):
        path = self.three_rows(tmp_path)
        with open(path, "ab") as fh:
            fh.write(b'{"_id": 4')
        with CorpusStore(tmp_path) as s:
            assert len(s.scan("c")) == 3
            assert s.torn == {"c": 9}
            with open(path, "ab") as fh:  # another writer's append cut short
                fh.write(b'{"_id": 5, "x')
            assert [r.tweet.id for r in s.scan("c")] == [1, 2, 3]
            assert s.torn == {"c": 9 + 13}
            assert s.append(make_tweet(4), "c", stored_at=BASE) == "appended"
        assert (tmp_path / "c.ndjson.torn").read_bytes() == b'{"_id": 4\n{"_id": 5, "x\n'
        with CorpusStore(tmp_path) as s2:
            assert s2.count("c") == 4 and s2.torn == {}


class TestReread:
    """Every row read is the pass that refreshes the ledger."""

    def test_rows_another_writer_appended_are_counted_and_filtered(self, tmp_path):
        with CorpusStore(tmp_path) as s:
            s.append(make_tweet(1), "c", stored_at=BASE)
        with CorpusStore(tmp_path) as a, CorpusStore(tmp_path) as b:
            assert [r.tweet.id for r in a.scan("c")] == [1]
            b.append(make_tweet(2), "c", is_probe=True, stored_at=BASE + timedelta(days=2))
            b.append(make_tweet(3), "c", stored_at=BASE + timedelta(days=1))
            assert [r.tweet.id for r in a.scan("c")] == [1, 3]
            assert a.count("c") == 3
            assert a.ids("c", probes=True) == {2}
            assert dehydrate(a, "c", tmp_path / "c.ids") == 2
        assert (tmp_path / "c.ids").read_text(encoding="utf-8") == "# corpus:c generated:2013-09-02T00:00:00Z\n1\n3\n"


class TestFirstUse:
    """The open reads no row; a corpus's file is read when the corpus is first used."""

    @pytest.fixture
    def opened(self, tmp_path, monkeypatch):
        with CorpusStore(tmp_path) as s:
            for corpus in ("a", "b"):
                fill_store(s, 6, corpus)
        reads = []

        def recording(path, row):
            reads.append(path.name)
            return read_ndjson(path, row)

        monkeypatch.setattr("tweetcorpus.store.read_ndjson", recording)
        return reads

    def test_open_reads_nothing(self, tmp_path, opened):
        with CorpusStore(tmp_path) as s:
            assert s.corpora() == ["a", "b"]
        assert opened == []

    def test_scan_reads_its_corpus_once(self, tmp_path, opened):
        with CorpusStore(tmp_path) as s:
            assert len(s.scan("a")) == 6
            assert opened == ["a.ndjson"]
            assert s.count("a") == 6 and len(s.ids("a")) == 6
            assert dehydrate(s, "a", tmp_path / "a.ids") == 6
        assert opened == ["a.ndjson"]

    def test_count_reads_only_its_corpus(self, tmp_path, opened):
        with CorpusStore(tmp_path) as s:
            assert s.count("b") == s.count("b") == 6
        assert opened == ["b.ndjson"]

    def test_roster_dehydrate_reads_its_corpus_once(self, tmp_path, opened):
        with CorpusStore(tmp_path) as s:
            assert dehydrate(s, "a", tmp_path / "a.ids", roster_index={101: "K-001"}) == 6
        assert opened == ["a.ndjson"]
        assert (tmp_path / "a.ids").read_text(encoding="utf-8").startswith("# corpus:a generated:2013-09-01T00:00:05Z\n")


class TestPrivacyFilter:
    def test_keeps_only_roster_authors(self, tmp_path):
        roster = {101: "K-001", 102: "K-002"}
        with CorpusStore(tmp_path) as s:
            kept, dropped = 0, 0
            rng = random.Random(5)
            for i in range(100):
                uid = rng.choice([101, 102, 900, 901, 902])
                s.append(make_tweet(i, user_id=uid), "mixed", stored_at=BASE)
                if uid in roster:
                    kept += 1
            derived = privacy_filter(s, "mixed", roster)
            rows = s.scan(derived)
            assert len(rows) == kept
            assert all(r.tweet.user_id in roster for r in rows)

    def test_public_mention_of_candidate_excluded(self, tmp_path):
        roster = {101: "K-001"}
        with CorpusStore(tmp_path) as s:
            s.append(make_tweet(1, user_id=900, text="gut gemacht @candidate_one"), "c", stored_at=BASE)
            derived = privacy_filter(s, "c", roster)
            assert s.scan(derived) == []

    def test_candidate_only_corpus_is_identity(self, tmp_path):
        roster = {101: "K-001"}
        with CorpusStore(tmp_path) as s:
            for i in range(10):
                s.append(make_tweet(i, user_id=101), "c", stored_at=BASE)
            derived = privacy_filter(s, "c", roster)
            assert [r.tweet for r in s.scan(derived)] == [r.tweet for r in s.scan("c")]

    def test_probes_never_copied(self, tmp_path):
        roster = {101: "K-001"}
        with CorpusStore(tmp_path) as s:
            s.append(make_tweet(1, user_id=101), "c", is_probe=True, stored_at=BASE)
            s.append(make_tweet(2, user_id=101), "c", stored_at=BASE)
            derived = privacy_filter(s, "c", roster)
            assert [r.tweet.id for r in s.scan(derived, include_probes=True)] == [2]

    def test_empty_roster_refused(self, tmp_path):
        with CorpusStore(tmp_path) as s:
            s.append(make_tweet(1), "c", stored_at=BASE)
            with pytest.raises(StoreError, match="roster"):
                privacy_filter(s, "c", {})


def fill_store(s, n=120, corpus="c"):
    tweets = []
    for i in range(n):
        uid = 101 if i % 3 == 0 else 900 + (i % 7)
        t = make_tweet(1000 + i, user_id=uid)
        s.append(t, corpus, stored_at=BASE + timedelta(seconds=i))
        tweets.append(t)
    return tweets


class TestDehydrate:
    def test_row_count_unique_ids_ascending(self, tmp_path):
        with CorpusStore(tmp_path / "s") as s:
            fill_store(s, 120)
            n = dehydrate(s, "c", tmp_path / "c.ids")
        assert n == 120
        name, _, rows = read_dehydrated(tmp_path / "c.ids")
        assert name == "c"
        ids = [i for i, _ in rows]
        assert len(ids) == 120 and len(set(ids)) == 120
        assert ids == sorted(ids)

    def test_header_format(self, tmp_path):
        with CorpusStore(tmp_path / "s") as s:
            fill_store(s, 3)
            dehydrate(s, "c", tmp_path / "c.ids")
        first = (tmp_path / "c.ids").read_text(encoding="utf-8").splitlines()[0]
        assert re.fullmatch(r"# corpus:c generated:\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z", first)

    def test_candidate_annotation(self, tmp_path):
        with CorpusStore(tmp_path / "s") as s:
            fill_store(s, 9)
            dehydrate(s, "c", tmp_path / "c.ids", roster_index={101: "K-001"})
        _, _, rows = read_dehydrated(tmp_path / "c.ids")
        for tweet_id, cid in rows:
            assert cid == ("K-001" if (tweet_id - 1000) % 3 == 0 else None)

    def test_byte_identical_for_identical_stores(self, tmp_path):
        outs = []
        for k in ("a", "b"):
            with CorpusStore(tmp_path / k) as s:
                fill_store(s, 50)
                out = tmp_path / f"{k}.ids"
                dehydrate(s, "c", out)
                outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_probes_excluded(self, tmp_path):
        with CorpusStore(tmp_path / "s") as s:
            s.append(make_tweet(1), "c", is_probe=True, stored_at=BASE)
            s.append(make_tweet(2), "c", stored_at=BASE)
            assert dehydrate(s, "c", tmp_path / "c.ids") == 1

    def test_header_is_latest_non_probe_stored_at(self, tmp_path):
        with CorpusStore(tmp_path / "s") as s:
            s.append(make_tweet(1), "c", stored_at=BASE + timedelta(hours=2))
            s.append(make_tweet(2), "c", stored_at=datetime(2013, 9, 1, 3, tzinfo=timezone(timedelta(hours=2))))
            s.append(make_tweet(3), "c", is_probe=True, stored_at=BASE + timedelta(days=1))
            dehydrate(s, "c", tmp_path / "live.ids")
        with CorpusStore(tmp_path / "s") as s:
            dehydrate(s, "c", tmp_path / "reopened.ids")
        text = (tmp_path / "live.ids").read_text(encoding="utf-8")
        assert text == "# corpus:c generated:2013-09-01T02:00:00Z\n1\n2\n"
        assert (tmp_path / "reopened.ids").read_text(encoding="utf-8") == text

    def test_reads_no_row_without_roster(self, tmp_path, monkeypatch):
        with CorpusStore(tmp_path / "s") as s:
            fill_store(s, 5)
            s.append(make_tweet(1), "c", is_probe=True, stored_at=BASE + timedelta(days=1))

            def refuse(*_):
                raise AssertionError("a row was read")

            monkeypatch.setattr("tweetcorpus.store.read_ndjson", refuse)
            assert dehydrate(s, "c", tmp_path / "c.ids") == 5
        want = "# corpus:c generated:2013-09-01T00:00:04Z\n" + "".join(f"{1000 + i}\n" for i in range(5))
        assert (tmp_path / "c.ids").read_text(encoding="utf-8") == want

    def test_id_stored_twice_is_written_once(self, tmp_path):
        # two writers on one store, as two concurrent collect runs, both append tweet 1000
        with CorpusStore(tmp_path / "s") as a, CorpusStore(tmp_path / "s") as b:
            b.ensure_corpus("c")  # as collect run does first, so b's ledger of c is empty
            fill_store(a, 3)
            b.append(make_tweet(1000, user_id=101), "c", stored_at=BASE)
        with CorpusStore(tmp_path / "s") as s:
            for roster_index, out in ((None, "plain.ids"), ({101: "K-001"}, "roster.ids")):
                assert dehydrate(s, "c", tmp_path / out, roster_index=roster_index) == 3
                _, _, rows = read_dehydrated(tmp_path / out)
                assert [i for i, _ in rows] == [1000, 1001, 1002]

    def test_roster_path_reads_userid_strictly(self, tmp_path):
        with CorpusStore(tmp_path / "s") as s:
            fill_store(s, 3)
        change_second_row(tmp_path / "s" / "c.ndjson", userid="101")
        with CorpusStore(tmp_path / "s") as s:
            with pytest.raises(StoreError, match=r"c\.ndjson:2: .*userid"):
                dehydrate(s, "c", tmp_path / "c.ids", roster_index={101: "K-001"})

    def test_roster_path_refuses_a_created_at_without_utc_offset(self, tmp_path):
        with CorpusStore(tmp_path / "s") as s:
            fill_store(s, 3)
        change_second_row(tmp_path / "s" / "c.ndjson", createdAt="2013-09-01T00:00:02")
        with CorpusStore(tmp_path / "s") as s:
            with pytest.raises(StoreError, match=r"c\.ndjson:2: .*'createdAt': '2013-09-01T00:00:02' has no UTC offset"):
                dehydrate(s, "c", tmp_path / "c.ids", roster_index={101: "K-001"})
        assert not (tmp_path / "c.ids").exists()


class TestRehydrate:
    def test_round_trip_identity(self, tmp_path):
        with CorpusStore(tmp_path / "s") as s:
            tweets = fill_store(s, 40)
            dehydrate(s, "c", tmp_path / "c.ids")

        class Lookup:
            def fetch_tweets(self, ids):
                by_id = {t.id: t for t in tweets}
                return [by_id[i] for i in ids if i in by_id]

        result = rehydrate(tmp_path / "c.ids", Lookup())
        assert result.corpus == "c"
        assert result.missing_ids == ()
        assert {t.id for t in result.tweets} == {t.id for t in tweets}
        by_id = {t.id: t for t in tweets}
        for t in result.tweets:
            assert t == by_id[t.id]

    def test_five_deleted_ids_reported(self, tmp_path):
        with CorpusStore(tmp_path / "s") as s:
            tweets = fill_store(s, 40)
            dehydrate(s, "c", tmp_path / "c.ids")

        removed = {t.id for t in tweets[:5]}

        class PartialLookup:
            def fetch_tweets(self, ids):
                return [t for t in tweets if t.id in set(ids) and t.id not in removed]

        result = rehydrate(tmp_path / "c.ids", PartialLookup())
        assert set(result.missing_ids) == removed
        assert len(result.missing_ids) == 5
        assert len(result.tweets) == 35

    def test_malformed_row_has_line_number(self, tmp_path):
        p = tmp_path / "bad.ids"
        # an id is ASCII digits only: no underscore, sign, space or digit of another script
        for row in ["xyz", "1_000_001", "+1000002", " 1000003", "-5", "\u0661"]:
            p.write_text(f"# corpus:c generated:2013-09-01T00:00:00Z\n123\n{row}\n", encoding="utf-8")
            with pytest.raises(ParseError, match=r":3"):
                read_dehydrated(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.ids"
        p.write_text("123\n456\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r":1"):
            read_dehydrated(p)

    def test_bad_header_time_names_file_and_line(self, tmp_path):
        p = tmp_path / "bad.ids"
        p.write_text("# corpus:c generated:yesterday\n5\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"bad\.ids:1: header time .*'yesterday'"):
            read_dehydrated(p)

    def test_header_time_without_utc_offset_is_refused(self, tmp_path):
        p = tmp_path / "naive.ids"
        p.write_text("# corpus:c generated:2013-09-01T00:00:00\n5\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"naive\.ids:1: header time '2013-09-01T00:00:00' has no UTC offset"):
            read_dehydrated(p)

    def test_duplicate_id_rejected(self, tmp_path):
        p = tmp_path / "bad.ids"
        p.write_text("# corpus:c generated:2013-09-01T00:00:00Z\n5\n5\n", encoding="utf-8")
        with pytest.raises(ParseError, match="duplicate"):
            read_dehydrated(p)


