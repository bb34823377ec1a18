"""Tweet model: parsing, serialization, entity extraction, validation."""

import ast
import dataclasses
import json
import random
import re
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tweetcorpus
from tweetcorpus.errors import ConfigError, ParseError, SchemaError
from tweetcorpus.store import StoredTweet
from tweetcorpus.tweets import (
    HashtagEntity,
    MentionEntity,
    TweetRecord,
    extract_entities,
    json_field,
    json_line,
    json_value,
    object_list,
    parse_timestamp,
    parse_tweet,
    read_ndjson,
    serialize_tweet,
    validate,
)

# The published example row, frozen in canonical one-line form.  Its entity
# offsets are knowingly inconsistent with the printed text; validate must
# flag exactly that.
PUBLISHED_ROW = (
    '{"_id":446226137539444736,"userid":630340041,"screenName":"lkaczmirek",'
    '"createdAt":"2014-03-19T11:08:00Z",'
    '"tweettext":"@geis_org is offering #CES data, providing electoral data from around the world: https://t.co/phtZgGcljs",'
    '"hashtags":[{"start":23,"end":28,"text":"cses"}],'
    '"mentions":[{"start":0,"end":10,"id":145554242,"screenName":"geis_org","name":"GESIS"}]}'
)


def utc(*args):
    return datetime(*args, tzinfo=timezone.utc)


WORDS = ["wahl", "stimme", "debatte", "heute", "partei", "umfrage", "berlin", "thema"]
TAGS = ["wahl2013", "btw13", "merkel", "ltw", "piraten"]
NAMES = ["anna_m", "bob22", "cdu_person", "journo1"]


def make_random_record(rng: random.Random, tweet_id: int) -> TweetRecord:
    """Author a convention-conformant record with random optional metadata."""
    parts = rng.sample(WORDS, 3)
    if rng.random() < 0.7:
        parts.insert(rng.randrange(len(parts)), "#" + rng.choice(TAGS))
    if rng.random() < 0.5:
        parts.insert(rng.randrange(len(parts)), "@" + rng.choice(NAMES))
    url = "https://t.co/x{}".format(rng.randrange(1000)) if rng.random() < 0.3 else None
    if url:
        parts.append(url)
    text = " ".join(parts)
    hashtags, mentions = extract_entities(text)
    return TweetRecord(
        id=tweet_id,
        user_id=rng.randrange(1, 10**9),
        screen_name=rng.choice(NAMES),
        created_at=utc(2013, 6, 1) + timedelta(seconds=rng.randrange(10**7)),
        text=text,
        hashtags=hashtags,
        mentions=mentions,
        urls=(url,) if url else (),
        is_retweet=rng.random() < 0.2,
        reply_to_id=rng.randrange(1, 10**6) if rng.random() < 0.3 else None,
        geo=(52.52, 13.405, "DE") if rng.random() < 0.3 else None,
        language=rng.choice(["de", "en", None]),
        has_image=rng.random() < 0.1,
    )


class TestParse:
    def test_published_row_verbatim(self):
        t = parse_tweet(PUBLISHED_ROW)
        assert t.id == 446226137539444736
        assert t.user_id == 630340041
        assert t.screen_name == "lkaczmirek"
        assert t.created_at == utc(2014, 3, 19, 11, 8, 0)
        assert t.text.startswith("@geis_org is offering #CES data")
        assert t.hashtags == (HashtagEntity(start=23, end=28, text="cses"),)
        assert t.mentions == (
            MentionEntity(start=0, end=10, user_id=145554242, screen_name="geis_org", display_name="GESIS"),
        )

    def test_minimal_object_empty_entities(self):
        raw = json.dumps(
            {
                "_id": 1,
                "userid": 2,
                "screenName": "a",
                "createdAt": "2013-06-01T00:00:00Z",
                "tweettext": "hi",
                "hashtags": [],
                "mentions": [],
            }
        )
        t = parse_tweet(raw)
        assert t.hashtags == ()
        assert t.mentions == ()
        assert t.urls == ()
        assert t.is_retweet is False
        assert t.reply_to_id is None
        assert t.geo is None
        assert t.language is None
        assert t.has_image is False

    def test_missing_mandatory_attribute_named(self):
        raw = json.dumps(
            {"_id": 1, "userid": 2, "screenName": "a", "createdAt": "2013-06-01T00:00:00Z", "hashtags": [], "mentions": []}
        )
        with pytest.raises(SchemaError, match="tweettext"):
            parse_tweet(raw)

    def test_timestamp_needs_a_utc_offset(self):
        assert parse_timestamp("2013-09-01T02:00:00+02:00") == utc(2013, 9, 1)
        with pytest.raises(SchemaError, match=r"^'2013-09-01T00:00:00' has no UTC offset$"):
            parse_timestamp("2013-09-01T00:00:00")
        for value in ("yesterday", 5, None):
            with pytest.raises(SchemaError, match=r"^expected an ISO-8601 timestamp, got "):
                parse_timestamp(value)

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            parse_tweet("{not json")

    @pytest.mark.parametrize("change, named", [
        ({"_id": "7"}, "_id"), ({"_id": True}, "_id"), ({"userid": 1.9}, "userid"),
        ({"screenName": 5}, "screenName"), ({"tweettext": None}, "tweettext"),
        ({"isRetweet": "false"}, "isRetweet"), ({"hasImage": "no"}, "hasImage"), ({"isRetweet": None}, "isRetweet"),
        ({"replyToId": "3"}, "replyToId"), ({"lang": 5}, "lang"), ({"urls": [5]}, "urls"), ({"urls": "u"}, "urls"),
        ({"hashtags": {}}, "hashtags"), ({"hashtags": [{"start": "23", "end": 28, "text": "cses"}]}, "hashtags"),
        ({"mentions": [{"start": 0, "end": 10, "id": "145554242", "screenName": "geis_org"}]}, "mentions"),
        ({"geo": {"lat": "52.5", "lon": 13.4, "country": "DE"}}, "geo"),
        ({"geo": {"lat": 52.5, "lon": 13.4, "country": 49}}, "geo"),
        ({"hashtags": ["x"]}, "hashtags"), ({"mentions": [5]}, "mentions"), ({"geo": [52, 13]}, "geo"),
        ({"hashtags": [{}]}, "hashtags"), ({"mentions": [{"start": 0}]}, "mentions"), ({"geo": {"lat": 1}}, "geo"),
    ])
    def test_field_of_another_kind_is_refused_and_named(self, change, named):
        raw = json_line({**json.loads(PUBLISHED_ROW), **change})
        with pytest.raises(SchemaError, match=f"^field '{named}' must be"):
            parse_tweet(raw)

    def test_geo_integers_read_as_floats_and_null_optionals_as_absent(self):
        raw = json_line({**json.loads(PUBLISHED_ROW), "geo": {"lat": 52, "lon": 13, "country": "DE"},
                         "replyToId": None, "lang": None})
        t = parse_tweet(raw)
        assert t.geo == (52.0, 13.0, "DE") and all(type(v) is float for v in t.geo[:2])
        assert t.reply_to_id is None and t.language is None

    def test_unknown_attributes_ignored(self):
        raw = PUBLISHED_ROW[:-1] + ',"somethingElse":42}'
        assert parse_tweet(raw) == parse_tweet(PUBLISHED_ROW)


class TestSerialize:
    def test_published_row_byte_round_trip(self):
        t = parse_tweet(PUBLISHED_ROW)
        assert serialize_tweet(t) == PUBLISHED_ROW

    def test_no_optional_metadata_no_optional_keys(self):
        t = TweetRecord(id=1, user_id=2, screen_name="a", created_at=utc(2013, 6, 1), text="hi")
        obj = json.loads(serialize_tweet(t))
        assert set(obj) == {"_id", "userid", "screenName", "createdAt", "tweettext", "hashtags", "mentions"}

    def test_1000_generated_records_round_trip(self):
        # Field-by-field equality oracle over generated records.
        rng = random.Random(99)
        for i in range(1000):
            t = make_random_record(rng, i + 1)
            back = parse_tweet(serialize_tweet(t))
            assert back == t

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**63), st.data())
    def test_round_trip_property(self, seed, data):
        rng = random.Random(seed)
        t = make_random_record(rng, data.draw(st.integers(1, 2**62)))
        assert parse_tweet(serialize_tweet(t)) == t


RECORD_FIELDS = frozenset(f.name for cls in (TweetRecord, HashtagEntity, MentionEntity, StoredTweet)
                          for f in dataclasses.fields(cls))


def record_field_writes(source: str) -> list[int]:
    """Lines of ``source`` that set or delete a record field name on anything
    but ``self``: by assignment, ``setattr``, ``delattr`` or a ``__setattr__``
    call (a name that is not a literal counts, as it may be a field's)."""
    def attributes(target):
        if isinstance(target, (ast.Tuple, ast.List)):
            return [a for t in target.elts for a in attributes(t)]
        if isinstance(target, ast.Starred):
            return attributes(target.value)
        return [target] if isinstance(target, ast.Attribute) else []

    def not_self(node):
        return not (isinstance(node, ast.Name) and node.id == "self")

    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For)):
            targets = [node.target]
        else:
            targets = []
        lines += [a.lineno for t in targets for a in attributes(t)
                  if a.attr in RECORD_FIELDS and not_self(a.value)]
        if isinstance(node, ast.Call) and len(node.args) >= 2 and (
                isinstance(node.func, ast.Name) and node.func.id in ("setattr", "delattr")
                or isinstance(node.func, ast.Attribute) and node.func.attr == "__setattr__"):
            name = node.args[1]
            literal = isinstance(name, ast.Constant) and isinstance(name.value, str)
            if not_self(node.args[0]) and (not literal or name.value in RECORD_FIELDS):
                lines.append(node.lineno)
    return lines


class TestRecords:
    """Records are plain slotted dataclasses: mutable by type, so the package
    must never set a field of one after construction."""

    def test_records_are_slotted_unhashable_and_equal_by_value(self):
        t = TweetRecord(id=1, user_id=2, screen_name="a", created_at=utc(2013, 6, 1), text="hi")
        assert not hasattr(t, "__dict__")
        with pytest.raises(TypeError):
            hash(t)
        assert dataclasses.replace(t) == t and dataclasses.replace(t, text="ho") != t

    @pytest.mark.parametrize("source", [
        "t.text = 'x'",
        "a, (row.tweet, b) = 1, (2, 3)",
        "t.hashtags += ()",
        "m.start: int = 0",
        "del t.geo",
        "for t.id in ids: pass",
        "setattr(t, 'urls', ())",
        "object.__setattr__(t, 'id', 1)",
        "setattr(t, name, value)",
    ])
    def test_check_finds_a_record_field_set_on_another_object(self, source):
        assert record_field_writes(source) == [1]

    @pytest.mark.parametrize("source", [
        "self.hashtags = ()",
        "object.__setattr__(self, 'hashtags', tuple(self.hashtags))",
        "object.__setattr__(self, name, frozenset(getattr(self, name)))",
        "t.other = 1",
        "setattr(t, 'other', 1)",
        "x = t.text",
    ])
    def test_check_allows_self_and_other_names(self, source):
        assert record_field_writes(source) == []

    def test_no_package_module_sets_a_record_field(self):
        found = {path.name: lines for path in sorted(Path(tweetcorpus.__file__).parent.glob("*.py"))
                 if (lines := record_field_writes(path.read_text(encoding="utf-8")))}
        assert found == {}


class TestExtractEntities:
    def test_hand_counted_offsets(self):
        hashtags, mentions = extract_entities("vote #wahl2013 now")
        assert hashtags == (HashtagEntity(start=5, end=14, text="wahl2013"),)
        assert mentions == ()

    def test_empty_text(self):
        assert extract_entities("") == ((), ())

    def test_duplicate_mentions_preserved(self):
        _, mentions = extract_entities("@a @a")
        assert [(m.start, m.end, m.screen_name) for m in mentions] == [(0, 2, "a"), (3, 5, "a")]

    def test_account_registry_resolves_ids(self):
        _, mentions = extract_entities("cc @Anna_M", accounts={"anna_m": (77, "Anna M.")})
        assert mentions[0].user_id == 77
        assert mentions[0].display_name == "Anna M."
        assert mentions[0].screen_name == "Anna_M"

    def test_bare_marker_ignored(self):
        assert extract_entities("# @ nothing") == ((), ())

    def test_entities_ordered_and_disjoint(self):
        rng = random.Random(5)
        for i in range(200):
            t = make_random_record(rng, i + 1)
            spans = sorted(
                [(h.start, h.end) for h in t.hashtags] + [(m.start, m.end) for m in t.mentions]
            )
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert e1 <= s2


class TestValidate:
    def test_authored_record_is_clean(self):
        rng = random.Random(7)
        for i in range(300):
            assert validate(make_random_record(rng, i + 1)) == []

    def test_published_row_flagged_exactly(self):
        t = parse_tweet(PUBLISHED_ROW)
        issues = [(i.field, i.kind) for i in validate(t)]
        assert issues == [
            ("hashtags[0]", "marker-missing"),
            ("hashtags[0]", "slice-mismatch"),
            ("mentions[0]", "slice-mismatch"),
        ]

    def test_offset_out_of_range(self):
        t = TweetRecord(
            id=1,
            user_id=2,
            screen_name="a",
            created_at=utc(2013, 6, 1),
            text="short",
            hashtags=(HashtagEntity(start=2, end=99, text="x"),),
        )
        issues = validate(t)
        assert [(i.field, i.kind) for i in issues] == [("hashtags[0]", "offset-out-of-range")]

    def test_naive_timestamp_is_refused(self):
        # a time without a UTC offset never reaches validate: parsing refuses it, naming the field
        with pytest.raises(SchemaError, match=r"^field 'createdAt': '2014-03-19T11:08:00' has no UTC offset$"):
            parse_tweet(PUBLISHED_ROW.replace("11:08:00Z", "11:08:00"))

    def test_case_insensitive_slice_ok(self):
        text = "go #WAHL2013"
        t = TweetRecord(
            id=1,
            user_id=2,
            screen_name="a",
            created_at=utc(2013, 6, 1),
            text=text,
            hashtags=(HashtagEntity(start=3, end=12, text="wahl2013"),),
        )
        assert validate(t) == []

    def test_validate_does_not_mutate(self):
        t = parse_tweet(PUBLISHED_ROW)
        before = serialize_tweet(t)
        validate(t)
        assert serialize_tweet(t) == before


class TestLineFiles:
    def test_blank_lines_skipped_and_bad_line_named(self, tmp_path):
        path = tmp_path / "rows.ndjson"
        path.write_bytes(b'{"a":1}\n\n  \r\n{"a":"\xe2\x80\xa8"}\n{"b":2}\n{"a":3}\n')
        rows = read_ndjson(path, lambda obj: obj["a"])
        assert [next(rows), next(rows)] == [1, "\u2028"]
        with pytest.raises(ParseError, match=re.escape(f"{path}:5: ") + ".*KeyError") as exc:
            next(rows)
        assert exc.value.torn_at is None

    def test_unterminated_final_line_that_is_not_json_reports_its_offset(self, tmp_path):
        path = tmp_path / "rows.ndjson"
        path.write_bytes(b'{"a":1}\n{"a":')
        with pytest.raises(ParseError, match=re.escape(f"{path}:2:")) as exc:
            list(read_ndjson(path, dict))
        assert exc.value.torn_at == 8


class TestConfigValues:
    @pytest.mark.parametrize("value, kind", [
        (True, int), (False, float), (1, bool), ("true", bool), ("3", int), (2.7, int),
        ("abc", dict), ("abc", [str]), ([5], [str]), ({}, [str]), (None, str),
        (["de"], (str, float)), (["de", 1, 2], (str, float)),
        ("2013-09-01T00:00:00", datetime), ("gestern", datetime), (5, datetime),
    ])
    def test_wrong_kind_is_refused_and_named(self, value, kind):
        with pytest.raises(ConfigError, match=r"^field 'k'"):
            json_field({"k": value}, "k", kind)

    def test_int_is_read_as_float(self):
        value = json_value(3, float, "rate")
        assert value == 3.0 and type(value) is float
        assert json_value(["de", 1], (str, float), "mix") == ("de", 1.0)

    def test_values_of_the_kind_pass_unchanged(self):
        assert json_value(["a", "b"], [str], "tags") == ("a", "b")
        assert json_value(False, bool, "flag") is False
        assert json_value("2013-09-01T00:00:00Z", datetime, "at") == datetime(2013, 9, 1, tzinfo=timezone.utc)
        assert json_value("2013-09-01T02:00:00+02:00", datetime, "at") == datetime(2013, 9, 1, tzinfo=timezone.utc)

    def test_absent_key_gives_the_default_or_is_named(self):
        assert json_field({}, "k", int, 7) == 7
        assert json_field({}, "k", int, None) is None
        with pytest.raises(ConfigError, match="field 'k' is missing"):
            json_field({}, "k", int)

    def test_built_entries_name_the_entry_and_key(self):
        def entry(obj):
            return json_field(obj, "n", int), json_field(obj, "tags", [str], ())
        assert object_list({"xs": [{"n": 1}]}, "xs", "doc", entry) == [(1, ())]
        with pytest.raises(ConfigError, match=r"^doc xs\[1\]: field 'tags'\[0\] must be a string, got 5$"):
            object_list({"xs": [{"n": 1}, {"n": 2, "tags": [5]}]}, "xs", "doc", entry)
        with pytest.raises(ConfigError, match=r"^doc xs\[0\]: KeyError"):
            object_list({"xs": [{}]}, "xs", "doc", lambda obj: obj["n"])

    def test_a_builder_refuses_keys_it_does_not_read(self):
        def entry(obj):
            return json_field(obj, "n", int), json_field(obj, "tags", [str], ())
        with pytest.raises(ConfigError, match=r"^doc xs\[0\]: unknown field 'tag', 'x'$"):
            object_list({"xs": [{"n": 1, "tag": ["a"], "x": 0}]}, "xs", "doc", entry)
        with pytest.raises(ConfigError, match=r"^outer: field 'inner': unknown field 'm'$"):
            json_value({"inner": {"n": 1, "m": 2}}, lambda obj: json_field(obj, "inner", entry), "outer")
        assert json_value({"n": 1}, lambda obj: obj.get("n"), "doc") == 1

    def test_every_entry_problem_is_reported(self):
        with pytest.raises(ConfigError, match=r"^doc xs\[0\]: .*'n' is missing; doc xs\[2\]: .*'n' must be"):
            object_list({"xs": [{}, {"n": 1}, {"n": "2"}]}, "xs", "doc", lambda obj: json_field(obj, "n", int))
