"""Corpus definitions, matching semantics, sampler, compilation, config."""

import hashlib
import json
import random
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tweetcorpus import sim
from tweetcorpus.corpus import (
    AccountQuery,
    CorpusDefinition,
    KeywordQuery,
    MetadataQuery,
    RandomSampleQuery,
    StreamQuery,
    TermSet,
    TimeWindow,
    compile_query,
    load_corpus_config,
    matches,
    sample_decision,
    term_in_text,
)
from tweetcorpus.errors import ConfigError
from tweetcorpus.tweets import TweetRecord, extract_entities


def utc(*args):
    return datetime(*args, tzinfo=timezone.utc)


WINDOW = TimeWindow(start=utc(2013, 6, 1), end=utc(2013, 10, 1))

CANDIDATES = [(101, "anna_m"), (102, "bob22"), (103, "cdu_person"), (104, "journo1")]
PUBLIC = [(501, "zuschauer1"), (502, "leser2"), (503, "gast3")]
REGISTRY = {name: (uid, name.title()) for uid, name in CANDIDATES + PUBLIC}
TAGS = ["wahl2013", "btw13", "merkel", "piraten", "anna_m"]
WORDS = ["stimme", "debatte", "heute", "umfrage", "berlin", "koalition", "merkel", "wahl"]


def make_tweet(rng: random.Random, tweet_id: int) -> TweetRecord:
    """Random convention-conformant record exercising every matching route."""
    author_id, author_name = rng.choice(CANDIDATES + PUBLIC)
    parts = rng.sample(WORDS, rng.randrange(2, 5))
    if rng.random() < 0.5:
        parts.insert(rng.randrange(len(parts) + 1), "#" + rng.choice(TAGS))
    if rng.random() < 0.4:
        _, mentioned = rng.choice(CANDIDATES + PUBLIC)
        parts.insert(rng.randrange(len(parts) + 1), "@" + mentioned)
    if rng.random() < 0.1:
        parts.append("angela merkel")
    url = f"https://t.co/g{rng.randrange(999)}" if rng.random() < 0.3 else None
    if url:
        parts.append(url)
    text = " ".join(parts)
    hashtags, mentions = extract_entities(text, accounts=REGISTRY)
    return TweetRecord(
        id=tweet_id,
        user_id=author_id,
        screen_name=author_name,
        created_at=utc(2013, 5, 1) + timedelta(seconds=rng.randrange(16_000_000)),
        text=text,
        hashtags=hashtags,
        mentions=mentions,
        urls=(url,) if url else (),
        is_retweet=rng.random() < 0.2,
        reply_to_id=rng.randrange(1, 10**6) if rng.random() < 0.25 else None,
        geo=rng.choice([(52.5, 13.4, "DE"), (48.9, 2.35, "FR"), None]),
        language=rng.choice(["de", "en", None]),
        has_image=rng.random() < 0.15,
    )


# --- independent oracle ----------------------------------------------------
# Re-derived from the documented semantics, sharing no helpers with the
# package: its own tokenizer, its own window logic, plain loops throughout.

def _oracle_tokens(text):
    tokens, cur = [], []
    for ch in text.lower():
        if ch.isalnum() or ch == "_":
            cur.append(ch)
        elif cur:
            tokens.append("".join(cur))
            cur = []
    if cur:
        tokens.append("".join(cur))
    return tokens


def _oracle_in_window(w, dt):
    return w.start <= dt < w.end


def _oracle_meta(q, t):
    if q.country is not None and (t.geo is None or t.geo[2].lower() != q.country.lower()):
        return False
    if q.time_window is not None and not _oracle_in_window(q.time_window, t.created_at):
        return False
    if q.languages is not None and (t.language is None or t.language.lower() not in {x.lower() for x in q.languages}):
        return False
    if "retweets_only" in q.format and not t.is_retweet:
        return False
    if "must_have_url" in q.format and len(t.urls) == 0:
        return False
    if "must_have_image" in q.format and not t.has_image:
        return False
    return True


def oracle_matches(t, d):
    if not _oracle_in_window(d.window, t.created_at):
        return False
    s = d.strategy
    if isinstance(s, AccountQuery):
        ids, names = set(), set()
        for uid, name in s.accounts:
            ids.add(uid)
            names.add(name.lower())
        hit = t.user_id in ids
        blocked = (t.is_retweet or t.reply_to_id is not None) and not s.include_retweets_and_replies
        if not hit and not blocked:
            if s.match_mentions:
                for m in t.mentions:
                    if m.user_id in ids or m.screen_name.lower() in names:
                        hit = True
            if s.match_name_hashtag:
                for h in t.hashtags:
                    if h.text.lower() in names:
                        hit = True
        if not hit:
            return False
    elif isinstance(s, KeywordQuery):
        tagged = False
        for h in t.hashtags:
            if h.text.lower() in s.hashtags:
                tagged = True
        termed = False
        hay = _oracle_tokens(t.text)
        for term in s.terms:
            needle = _oracle_tokens(term)
            for i in range(len(hay) - len(needle) + 1):
                if hay[i : i + len(needle)] == needle:
                    termed = True
        if not tagged and not termed:
            return False
    elif isinstance(s, MetadataQuery):
        if not _oracle_meta(s, t):
            return False
    else:
        digest = hashlib.blake2b(f"{t.id}:{s.seed}".encode(), digest_size=8).digest()
        if int.from_bytes(digest, "big") >= int(s.rate * 2**64):
            return False
    if d.extra_metadata is not None and not _oracle_meta(d.extra_metadata, t):
        return False
    return True


DEFINITIONS = [
    CorpusDefinition("cand", AccountQuery(accounts=tuple(CANDIDATES)), WINDOW),
    CorpusDefinition(
        "cand-strict",
        AccountQuery(accounts=tuple(CANDIDATES), include_retweets_and_replies=False),
        WINDOW,
    ),
    CorpusDefinition(
        "cand-authored-mentioned",
        AccountQuery(accounts=tuple(CANDIDATES), match_name_hashtag=False),
        WINDOW,
    ),
    CorpusDefinition(
        "cand-authored-only",
        AccountQuery(accounts=tuple(CANDIDATES), match_mentions=False, match_name_hashtag=False),
        WINDOW,
    ),
    CorpusDefinition("election", KeywordQuery(hashtags=("wahl2013", "btw13")), WINDOW),
    CorpusDefinition("chancellor", KeywordQuery(terms=("merkel", "angela merkel")), WINDOW),
    CorpusDefinition(
        "domestic-de",
        MetadataQuery(country="DE", languages=frozenset({"de"})),
        WINDOW,
    ),
    CorpusDefinition("rt-with-url", MetadataQuery(format=frozenset({"retweets_only", "must_have_url"})), WINDOW),
    CorpusDefinition("thin-sample", RandomSampleQuery(rate=0.1, seed=7), WINDOW),
    CorpusDefinition(
        "cand-de",
        AccountQuery(accounts=tuple(CANDIDATES)),
        WINDOW,
        extra_metadata=MetadataQuery(languages=frozenset({"de"})),
    ),
]


class TestMatcherAgainstOracle:
    def test_matched_sets_equal_for_every_definition(self):
        rng = random.Random(20130922)
        tweets = [make_tweet(rng, 1000 + i) for i in range(2000)]
        for d in DEFINITIONS:
            got = {t.id for t in tweets if matches(t, d)}
            want = {t.id for t in tweets if oracle_matches(t, d)}
            assert got == want, f"corpus {d.name}: {got ^ want}"

    def test_every_route_is_exercised(self):
        # Guard against a generator drift that would hollow out the oracle test.
        rng = random.Random(20130922)
        tweets = [make_tweet(rng, 1000 + i) for i in range(2000)]
        for d in DEFINITIONS:
            n = sum(matches(t, d) for t in tweets)
            assert 0 < n < len(tweets), f"corpus {d.name} matched {n}"


class TestWindow:
    def test_start_inclusive_end_exclusive(self):
        w = TimeWindow(start=utc(2013, 6, 1), end=utc(2013, 6, 2))
        assert w.contains(utc(2013, 6, 1))
        assert w.contains(utc(2013, 6, 1, 23, 59, 59))
        assert not w.contains(utc(2013, 6, 2))
        assert not w.contains(utc(2013, 5, 31, 23, 59, 59))

    def test_inverted_window_rejected(self):
        with pytest.raises(ConfigError):
            TimeWindow(start=utc(2013, 6, 2), end=utc(2013, 6, 1))


def simple_tweet(tweet_id=1, user_id=999, text="hello", **kw):
    hashtags, mentions = extract_entities(text, accounts=REGISTRY)
    defaults = dict(
        id=tweet_id,
        user_id=user_id,
        screen_name="someone",
        created_at=utc(2013, 7, 1, 12),
        text=text,
        hashtags=hashtags,
        mentions=mentions,
    )
    defaults.update(kw)
    return TweetRecord(**defaults)


class TestAccountStrategy:
    Q = AccountQuery(accounts=((101, "anna_m"),))

    def d(self, q):
        return CorpusDefinition("x", q, WINDOW)

    def test_authored(self):
        assert matches(simple_tweet(user_id=101), self.d(self.Q))

    def test_mention_by_name_any_case(self):
        t = simple_tweet(text="cc @Anna_M bitte lesen")
        assert matches(t, self.d(self.Q))

    def test_mention_by_id_when_name_changed(self):
        q = AccountQuery(accounts=((101, "old_handle"),))
        t = simple_tweet(text="cc @anna_m bitte lesen")
        assert t.mentions[0].user_id == 101
        assert matches(t, self.d(q))

    def test_name_as_hashtag(self):
        assert matches(simple_tweet(text="heute #anna_m im tv"), self.d(self.Q))

    def test_name_in_plain_text_does_not_match(self):
        assert not matches(simple_tweet(text="anna_m sagt hallo"), self.d(self.Q))

    def test_strict_blocks_retweeted_mention_but_not_authored_retweet(self):
        q = AccountQuery(accounts=((101, "anna_m"),), include_retweets_and_replies=False)
        rt_mention = simple_tweet(text="RT klasse @anna_m", is_retweet=True)
        reply_mention = simple_tweet(text="@anna_m stimmt", reply_to_id=77)
        own_rt = simple_tweet(user_id=101, text="RT irgendwas", is_retweet=True)
        assert not matches(rt_mention, self.d(q))
        assert not matches(reply_mention, self.d(q))
        assert matches(own_rt, self.d(q))

    def test_outside_window(self):
        assert not matches(simple_tweet(user_id=101, created_at=utc(2014, 1, 1)), self.d(self.Q))

    def test_empty_account_list_rejected(self):
        with pytest.raises(ConfigError):
            AccountQuery(accounts=())

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigError):
            AccountQuery(accounts=((101, "a"), (101, "b")))

    def test_id_and_name_sets_built_once_and_fresh_after_replace(self):
        q = AccountQuery(accounts=((101, "Anna_M"),))
        assert q.user_ids is q.user_ids and q.names_lower is q.names_lower
        wider = replace(q, accounts=q.accounts + ((102, "Bert"),))
        assert wider.user_ids == {101, 102} and wider.names_lower == {"anna_m", "bert"}
        assert q.user_ids == {101} and q == AccountQuery(accounts=((101, "Anna_M"),))


class TestKeywordStrategy:
    def d(self, q):
        return CorpusDefinition("x", q, WINDOW)

    def test_hashtag_entity_any_case(self):
        q = KeywordQuery(hashtags=("Wahl2013",))
        assert q.hashtags == ("wahl2013",)
        assert matches(simple_tweet(text="auf gehts #WAHL2013"), self.d(q))

    def test_plain_word_is_not_a_hashtag_match(self):
        q = KeywordQuery(hashtags=("wahl2013",))
        assert not matches(simple_tweet(text="wahl2013 wird spannend"), self.d(q))

    def test_term_whole_token(self):
        q = KeywordQuery(terms=("wahl",))
        assert matches(simple_tweet(text="die Wahl naht"), self.d(q))
        assert not matches(simple_tweet(text="wahlkampf ohne ende"), self.d(q))

    def test_term_matches_inside_hashtag_token(self):
        # '#merkel' tokenizes to 'merkel'; a term may hit it.
        q = KeywordQuery(terms=("merkel",))
        assert matches(simple_tweet(text="zu #merkel nichts neues"), self.d(q))

    def test_multiword_term_consecutive(self):
        q = KeywordQuery(terms=("angela merkel",))
        assert matches(simple_tweet(text="heute: Angela Merkel im Interview"), self.d(q))
        assert not matches(simple_tweet(text="angela und spaeter merkel"), self.d(q))

    def test_punctuation_boundaries(self):
        q = KeywordQuery(terms=("merkel",))
        assert matches(simple_tweet(text="Merkel, die Kanzlerin."), self.d(q))

    def test_empty_query_rejected(self):
        with pytest.raises(ConfigError):
            KeywordQuery()


class TestMetadataStrategy:
    def d(self, q, **kw):
        return CorpusDefinition("x", q, WINDOW, **kw)

    def test_country(self):
        q = MetadataQuery(country="DE")
        assert matches(simple_tweet(geo=(52.5, 13.4, "DE")), self.d(q))
        assert not matches(simple_tweet(geo=(48.9, 2.3, "FR")), self.d(q))
        assert not matches(simple_tweet(), self.d(q))

    def test_languages(self):
        q = MetadataQuery(languages=frozenset({"de", "en"}))
        assert matches(simple_tweet(language="de"), self.d(q))
        assert not matches(simple_tweet(language="fr"), self.d(q))
        assert not matches(simple_tweet(), self.d(q))

    def test_format_flags_conjunctive(self):
        q = MetadataQuery(format=frozenset({"retweets_only", "must_have_url"}))
        both = simple_tweet(is_retweet=True, urls=("https://t.co/a",))
        assert matches(both, self.d(q))
        assert not matches(simple_tweet(is_retweet=True), self.d(q))
        assert not matches(simple_tweet(urls=("https://t.co/a",)), self.d(q))

    def test_must_have_image(self):
        q = MetadataQuery(format=frozenset({"must_have_image"}))
        assert matches(simple_tweet(has_image=True), self.d(q))
        assert not matches(simple_tweet(), self.d(q))

    def test_nested_time_window(self):
        inner = TimeWindow(start=utc(2013, 7, 1), end=utc(2013, 7, 2))
        q = MetadataQuery(time_window=inner)
        assert matches(simple_tweet(created_at=utc(2013, 7, 1, 12)), self.d(q))
        assert not matches(simple_tweet(created_at=utc(2013, 8, 1)), self.d(q))

    def test_extra_metadata_narrows_account_corpus(self):
        d = CorpusDefinition(
            "x",
            AccountQuery(accounts=((101, "anna_m"),)),
            WINDOW,
            extra_metadata=MetadataQuery(languages=frozenset({"de"})),
        )
        assert matches(simple_tweet(user_id=101, language="de"), d)
        assert not matches(simple_tweet(user_id=101, language="en"), d)

    def test_unknown_flag_rejected(self):
        with pytest.raises(ConfigError):
            MetadataQuery(format=frozenset({"no_such_flag"}))

    def test_unconstrained_rejected(self):
        with pytest.raises(ConfigError):
            MetadataQuery()


class TestSampler:
    def test_deterministic(self):
        assert sample_decision(12345, 0.25, 7) == sample_decision(12345, 0.25, 7)

    def test_calibration_100k_ids(self):
        n = sum(sample_decision(i, 0.25, 7) for i in range(1, 100_001))
        assert n == 24993  # frozen from first computation
        assert abs(n / 100_000 - 0.25) <= 0.01

    def test_seed_changes_selection(self):
        a = {i for i in range(1, 2001) if sample_decision(i, 0.25, 1)}
        b = {i for i in range(1, 2001) if sample_decision(i, 0.25, 2)}
        assert a != b

    def test_rate_monotone(self):
        low = {i for i in range(1, 5001) if sample_decision(i, 0.1, 7)}
        high = {i for i in range(1, 5001) if sample_decision(i, 0.3, 7)}
        assert low <= high

    def test_rate_one_accepts_all(self):
        assert all(sample_decision(i, 1.0, 0) for i in range(1, 200))

    def test_bad_rate(self):
        with pytest.raises(ConfigError):
            sample_decision(1, 0.0, 0)
        with pytest.raises(ConfigError):
            RandomSampleQuery(rate=1.5, seed=0)


class TestCompile:
    def test_account_query_follows_and_tracks(self):
        d = CorpusDefinition("c", AccountQuery(accounts=((101, "Anna_M"), (102, "bob22"))), WINDOW)
        q = compile_query(d)
        assert q == StreamQuery(follow_ids=(101, 102), track_terms=("anna_m", "bob22"))

    def test_keyword_query_tracks_tags_and_terms(self):
        d = CorpusDefinition("c", KeywordQuery(hashtags=("Wahl2013",), terms=("Merkel",)), WINDOW)
        q = compile_query(d)
        assert q == StreamQuery(track_terms=("#wahl2013", "merkel"))

    def test_metadata_and_random_use_sample_stream(self):
        m = CorpusDefinition("m", MetadataQuery(country="DE"), WINDOW)
        r = CorpusDefinition("r", RandomSampleQuery(rate=0.5, seed=1), WINDOW)
        assert compile_query(m) == StreamQuery(sample=True)
        assert compile_query(r) == StreamQuery(sample=True)

    def test_subscription_never_underdelivers(self):
        # Everything the matcher accepts must pass the source's delivery
        # rule (``sim._delivers``, the code the simulator ships), including
        # the multi-word terms of "chancellor" and "angela".
        rng = random.Random(99)
        tweets = [make_tweet(rng, 5000 + i) for i in range(1500)]
        author_of = {t.id: t.user_id for t in tweets}
        author_of.update((t.reply_to_id, rng.choice(CANDIDATES + PUBLIC)[0]) for t in tweets if t.reply_to_id)
        angela = CorpusDefinition("angela", KeywordQuery(terms=("Angela Merkel",)), WINDOW)
        for d in DEFINITIONS + [angela]:
            q = compile_query(d)
            accepted = [t for t in tweets if matches(t, d)]
            assert accepted, d.name
            for t in accepted:
                assert sim._delivers(q, t, author_of), (d.name, t.text)

    def test_compiled_sets_built_once_and_fields_unchanged(self):
        q = compile_query(CorpusDefinition("c", AccountQuery(accounts=((102, "Bob22"), (101, "anna_m"))), WINDOW))
        assert q.followed is q.followed and q.followed == {101, 102}
        assert q.term_set is q.term_set and q.term_set == TermSet(frozenset({"anna_m", "bob22"}), ())
        assert q == StreamQuery(follow_ids=(102, 101), track_terms=("bob22", "anna_m"))
        k = KeywordQuery(hashtags=("wahl2013",), terms=("Merkel", "angela  merkel", "!!!"))
        assert k.term_set is k.term_set
        assert k.term_set == TermSet(frozenset({"merkel"}), (("angela  merkel", frozenset({"angela", "merkel"})),))


# Pieces that glue into texts and terms where tokenization is subtle:
# hashtags, mentions, punctuation, underscores, case, non-ASCII word
# characters, digits, and tokens that repeat.
PIECES = ["wahl", "WAHL", "Wahl", "merkel", "angela", "btw_13", "_", "#", "@", "!!!", "-", ".", ",",
          "über", "ÜBER", "straße", "2013", "é", "İ", "ß", "\u00a0", " ", " ", " ", "\n"]
glued = st.lists(st.sampled_from(PIECES), max_size=10).map("".join)


class TestTermSet:
    @settings(max_examples=400, deadline=None)
    @given(glued | st.text(max_size=20), st.lists(glued | st.text(max_size=6), max_size=6))
    def test_found_in_equals_the_reference(self, text, terms):
        want = any(term_in_text(term, text) for term in terms)
        assert TermSet.compile(terms).found_in(text) == want

    @pytest.mark.parametrize("terms, text, want", [
        (("angela merkel",), "Merkel, Angela", False),
        (("angela merkel",), "ANGELA-merkel!", True),
        (("wahl wahl",), "wahl und wahl", False),
        (("wahl wahl",), "#wahl wahl", True),
        (("!!!",), "!!!", False),
        (("#btw_13",), "btw_13!", True),
        (("über",), "ÜBERall über", True),
    ])
    def test_examples(self, terms, text, want):
        assert TermSet.compile(terms).found_in(text) is want
        assert any(term_in_text(term, text) for term in terms) is want


class TestConfigLoading:
    GOOD = {
        "corpora": [
            {
                "name": "candidates",
                "window": {"start": "2013-06-01T00:00:00Z", "end": "2013-10-01T00:00:00Z"},
                "strategy": {
                    "kind": "accounts",
                    "accounts": [{"id": 101, "screenName": "anna_m"}],
                    "includeRetweetsAndReplies": False,
                },
            },
            {
                "name": "election",
                "window": {"start": "2013-06-01T00:00:00Z", "end": "2013-10-01T00:00:00Z"},
                "strategy": {"kind": "keywords", "hashtags": ["wahl2013", "btw13"]},
                "metadata": {"languages": ["de"]},
            },
            {
                "name": "thin",
                "window": {"start": "2013-06-01T00:00:00Z", "end": "2013-10-01T00:00:00Z"},
                "strategy": {"kind": "random", "rate": 0.1, "seed": 3},
            },
        ]
    }

    def write(self, tmp_path, doc):
        p = tmp_path / "corpora.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        return p

    def test_good_config(self, tmp_path):
        defs = load_corpus_config(self.write(tmp_path, self.GOOD))
        assert [d.name for d in defs] == ["candidates", "election", "thin"]
        assert isinstance(defs[0].strategy, AccountQuery)
        assert defs[0].strategy.include_retweets_and_replies is False
        assert defs[1].extra_metadata.languages == frozenset({"de"})
        assert isinstance(defs[2].strategy, RandomSampleQuery)

    def test_duplicate_names(self, tmp_path):
        doc = json.loads(json.dumps(self.GOOD))
        doc["corpora"][1]["name"] = "candidates"
        with pytest.raises(ConfigError, match="duplicate"):
            load_corpus_config(self.write(tmp_path, doc))

    def test_empty_accounts_reported_with_corpus_and_field(self, tmp_path):
        doc = json.loads(json.dumps(self.GOOD))
        doc["corpora"][0]["strategy"]["accounts"] = []
        with pytest.raises(ConfigError, match=r"candidates.*strategy.*empty") as exc:
            load_corpus_config(self.write(tmp_path, doc))
        assert "candidates" in str(exc.value)

    def test_inverted_window_named(self, tmp_path):
        doc = json.loads(json.dumps(self.GOOD))
        doc["corpora"][2]["window"] = {"start": "2013-10-01T00:00:00Z", "end": "2013-06-01T00:00:00Z"}
        with pytest.raises(ConfigError, match="thin"):
            load_corpus_config(self.write(tmp_path, doc))

    def test_unknown_kind(self, tmp_path):
        doc = json.loads(json.dumps(self.GOOD))
        doc["corpora"][0]["strategy"] = {"kind": "firehose"}
        with pytest.raises(ConfigError, match="firehose"):
            load_corpus_config(self.write(tmp_path, doc))

    @pytest.mark.parametrize("index, key, value", [
        (0, "matchMention", False),  # misspelt: matchMentions would stay on
        (0, "hashtags", ["x"]),  # a keyword key in an account strategy
        (2, "terms", ["x"]),
    ])
    def test_strategy_key_of_another_kind_is_refused(self, tmp_path, index, key, value):
        doc = json.loads(json.dumps(self.GOOD))
        doc["corpora"][index]["strategy"][key] = value
        with pytest.raises(ConfigError, match=f"strategy': unknown field '{key}'"):
            load_corpus_config(self.write(tmp_path, doc))

    def test_multiple_problems_all_reported(self, tmp_path):
        doc = json.loads(json.dumps(self.GOOD))
        doc["corpora"][0]["strategy"]["accounts"] = []
        doc["corpora"][2]["strategy"] = {"kind": "random", "rate": 5.0}
        with pytest.raises(ConfigError) as exc:
            load_corpus_config(self.write(tmp_path, doc))
        msg = str(exc.value)
        assert "candidates" in msg and "thin" in msg

    def test_not_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{nope", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_corpus_config(p)
