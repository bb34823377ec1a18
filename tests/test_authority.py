"""Follow-graph authority derivation and wall engagement metrics."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tweetcorpus.authority import (
    AuthorityResult,
    FollowGraph,
    WallPost,
    authority_report,
    derive_information_authorities,
    engagement_breadth,
    engagement_depth,
    engagement_table,
    load_follow_graph,
    write_follow_graph,
)
from tweetcorpus.errors import AnalysisError, ConfigError


# --- brute-force oracle (written before the implementation) -----------------
# Enumerates every followed account and every rule with exact fractions,
# straight from the rule statement, sharing nothing with the module.

def oracle_authorities(edges, gatekeepers, journalists, editors, threshold, include_gatekeepers=True):
    thr = Fraction(threshold) if not isinstance(threshold, float) else Fraction(str(threshold))
    targets = {b for (a, b) in edges if a in gatekeepers}
    out = set()
    for acct in targets:
        if not include_gatekeepers and acct in gatekeepers:
            continue
        ok = False
        n_g = len([g for g in gatekeepers if (g, acct) in edges])
        if Fraction(n_g, len(gatekeepers)) >= thr:
            ok = True
        if journalists:
            n_j = len([j for j in journalists if (j, acct) in edges])
            if Fraction(n_j, len(journalists)) >= thr:
                ok = True
        if editors:
            n_e = len([e for e in editors if (e, acct) in edges])
            if Fraction(n_e, len(editors)) >= thr:
                ok = True
        if ok:
            out.add(acct)
    return out


def random_graph(rng, n_gatekeepers=10, n_targets=30):
    gatekeepers = frozenset(range(1, n_gatekeepers + 1))
    journalists = frozenset(rng.sample(sorted(gatekeepers), n_gatekeepers // 3))
    editors = frozenset(rng.sample(sorted(gatekeepers - journalists), max(2, n_gatekeepers // 4)))
    targets = list(range(100, 100 + n_targets)) + sorted(gatekeepers)
    edges = set()
    for g in gatekeepers:
        for t in rng.sample(targets, rng.randrange(3, len(targets))):
            if g != t:
                edges.add((g, t))
    return FollowGraph(edges=frozenset(edges), gatekeepers=gatekeepers,
                       journalists=journalists, editors=editors)


class TestDeriveAgainstOracle:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng)
        for thr in (Fraction(1, 4), Fraction(1, 2), Fraction(1, 10)):
            result = derive_information_authorities(g, threshold=thr)
            want = oracle_authorities(g.edges, g.gatekeepers, g.journalists, g.editors, thr)
            assert result.authorities == want

    def test_exclude_gatekeepers_flag(self):
        rng = random.Random(9)
        g = random_graph(rng)
        result = derive_information_authorities(g, include_gatekeepers=False)
        want = oracle_authorities(g.edges, g.gatekeepers, g.journalists, g.editors,
                                  Fraction(1, 4), include_gatekeepers=False)
        assert result.authorities == want
        assert not result.authorities & g.gatekeepers


def graph_of(edges, g, j=(), e=()):
    return FollowGraph(edges=frozenset(edges), gatekeepers=frozenset(g),
                       journalists=frozenset(j), editors=frozenset(e))


class TestBoundaries:
    def test_two_of_eight_is_enough(self):
        g = graph_of({(1, 100), (2, 100), (3, 200)}, g=range(1, 9))
        r = derive_information_authorities(g)
        assert 100 in r.authorities
        assert 200 not in r.authorities

    def test_one_of_eight_fails_g_but_one_of_three_editors_qualifies(self):
        edges = {(1, 100)}
        g = graph_of(edges, g=range(1, 9), e=[1, 2, 3])
        r = derive_information_authorities(g)
        assert 100 in r.authorities
        support = {s.user_id: s for s in r.support}[100]
        assert support.gatekeeper_fraction == Fraction(1, 8)
        assert support.editor_fraction == Fraction(1, 3)
        assert support.rules == ("editors",)

    def test_exact_quarter_inclusive_at_awkward_sizes(self):
        # 1/4, 2/8 qualify; 2/7 qualifies (8/28 > 7/28); 1/7 and 3/13 do not;
        # 4/13 does (16/52 >= 13/52).
        cases = [
            (4, 1, True), (7, 2, True), (7, 1, False),
            (8, 2, True), (8, 1, False), (13, 4, True), (13, 3, False),
        ]
        for size, followers, expect in cases:
            edges = {(i, 555) for i in range(1, followers + 1)}
            g = graph_of(edges, g=range(1, size + 1))
            r = derive_information_authorities(g)
            assert (555 in r.authorities) is expect, (size, followers)

    def test_float_threshold_handled_exactly(self):
        edges = {(i, 555) for i in (1, 2)}
        g = graph_of(edges, g=range(1, 9))
        assert 555 in derive_information_authorities(g, threshold=0.25).authorities


class TestProperties:
    def test_adding_edge_never_removes_authority(self):
        rng = random.Random(11)
        g = random_graph(rng)
        base = derive_information_authorities(g).authorities
        gk = sorted(g.gatekeepers)[0]
        extra = FollowGraph(edges=g.edges | {(gk, 777)}, gatekeepers=g.gatekeepers,
                            journalists=g.journalists, editors=g.editors)
        grown = derive_information_authorities(extra).authorities
        assert base <= grown

    def test_raising_threshold_never_adds(self):
        rng = random.Random(12)
        g = random_graph(rng)
        low = derive_information_authorities(g, threshold=Fraction(1, 5)).authorities
        high = derive_information_authorities(g, threshold=Fraction(1, 2)).authorities
        assert high <= low

    def test_duplicating_gatekeepers_preserves_result(self):
        rng = random.Random(13)
        g = random_graph(rng)
        offset = 10_000
        dup_edges = set(g.edges)
        for (a, b) in g.edges:
            if a in g.gatekeepers:
                dup_edges.add((a + offset, b))
        doubled = FollowGraph(
            edges=frozenset(dup_edges),
            gatekeepers=g.gatekeepers | {x + offset for x in g.gatekeepers},
            journalists=g.journalists | {x + offset for x in g.journalists},
            editors=g.editors | {x + offset for x in g.editors},
        )
        assert derive_information_authorities(doubled).authorities == \
            derive_information_authorities(g).authorities

    def test_fractions_in_unit_interval(self):
        g = random_graph(random.Random(14))
        for s in derive_information_authorities(g).support:
            assert 0 <= s.gatekeeper_fraction <= 1
            if s.journalist_fraction is not None:
                assert 0 <= s.journalist_fraction <= 1


class TestErrors:
    def test_empty_gatekeepers(self):
        g = FollowGraph(edges=frozenset(), gatekeepers=frozenset())
        with pytest.raises(AnalysisError):
            derive_information_authorities(g)

    def test_empty_subgroups_skip_rules_and_note_it(self):
        g = graph_of({(1, 100), (2, 100)}, g=range(1, 9))
        r = derive_information_authorities(g)
        assert set(r.skipped_rules) == {"journalists", "editors"}
        support = {s.user_id: s for s in r.support}[100]
        assert support.journalist_fraction is None
        assert support.editor_fraction is None

    def test_self_edge_rejected(self):
        with pytest.raises(ConfigError, match="self"):
            FollowGraph(edges=frozenset({(1, 1)}), gatekeepers=frozenset({1}))

    def test_subgroup_outside_gatekeepers_rejected(self):
        with pytest.raises(ConfigError):
            FollowGraph(edges=frozenset(), gatekeepers=frozenset({1}), journalists=frozenset({99}))

    def test_bad_threshold(self):
        g = graph_of({(1, 100)}, g=[1, 2])
        with pytest.raises(AnalysisError):
            derive_information_authorities(g, threshold=Fraction(0))


class TestEngagement:
    def posts(self):
        mk = lambda pid, wall, author, kind="post": WallPost(post_id=pid, wall_owner_id=wall, author_id=author, kind=kind)
        return [
            mk(1, 10, 1), mk(2, 10, 1), mk(3, 10, 1, "comment"),
            mk(4, 20, 1), mk(5, 30, 1),
            mk(6, 20, 2, "comment"),
        ] + [mk(100 + i, 10, 3) for i in range(10)]

    def test_breadth_counts_distinct_walls(self):
        assert engagement_breadth(self.posts(), 1) == 3

    def test_absent_actor_zero(self):
        assert engagement_breadth(self.posts(), 99) == 0
        assert engagement_depth(self.posts(), 99).total == 0

    def test_depth_ten_on_one_wall(self):
        d = engagement_depth(self.posts(), 3)
        assert d.total == 10
        assert d.per_wall == ((10, 10),)
        assert engagement_breadth(self.posts(), 3) == 1

    def test_per_wall_sums_to_total(self):
        rng = random.Random(17)
        posts = [
            WallPost(post_id=i, wall_owner_id=rng.randrange(5), author_id=rng.randrange(8),
                     kind=rng.choice(["post", "comment"]))
            for i in range(400)
        ]
        for actor in range(8):
            d = engagement_depth(posts, actor)
            assert sum(n for _, n in d.per_wall) == d.total
            assert engagement_breadth(posts, actor) == len(d.per_wall)
            assert d.total >= engagement_breadth(posts, actor)

    def test_table_matches_group_by_oracle(self):
        rng = random.Random(18)
        posts = [
            WallPost(post_id=i, wall_owner_id=rng.randrange(5), author_id=rng.randrange(8))
            for i in range(300)
        ]
        # independent group-by
        walls, counts = {}, {}
        for p in posts:
            walls.setdefault(p.author_id, set()).add(p.wall_owner_id)
            counts[p.author_id] = counts.get(p.author_id, 0) + 1
        table = engagement_table(posts)
        assert {a: (b, d) for a, b, d in table} == \
            {a: (len(walls[a]), counts[a]) for a in counts}

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 9)), max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_table_equals_per_actor_reference(self, pairs):
        posts = [WallPost(post_id=i, wall_owner_id=wall, author_id=author)
                 for i, (wall, author) in enumerate(pairs)]
        want = [(a, engagement_breadth(posts, a), engagement_depth(posts, a).total)
                for a in sorted({p.author_id for p in posts})]
        assert engagement_table(posts) == want


class TestIO:
    def test_graph_file_round_trip(self, tmp_path):
        g = random_graph(random.Random(21))
        write_follow_graph(g, tmp_path / "edges.tsv", tmp_path / "groups.json")
        g2 = load_follow_graph(tmp_path / "edges.tsv", tmp_path / "groups.json")
        assert g2 == g

    def test_report_shape(self):
        g = graph_of({(1, 100), (2, 100)}, g=range(1, 9), j=[1, 2])
        r = derive_information_authorities(g)
        doc = authority_report(r)
        assert doc["threshold"] == "1/4"
        assert doc["authorities"] == [100]
        row = doc["support"][0]
        assert row["userId"] == 100
        assert row["gatekeeperFraction"] == "1/4"
        assert row["journalistFraction"] == "1/1"
        assert row["editorFraction"] is None
        assert "editors" in doc["skippedRules"]

    def test_bad_edge_line_has_line_number(self, tmp_path):
        (tmp_path / "groups.json").write_text('{"gatekeepers": [1]}', encoding="utf-8")
        for line in ["broken", "1\t2\t3", "1_000_001\t2", "+1\t2", "1\t 2", "\u0661\t2"]:
            (tmp_path / "edges.tsv").write_text(f"1\t2\n{line}\n", encoding="utf-8")
            with pytest.raises(ConfigError, match=":2"):
                load_follow_graph(tmp_path / "edges.tsv", tmp_path / "groups.json")


class TestResultType:
    def test_result_is_value_like(self):
        g = graph_of({(1, 100), (2, 100)}, g=range(1, 9))
        a = derive_information_authorities(g)
        b = derive_information_authorities(g)
        assert a == b
        assert isinstance(a, AuthorityResult)
