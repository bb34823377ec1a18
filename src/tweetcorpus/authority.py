"""Information-authority derivation and wall-engagement metrics.

An account qualifies as an information authority when at least a
threshold fraction (default one quarter) of the gatekeeper accounts
follow it; the set is extended by accounts passing the same bar within
the journalist or editor subgroups.  All comparisons use exact rational
arithmetic so boundary cases like 2 of 8 are inclusive deterministically.

Engagement metrics summarize wall activity: breadth is the number of
distinct walls an actor contributed to, depth the total contribution
count with a per-wall breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import AnalysisError, ConfigError
from .tweets import TweetRecord, int_cell, json_field, load_json_config, read_text, write_json

RULES = ("gatekeepers", "journalists", "editors")


@dataclass(frozen=True)
class FollowGraph:
    """Directed follow edges plus gatekeeper group labels.

    Journalists and editors are subgroups of the gatekeepers; self-follows
    are not a thing and get rejected.
    """

    edges: frozenset[tuple[int, int]]
    gatekeepers: frozenset[int]
    journalists: frozenset[int] = frozenset()
    editors: frozenset[int] = frozenset()

    def __post_init__(self):
        for name in ("edges", "gatekeepers", "journalists", "editors"):
            object.__setattr__(self, name, frozenset(getattr(self, name)))
        selfies = [a for a, b in self.edges if a == b]
        if selfies:
            raise ConfigError(f"self-follow edges not allowed: {sorted(selfies)}")
        outside = (self.journalists | self.editors) - self.gatekeepers
        if outside:
            raise ConfigError(f"journalists/editors must be gatekeepers, not: {sorted(outside)}")


@dataclass(frozen=True)
class AccountSupport:
    user_id: int
    gatekeeper_followers: int
    gatekeeper_fraction: Fraction
    journalist_fraction: Fraction | None
    editor_fraction: Fraction | None
    rules: tuple[str, ...]


@dataclass(frozen=True)
class AuthorityResult:
    authorities: frozenset[int]
    support: tuple[AccountSupport, ...]
    skipped_rules: tuple[str, ...]
    threshold: Fraction


def _as_fraction(value) -> Fraction:
    # Fraction(str(float)) keeps the decimal the caller wrote, not the
    # binary approximation (0.25 -> 1/4, 0.1 -> 1/10).
    try:
        return Fraction(str(value)) if isinstance(value, float) else Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"threshold {value!r} is not a number such as 0.25 or 1/4") from exc


def derive_information_authorities(graph: FollowGraph, threshold=Fraction(1, 4)) -> AuthorityResult:
    """Apply the threshold rule over gatekeepers, journalists, and editors.

    Empty subgroups skip their rule (recorded in ``skipped_rules``); an
    empty gatekeeper set is an error since every rule would be vacuous.
    """
    if not graph.gatekeepers:
        raise AnalysisError("authority derivation needs a non-empty gatekeeper set")
    thr = _as_fraction(threshold)
    if not 0 < thr <= 1:
        raise AnalysisError(f"threshold must be in (0, 1], got {thr}")
    skipped = tuple(
        name for name, group in (("journalists", graph.journalists), ("editors", graph.editors)) if not group
    )
    targets = sorted({b for a, b in graph.edges if a in graph.gatekeepers})
    followers: dict[int, set[int]] = {}
    for a, b in graph.edges:
        followers.setdefault(b, set()).add(a)

    supports = []
    authorities = set()
    for acct in targets:
        who = followers.get(acct, set())
        n_g = len(who & graph.gatekeepers)
        frac_g = Fraction(n_g, len(graph.gatekeepers))
        frac_j = Fraction(len(who & graph.journalists), len(graph.journalists)) if graph.journalists else None
        frac_e = Fraction(len(who & graph.editors), len(graph.editors)) if graph.editors else None
        rules = tuple(
            name
            for name, frac in (("gatekeepers", frac_g), ("journalists", frac_j), ("editors", frac_e))
            if frac is not None and frac >= thr
        )
        supports.append(
            AccountSupport(
                user_id=acct,
                gatekeeper_followers=n_g,
                gatekeeper_fraction=frac_g,
                journalist_fraction=frac_j,
                editor_fraction=frac_e,
                rules=rules,
            )
        )
        if rules:
            authorities.add(acct)
    return AuthorityResult(
        authorities=frozenset(authorities),
        support=tuple(supports),
        skipped_rules=skipped,
        threshold=thr,
    )


def authority_report(result: AuthorityResult) -> dict:
    """JSON-ready report with exact fractions rendered as num/den strings."""
    def frac(f):
        return None if f is None else f"{f.numerator}/{f.denominator}"

    return {
        "threshold": frac(result.threshold),
        "skippedRules": list(result.skipped_rules),
        "authorities": sorted(result.authorities),
        "support": [
            {
                "userId": s.user_id,
                "gatekeeperFollowers": s.gatekeeper_followers,
                "gatekeeperFraction": frac(s.gatekeeper_fraction),
                "journalistFraction": frac(s.journalist_fraction),
                "editorFraction": frac(s.editor_fraction),
                "rules": list(s.rules),
            }
            for s in result.support
        ],
    }


# -- wall engagement ----------------------------------------------------------

@dataclass(frozen=True)
class WallPost:
    """A post or comment on some account's wall."""

    wall_owner_id: int
    author_id: int


@dataclass(frozen=True)
class EngagementDepth:
    total: int
    per_wall: tuple[tuple[int, int], ...]  # (wall_owner_id, contributions), sorted


def engagement_breadth(posts, actor: int) -> int:
    """Number of distinct walls the actor contributed to."""
    return len({p.wall_owner_id for p in posts if p.author_id == actor})


def engagement_depth(posts, actor: int) -> EngagementDepth:
    """Total contributions by the actor, with the per-wall breakdown."""
    counts: dict[int, int] = {}
    for p in posts:
        if p.author_id == actor:
            counts[p.wall_owner_id] = counts.get(p.wall_owner_id, 0) + 1
    return EngagementDepth(total=sum(counts.values()), per_wall=tuple(sorted(counts.items())))


def engagement_table(posts) -> list[tuple[int, int, int]]:
    """(actor, breadth, depth) rows for every actor seen, actor order, in one
    sweep; ``engagement_breadth``/``engagement_depth`` are its reference."""
    walls: dict[int, set[int]] = {}
    depth: dict[int, int] = {}
    for p in posts:
        walls.setdefault(p.author_id, set()).add(p.wall_owner_id)
        depth[p.author_id] = depth.get(p.author_id, 0) + 1
    return [(a, len(walls[a]), depth[a]) for a in sorted(walls)]


def conversation_roots(tweets) -> dict[int, TweetRecord]:
    """Each tweet's id mapped to the root of its conversation: the furthest
    ancestor its ``reply_to_id`` chain reaches within the given set, itself
    when its parent is not in the set.  Every chain is walked on its own, so
    the order of ``tweets`` does not matter; a walk that comes back to a
    tweet it passed (a reply cycle) stops there."""
    by_id = {t.id: t for t in tweets}
    roots = {}
    for t in by_id.values():
        root, hops = t, set()
        while root.reply_to_id in by_id and root.id not in hops:
            hops.add(root.id)
            root = by_id[root.reply_to_id]
        roots[t.id] = root
    return roots


def wall_posts_from_tweets(tweets) -> list[WallPost]:
    """Map a tweet set onto walls, in id order: a tweet is a post on the wall
    of its conversation root's author (``conversation_roots``), so a root is
    a post on its own author's wall and a reply a comment on another's."""
    by_id = {t.id: t for t in tweets}
    roots = conversation_roots(by_id.values())
    return [WallPost(wall_owner_id=roots[i].user_id, author_id=by_id[i].user_id) for i in sorted(by_id)]


# -- file IO -------------------------------------------------------------------

def write_follow_graph(graph: FollowGraph, edges_path, groups_path):
    """Edge list as follower<TAB>followed lines plus a JSON group file."""
    lines = [f"{a}\t{b}" for a, b in sorted(graph.edges)]
    Path(edges_path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    groups = {
        "gatekeepers": sorted(graph.gatekeepers),
        "journalists": sorted(graph.journalists),
        "editors": sorted(graph.editors),
    }
    write_json(groups_path, groups)


def load_follow_graph(edges_path, groups_path) -> FollowGraph:
    edges = set()
    for lineno, line in enumerate(read_text(edges_path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            follower, followed = map(int_cell, line.split("\t"))
        except ValueError as exc:
            raise ConfigError(f"{edges_path}:{lineno}: expected follower<TAB>followed ids, got {line!r}") from exc
        edges.add((follower, followed))
    return load_json_config(groups_path, lambda groups: FollowGraph(
        edges=frozenset(edges),
        gatekeepers=json_field(groups, "gatekeepers", [int]),
        journalists=json_field(groups, "journalists", [int], ()),
        editors=json_field(groups, "editors", [int], ()),
    ))
