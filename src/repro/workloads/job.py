"""JOB (Join Order Benchmark) workload: synthetic IMDB schema and the 33 templates.

The Join Order Benchmark runs 113 queries (33 structural templates) over the
real IMDB snapshot.  The reproduction generates a scaled-down synthetic IMDB
with the same 21-table schema, the same key/foreign-key structure, and
long-tailed fan-outs from the ``title`` table to its satellite tables (each
movie has many keywords / info rows / cast entries, with Zipf-like skew —
exactly the shape that makes naive join orders explode on the real data).

One query per template (the ``a`` variant's join structure) is provided,
each defined by its checked-in ``sql/job_<N>a.sql`` file (:func:`query`
compiles it, see :mod:`repro.workloads.sqlfiles`),
matching how the paper reports JOB results: "for JOB queries, we present one
result for each of the 33 query templates".  All templates are acyclic,
which is why the paper's Figure 6b shows no red (cyclic) query numbers for
JOB.
"""

from __future__ import annotations

from typing import Dict

from repro.engine.database import Database
from repro.errors import WorkloadError
from repro.query import QuerySpec
from repro.storage.table import ForeignKey
from repro.workloads import sqlfiles
from repro.workloads.generator import (
    WorkloadScale,
    categorical_column,
    foreign_keys,
    names_column,
    numeric_column,
    primary_keys,
)

#: Base cardinalities at ``scale=1.0`` (IMDB ratios, thousands of times smaller).
BASE_ROWS = {
    "kind_type": 7,
    "info_type": 113,
    "link_type": 18,
    "role_type": 12,
    "comp_cast_type": 4,
    "company_type": 4,
    "company_name": 600,
    "keyword": 800,
    "name": 4_000,
    "char_name": 3_000,
    "title": 2_500,
    "aka_name": 1_200,
    "aka_title": 800,
    "cast_info": 36_000,
    "complete_cast": 300,
    "movie_companies": 5_000,
    "movie_info": 15_000,
    "movie_info_idx": 4_500,
    "movie_keyword": 9_000,
    "movie_link": 600,
    "person_info": 6_000,
}

_INFO_KINDS = [
    "budget", "bottom 10 rank", "genres", "languages", "production notes",
    "rating", "release dates", "runtimes", "top 250 rank", "votes",
]
_KEYWORDS = [
    "amnesia", "character-name-in-title", "computer-animation", "dark-humor",
    "hero", "love", "marvel-cinematic-universe", "murder", "revenge",
    "based-on-novel", "sequel", "superhero", "violence", "blood", "fight",
]
_COMPANY_COUNTRIES = ["[us]", "[de]", "[gb]", "[fr]", "[jp]", "[in]"]
_LINK_KINDS = ["follows", "followed by", "remake of", "features", "references"]
_KIND_NAMES = ["movie", "tv series", "tv movie", "video movie", "tv mini series", "video game", "episode"]
_ROLE_NAMES = [
    "actor", "actress", "producer", "writer", "cinematographer", "composer",
    "costume designer", "director", "editor", "miscellaneous crew", "production designer", "guest",
]
_CCT_KINDS = ["cast", "crew", "complete", "complete+verified"]
_COMPANY_KINDS = ["distributors", "production companies", "special effects companies", "miscellaneous companies"]


def load(db: Database, scale: float = 1.0, seed: int = 7, replace: bool = False) -> Dict[str, int]:
    """Generate and register the synthetic IMDB tables used by JOB."""
    ws = WorkloadScale(scale=scale, seed=seed)
    counts = {name: ws.rows(base) for name, base in BASE_ROWS.items()}
    for small in ("kind_type", "info_type", "link_type", "role_type", "comp_cast_type", "company_type"):
        counts[small] = BASE_ROWS[small]

    def reg(name, data, pk=(), fks=()):
        db.register_dataframe(name, data, primary_key=pk, foreign_keys=fks, replace=replace)

    # --- small dictionary tables -----------------------------------------
    reg("kind_type", {"id": primary_keys(counts["kind_type"]), "kind": _KIND_NAMES[: counts["kind_type"]]}, pk=["id"])
    reg(
        "info_type",
        {
            "id": primary_keys(counts["info_type"]),
            "info": [_INFO_KINDS[i % len(_INFO_KINDS)] + (f" {i}" if i >= len(_INFO_KINDS) else "")
                     for i in range(counts["info_type"])],
        },
        pk=["id"],
    )
    reg("link_type", {"id": primary_keys(counts["link_type"]),
                      "link": [_LINK_KINDS[i % len(_LINK_KINDS)] + (f" {i}" if i >= len(_LINK_KINDS) else "")
                               for i in range(counts["link_type"])]}, pk=["id"])
    reg("role_type", {"id": primary_keys(counts["role_type"]), "role": _ROLE_NAMES[: counts["role_type"]]}, pk=["id"])
    reg("comp_cast_type", {"id": primary_keys(counts["comp_cast_type"]), "kind": _CCT_KINDS[: counts["comp_cast_type"]]}, pk=["id"])
    reg("company_type", {"id": primary_keys(counts["company_type"]), "kind": _COMPANY_KINDS[: counts["company_type"]]}, pk=["id"])

    # --- entity tables -----------------------------------------------------
    rng = ws.rng("company_name")
    reg(
        "company_name",
        {
            "id": primary_keys(counts["company_name"]),
            "name": names_column("Studio", counts["company_name"]),
            "country_code": categorical_column(rng, counts["company_name"], _COMPANY_COUNTRIES, [0.45, 0.15, 0.15, 0.1, 0.1, 0.05]),
        },
        pk=["id"],
    )
    rng = ws.rng("keyword")
    reg(
        "keyword",
        {
            "id": primary_keys(counts["keyword"]),
            "keyword": [_KEYWORDS[i % len(_KEYWORDS)] + (f"-{i}" if i >= len(_KEYWORDS) else "")
                        for i in range(counts["keyword"])],
        },
        pk=["id"],
    )
    rng = ws.rng("name")
    reg(
        "name",
        {
            "id": primary_keys(counts["name"]),
            "name": names_column("Person", counts["name"]),
            "gender": categorical_column(rng, counts["name"], ["m", "f", ""], [0.6, 0.35, 0.05]),
        },
        pk=["id"],
    )
    reg("char_name", {"id": primary_keys(counts["char_name"]), "name": names_column("Character", counts["char_name"])}, pk=["id"])

    rng = ws.rng("title")
    reg(
        "title",
        {
            "id": primary_keys(counts["title"]),
            "title": names_column("Movie", counts["title"]),
            "kind_id": foreign_keys(rng, counts["title"], counts["kind_type"]),
            "production_year": numeric_column(rng, counts["title"], 1930, 2015, integer=True),
            "episode_nr": numeric_column(rng, counts["title"], 0, 200, integer=True),
        },
        pk=["id"],
        fks=[ForeignKey("kind_id", "kind_type", "id")],
    )

    rng = ws.rng("aka_name")
    reg(
        "aka_name",
        {
            "id": primary_keys(counts["aka_name"]),
            "person_id": foreign_keys(rng, counts["aka_name"], counts["name"]),
            "name": names_column("Alias", counts["aka_name"]),
        },
        pk=["id"],
        fks=[ForeignKey("person_id", "name", "id")],
    )
    rng = ws.rng("aka_title")
    reg(
        "aka_title",
        {
            "id": primary_keys(counts["aka_title"]),
            "movie_id": foreign_keys(rng, counts["aka_title"], counts["title"], skew=0.5),
            "title": names_column("AltTitle", counts["aka_title"]),
        },
        pk=["id"],
        fks=[ForeignKey("movie_id", "title", "id")],
    )

    # --- relationship (fact) tables ---------------------------------------
    rng = ws.rng("cast_info")
    reg(
        "cast_info",
        {
            "id": primary_keys(counts["cast_info"]),
            "person_id": foreign_keys(rng, counts["cast_info"], counts["name"], skew=0.6),
            "movie_id": foreign_keys(rng, counts["cast_info"], counts["title"], skew=0.4),
            "person_role_id": foreign_keys(rng, counts["cast_info"], counts["char_name"], null_fraction=0.3),
            "role_id": foreign_keys(rng, counts["cast_info"], counts["role_type"]),
            "note_is_producer": rng.integers(0, 2, counts["cast_info"]),
        },
        pk=["id"],
        fks=[
            ForeignKey("person_id", "name", "id"),
            ForeignKey("movie_id", "title", "id"),
            ForeignKey("person_role_id", "char_name", "id"),
            ForeignKey("role_id", "role_type", "id"),
        ],
    )
    rng = ws.rng("complete_cast")
    reg(
        "complete_cast",
        {
            "id": primary_keys(counts["complete_cast"]),
            "movie_id": foreign_keys(rng, counts["complete_cast"], counts["title"]),
            "subject_id": foreign_keys(rng, counts["complete_cast"], counts["comp_cast_type"]),
            "status_id": foreign_keys(rng, counts["complete_cast"], counts["comp_cast_type"]),
        },
        pk=["id"],
        fks=[
            ForeignKey("movie_id", "title", "id"),
            ForeignKey("subject_id", "comp_cast_type", "id"),
            ForeignKey("status_id", "comp_cast_type", "id"),
        ],
    )
    rng = ws.rng("movie_companies")
    reg(
        "movie_companies",
        {
            "id": primary_keys(counts["movie_companies"]),
            "movie_id": foreign_keys(rng, counts["movie_companies"], counts["title"], skew=0.3),
            "company_id": foreign_keys(rng, counts["movie_companies"], counts["company_name"], skew=0.8),
            "company_type_id": foreign_keys(rng, counts["movie_companies"], counts["company_type"]),
        },
        pk=["id"],
        fks=[
            ForeignKey("movie_id", "title", "id"),
            ForeignKey("company_id", "company_name", "id"),
            ForeignKey("company_type_id", "company_type", "id"),
        ],
    )
    rng = ws.rng("movie_info")
    reg(
        "movie_info",
        {
            "id": primary_keys(counts["movie_info"]),
            "movie_id": foreign_keys(rng, counts["movie_info"], counts["title"], skew=0.3),
            "info_type_id": foreign_keys(rng, counts["movie_info"], counts["info_type"], skew=0.7),
            "info_bucket": rng.integers(0, 100, counts["movie_info"]),
        },
        pk=["id"],
        fks=[
            ForeignKey("movie_id", "title", "id"),
            ForeignKey("info_type_id", "info_type", "id"),
        ],
    )
    rng = ws.rng("movie_info_idx")
    reg(
        "movie_info_idx",
        {
            "id": primary_keys(counts["movie_info_idx"]),
            "movie_id": foreign_keys(rng, counts["movie_info_idx"], counts["title"], skew=0.2),
            "info_type_id": foreign_keys(rng, counts["movie_info_idx"], counts["info_type"], skew=0.5),
            "info_rating": numeric_column(rng, counts["movie_info_idx"], 1.0, 10.0),
        },
        pk=["id"],
        fks=[
            ForeignKey("movie_id", "title", "id"),
            ForeignKey("info_type_id", "info_type", "id"),
        ],
    )
    rng = ws.rng("movie_keyword")
    reg(
        "movie_keyword",
        {
            "id": primary_keys(counts["movie_keyword"]),
            "movie_id": foreign_keys(rng, counts["movie_keyword"], counts["title"], skew=0.4),
            "keyword_id": foreign_keys(rng, counts["movie_keyword"], counts["keyword"], skew=0.9),
        },
        pk=["id"],
        fks=[
            ForeignKey("movie_id", "title", "id"),
            ForeignKey("keyword_id", "keyword", "id"),
        ],
    )
    rng = ws.rng("movie_link")
    reg(
        "movie_link",
        {
            "id": primary_keys(counts["movie_link"]),
            "movie_id": foreign_keys(rng, counts["movie_link"], counts["title"]),
            "linked_movie_id": foreign_keys(rng, counts["movie_link"], counts["title"]),
            "link_type_id": foreign_keys(rng, counts["movie_link"], counts["link_type"]),
        },
        pk=["id"],
        fks=[
            ForeignKey("movie_id", "title", "id"),
            ForeignKey("linked_movie_id", "title", "id"),
            ForeignKey("link_type_id", "link_type", "id"),
        ],
    )
    rng = ws.rng("person_info")
    reg(
        "person_info",
        {
            "id": primary_keys(counts["person_info"]),
            "person_id": foreign_keys(rng, counts["person_info"], counts["name"], skew=0.5),
            "info_type_id": foreign_keys(rng, counts["person_info"], counts["info_type"]),
        },
        pk=["id"],
        fks=[
            ForeignKey("person_id", "name", "id"),
            ForeignKey("info_type_id", "info_type", "id"),
        ],
    )
    return counts


# ---------------------------------------------------------------------------
# Query templates (defined by the checked-in ``sql/job_<N>a.sql`` files)
# ---------------------------------------------------------------------------
def query(number: int) -> QuerySpec:
    """Return the QuerySpec for JOB template ``number`` (1..33)."""
    try:
        return sqlfiles.query_spec(f"job_{number}a")
    except WorkloadError:
        raise WorkloadError(f"JOB template {number} does not exist (valid: 1..33)") from None


def all_queries() -> Dict[str, QuerySpec]:
    """All 33 JOB template queries, keyed by name."""
    return {f"t{n}": query(n) for n in template_numbers()}


def template_numbers() -> tuple[int, ...]:
    """All template numbers."""
    return tuple(sqlfiles.numbered_stems("job"))


#: Templates highlighted in Figure 8 (original PT's Small2Large under-reduces).
FIGURE8_TEMPLATES = (32,)
