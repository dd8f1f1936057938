"""Every match outcome of the difftest cases, pinned.

For each candidate of each committed difftest corpus case and of the
first 400 covering cases of seed 4 -- 878 outcomes -- the reject reason,
its detail and the substitute SQL must equal the recorded ones in
``match_outcomes.json`` (reason in clear, detail and SQL as a digest).
A second pass matches the same cases with back-joins on, the one
matcher option, and pins its outcomes in
``match_outcomes_extensions.json``. A refactor of the matcher must
leave all of them alone. A deliberate change of outcomes re-records both
files with::

    PYTHONPATH=src python -m tests.core.test_match_outcomes
"""

import hashlib
import json
from pathlib import Path

from repro.catalog.tpch import tpch_catalog
from repro.core.matcher import ViewMatcher
from repro.core.options import DEFAULT_OPTIONS, MatchOptions
from repro.datagen.tpch_gen import generate_tpch
from repro.difftest.corpus import load_corpus
from repro.difftest.harness import DifftestConfig
from repro.errors import ReproError
from repro.sql.printer import statement_to_sql
from repro.stats.statistics import DatabaseStats
from repro.workload.covering import CoveringCaseGenerator

RECORDED = Path(__file__).parent / "match_outcomes.json"
RECORDED_EXTENSIONS = Path(__file__).parent / "match_outcomes_extensions.json"
CORPUS = Path(__file__).parents[1] / "difftest" / "corpus"
CONFIG = DifftestConfig(seed=4, cases=400)
EXTENSIONS = MatchOptions(allow_backjoins=True)


def _row(label, result) -> list:
    substitute = (
        statement_to_sql(result.substitute) if result.matched else ""
    )
    digest = hashlib.sha256(
        f"{result.reject_detail}\n{substitute}".encode()
    ).hexdigest()[:16]
    reason = result.reject_reason.name if result.reject_reason else None
    return [label, result.view.name, reason, digest]


def _register(matcher, name, statement) -> None:
    try:
        matcher.register_view(name, statement)
    except (ReproError, ValueError):
        pass


def outcomes(options: MatchOptions = DEFAULT_OPTIONS) -> list[list]:
    """One row per match result, in case and candidate order."""
    catalog = tpch_catalog()
    rows = []
    for case in load_corpus(CORPUS):
        matcher = ViewMatcher(catalog, options=options)
        for name, sql in case.views.items():
            if options is DEFAULT_OPTIONS:
                matcher.register_view(name, catalog.bind_sql(sql))
            else:
                _register(matcher, name, catalog.bind_sql(sql))
        for result in matcher.match(catalog.bind_sql(case.query)):
            rows.append(_row(case.name, result))
    database = generate_tpch(scale=CONFIG.scale, seed=CONFIG.data_seed)
    generator = CoveringCaseGenerator(
        catalog, DatabaseStats.collect(database, catalog)
    )
    for index in range(CONFIG.cases):
        seed = CONFIG.case_seed(index)
        case = generator.case(seed, views=CONFIG.views_per_case)
        matcher = ViewMatcher(catalog, options=options)
        for name, view in case.views.items():
            _register(matcher, name, view)
        for result in matcher.match(case.query):
            rows.append(_row(str(seed), result))
    return rows


def test_outcomes_equal_the_recorded_ones():
    recorded = json.loads(RECORDED.read_text())
    assert len(recorded) == 878
    assert outcomes() == recorded


def test_extension_outcomes_equal_the_recorded_ones():
    recorded = json.loads(RECORDED_EXTENSIONS.read_text())
    assert len(recorded) == 1093
    assert outcomes(EXTENSIONS) == recorded


def _write(path: Path, rows: list[list]) -> None:
    path.write_text(
        "[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n"
    )
    print(f"{len(rows)} outcomes written to {path}")


if __name__ == "__main__":
    _write(RECORDED, outcomes())
    _write(RECORDED_EXTENSIONS, outcomes(EXTENSIONS))
