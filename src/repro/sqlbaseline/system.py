"""The SQL-based video retrieval system (paper §4).

Front end shared with the direct system: the conjunctive temporal formula
is parsed, its atomic subformulas identified, and their similarity tables
taken as input; this system then generates a sequence of SQL queries and
executes them on the mini relational engine, reading the final table back
as a similarity list.

Bulk loading of the atomic similarity tables goes straight into the
storage layer (the analogue of Sybase's ``bcp``), so measured query times
cover translation + SQL execution, not data entry.
"""

from __future__ import annotations

import re
from typing import Dict, List

from repro.core.ops import DEFAULT_UNTIL_THRESHOLD
from repro.core.simlist import SimilarityList
from repro.errors import UnsupportedFormulaError, WorkloadError
from repro.htl import ast
from repro.sqlbaseline.relational.executor import Database
from repro.sqlbaseline.translate import SQLTranslator, Translation
from repro.sqlbaseline.translate_type2 import (
    LoadedAtom,
    Type2SQLTranslator,
)


def _sanitize(name: str) -> str:
    cleaned = re.sub(r"[^A-Za-z0-9_]", "_", name).lower()
    if not cleaned or cleaned[0].isdigit():
        cleaned = "p_" + cleaned
    return cleaned


class SQLRetrievalSystem:
    """Evaluates type (1) HTL formulas by translation to SQL."""

    def __init__(self, threshold: float = DEFAULT_UNTIL_THRESHOLD):
        self.database = Database()
        self.translator = SQLTranslator(threshold)
        self._atom_tables: Dict[str, str] = {}
        self._atom_maxima: Dict[str, float] = {}
        self._n_segments = 0

    # -- loading ------------------------------------------------------------
    def load_segments(self, n_segments: int) -> None:
        """(Re)create the axis relation ``segments`` with ids 1..n."""
        if n_segments < 0:
            raise WorkloadError(f"negative segment count {n_segments}")
        self.database.execute("DROP TABLE IF EXISTS segments")
        self.database.execute("CREATE TABLE segments (id INTEGER)")
        relation = self.database.catalog.get("segments")
        relation.insert_many((i,) for i in range(1, n_segments + 1))
        self._n_segments = n_segments

    def load_atomic(self, name: str, sim: SimilarityList) -> str:
        """Bulk-load one atomic predicate's similarity table."""
        table = "sim_" + _sanitize(name)
        self.database.execute(f"DROP TABLE IF EXISTS {table}")
        self.database.execute(
            f"CREATE TABLE {table} "
            f"(beg_id INTEGER, end_id INTEGER, act REAL)"
        )
        relation = self.database.catalog.get(table)
        relation.insert_many(
            (entry.begin, entry.end, float(entry.actual)) for entry in sim
        )
        self._atom_tables[name] = table
        self._atom_maxima[name] = sim.maximum
        return table

    def loaded_atoms(self) -> List[str]:
        return sorted(self._atom_tables)

    # -- evaluation ------------------------------------------------------------
    def translate(self, formula: ast.Formula) -> Translation:
        """The SQL script for a formula over the loaded atoms."""
        return self.translator.translate(
            formula, self._atom_tables, self._atom_maxima
        )

    def evaluate(self, formula: ast.Formula) -> SimilarityList:
        """Translate, execute the statement sequence, read back the result."""
        if self._n_segments == 0 and "segments" not in self.database.catalog:
            raise UnsupportedFormulaError(
                "call load_segments() before evaluating queries"
            )
        translation = self.translate(formula)
        try:
            for statement in translation.statements:
                self.database.execute(statement)
            result = self.database.query(
                f"SELECT beg_id, end_id, act FROM {translation.output_table}"
            )
        finally:
            self._drop_temporaries(translation)
        entries = [
            ((beg, end), act)
            for beg, end, act in result.rows
            if act is not None and act > 0
        ]
        return SimilarityList.from_entries(entries, translation.maximum)

    def _drop_temporaries(self, translation: Translation) -> None:
        for table in translation.temp_tables:
            self.database.execute(f"DROP TABLE IF EXISTS {table}")


class Type2SQLSystem:
    """SQL-based evaluation of type (2) formulas over a video.

    The front end matches the direct engine's: the formula's maximal
    non-temporal subformulas go to the picture-retrieval system, whose
    similarity tables (evaluation rows + interval lists) are bulk-loaded
    into relations; the generated SQL then computes the combined table and
    the final prefix-∃ projection.  Results equal the direct engine in its
    default (paper, inner-join) mode — property-tested.
    """

    def __init__(self, threshold: float = DEFAULT_UNTIL_THRESHOLD):
        self.database = Database()
        self.translator = Type2SQLTranslator(threshold)
        self._atom_counter = 0

    def evaluate_on_video(self, formula, video, level: int = 2):
        """Evaluate a closed type (2) formula at a level of one video."""
        from repro.pictures.retrieval import PictureRetrievalSystem
        from repro.pictures.scoring import exists_pool

        nodes = video.nodes_at_level(level)
        pictures = PictureRetrievalSystem([node.metadata for node in nodes])
        universe = exists_pool(video.object_universe())
        self.load_segments(len(nodes))
        cache: Dict[object, LoadedAtom] = {}

        def loader(atom) -> LoadedAtom:
            if atom not in cache:
                table = pictures.similarity_table(atom, universe=universe)
                cache[atom] = self.load_atom_table(atom, table)
            return cache[atom]

        translation = self.translator.translate(formula, loader)
        try:
            for statement in translation.statements:
                self.database.execute(statement)
            result = self.database.query(
                f"SELECT beg_id, end_id, act FROM {translation.output_table}"
            )
        finally:
            for table in translation.temp_tables:
                self.database.execute(f"DROP TABLE IF EXISTS {table}")
        entries = [
            ((beg, end), act)
            for beg, end, act in result.rows
            if act is not None and act > 0
        ]
        return SimilarityList.from_entries(entries, translation.maximum)

    # -- loading ------------------------------------------------------------
    def load_segments(self, n_segments: int) -> None:
        self.database.execute("DROP TABLE IF EXISTS segments")
        self.database.execute("CREATE TABLE segments (id INTEGER)")
        self.database.catalog.get("segments").insert_many(
            (i,) for i in range(1, n_segments + 1)
        )

    def load_atom_table(self, atom, table) -> LoadedAtom:
        """Bulk-load one atom's similarity table into two relations."""
        if table.attr_vars:
            raise UnsupportedFormulaError(
                "type (2) formulas carry no attribute variables; "
                f"atom has columns {table.attr_vars}"
            )
        self._atom_counter += 1
        base = f"atom{self._atom_counter}"
        variables = table.object_vars
        var_decls = "".join(f"v_{name} TEXT, " for name in variables)
        self.database.execute(f"DROP TABLE IF EXISTS {base}")
        self.database.execute(f"DROP TABLE IF EXISTS {base}_ev")
        self.database.execute(
            f"CREATE TABLE {base} "
            f"({var_decls}beg_id INTEGER, end_id INTEGER, act REAL)"
        )
        self.database.execute(
            f"CREATE TABLE {base}_ev ({var_decls}dummy INTEGER)"
        )
        entries_relation = self.database.catalog.get(base)
        evals_relation = self.database.catalog.get(f"{base}_ev")
        for row in table.rows:
            evals_relation.insert(tuple(row.objects) + (1,))
            for entry in row.sim:
                entries_relation.insert(
                    tuple(row.objects)
                    + (entry.begin, entry.end, float(entry.actual))
                )
        return LoadedAtom(
            entries_table=base,
            evals_table=f"{base}_ev",
            variables=variables,
            maximum=table.maximum,
        )
