"""Independent answer checking.

Every answer is compared with an index nested-loop evaluation of the query's
BGP over the in-memory :class:`~repro.rdf.graph.Graph`
(:func:`repro.baselines.binding_iteration.index_nested_loop_execute`).  That
evaluator shares no ExtVP, catalog, store or engine code with the system
under test; only the SPARQL parser is common to both.

Answers are compared as bags: a :func:`digest` is the row count plus the sum
of the rows' hashes, where a row is the tuple of its projected terms in N3
form (``Term.n3()``), so an IRI and a literal with the same lexical value, or
two literals with different datatypes, differ.  Equal bags give equal
digests; Python's string hashing is fixed within one process, and both sides
are digested in the benchmark process.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.base import SparqlEngine
from repro.baselines.binding_iteration import index_nested_loop_execute
from repro.rdf.graph import Graph
from repro.rdf.terms import Term
from repro.sparql import parse_query

Digest = Tuple[int, int]

_MASK = (1 << 64) - 1


def projected_names(text: str) -> List[str]:
    return parse_query(text).projected_names()


def digest(bindings: Sequence[Dict[str, Term]], names: Sequence[str]) -> Digest:
    """Order-independent fingerprint of solution mappings (unbound omitted)."""
    total = 0
    for binding in bindings:
        total += hash(tuple(_n3(binding.get(name)) for name in names))
    return len(bindings), total & _MASK


def _n3(term: Optional[Term]) -> Optional[str]:
    return None if term is None else term.n3()


class Oracle:
    """Expected-answer digests over a graph that only ever grows."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self._expected: Dict[str, Digest] = {}

    def add(self, triples) -> None:
        """Grow the graph; every memoised answer is forgotten."""
        self.graph.add_all(triples)
        self._expected.clear()

    def expected(self, text: str) -> Digest:
        known = self._expected.get(text)
        if known is None:
            query = parse_query(text)
            names = query.projected_names()
            bgp = SparqlEngine.extract_single_bgp(query)
            bindings = index_nested_loop_execute(self.graph, bgp.patterns)
            known = self._expected[text] = digest(bindings, names)
        return known
