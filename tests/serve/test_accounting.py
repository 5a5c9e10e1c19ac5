"""Every execution mode emits the same evidence: after N queries — direct or
served — the session registry counts N, the journal holds N records, and
every record carries the planner's estimate and its q-error."""

import pytest

import repro
from repro.core.config import ServingConfig


QUERIES = [
    "SELECT * WHERE { ?x <follows> ?y }",
    "SELECT * WHERE { ?x <likes> ?w }",
    "SELECT ?y WHERE { <A> <follows> ?y }",
    "SELECT * WHERE { ?x <follows> ?y . ?y <likes> ?w }",
]


@pytest.mark.parametrize("entry", ["query", "submit"])
@pytest.mark.parametrize("execution_mode", ["thread", "process"])
def test_registry_and_journal_count_every_query(tmp_path, example_graph, execution_mode, entry):
    path = str(tmp_path / "dataset")
    repro.create(example_graph, path=path, num_partitions=2).close()
    texts = QUERIES * 3
    with repro.connect(path, execution_mode=execution_mode, worker_processes=1) as session:
        if entry == "query":
            results = [session.query(text) for text in texts]
        else:
            # No result sharing: every submission must execute (and count).
            with session.serve(serving=ServingConfig(share_results=False)) as scheduler:
                handles = [scheduler.submit(text) for text in texts]
                results = [handle.result(timeout=60) for handle in handles]
        assert len(results) == len(texts)
        assert session.metrics.counter_value("s2rdf_queries_total") == len(texts)
        records = session.journal.records()
        assert len(records) == len(texts)
        assert all(record.fingerprint and record.template for record in records)
        assert all(record.estimated_rows is not None for record in records)
        assert all(record.estimate_q_error is not None for record in records)
        assert all(record.epoch == 0 for record in records)
        served = entry == "submit"
        assert all((record.queue_ms is not None) == served for record in records)
