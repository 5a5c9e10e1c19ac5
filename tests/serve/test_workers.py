"""Query worker pool: whole-query and warm tasks, epoch refresh inside the
workers, and the snapshot re-read after a concurrent compaction."""

import pytest

from repro.core.session import S2RDFSession
from repro.rdf.graph import Graph
from repro.rdf.triple import Triple
from repro.serve.workers import PartitionWorkerPool


def bag(relation):
    return sorted(map(repr, relation.rows))


# --------------------------------------------------------------------------- #
# The pool
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    graph = Graph(
        [Triple.of(f"u{i}", "follows", f"u{(i * 3 + 1) % 20}") for i in range(20)]
        + [Triple.of(f"u{i}", "likes", f"i{i % 4}") for i in range(20)]
    )
    saver = S2RDFSession.from_graph(graph, num_partitions=2, journal_enabled=False)
    path = str(tmp_path_factory.mktemp("workers") / "dataset")
    saver.save_dataset(path)
    saver.close()
    session = S2RDFSession.open_dataset(path, journal_enabled=False)
    yield path, session
    session.close()


def test_pool_requires_dataset_path():
    with pytest.raises(TypeError):
        PartitionWorkerPool(num_workers=1)


def test_warm_tables_scans_in_every_worker_slot(stored):
    path, session = stored
    epoch = session._journal_epoch
    with PartitionWorkerPool(dataset_path=path, num_workers=2) as pool:
        assert pool.warm_tables(["triples", "vp_follows"], epoch=epoch) == 4
        # The warmed worker answers from the same snapshot.
        outcome = pool.run_query("SELECT * WHERE { ?s ?p ?o }", epoch=epoch)
        assert len(outcome["result"].relation.rows) == 40
        assert outcome["epoch"] == epoch


def test_query_task_matches_parent_session(stored):
    path, session = stored
    query = "SELECT * WHERE { ?a <follows> ?b . ?b <likes> ?w }"
    expected = session.query(query)
    with PartitionWorkerPool(dataset_path=path, num_workers=1) as pool:
        outcome = pool.run_query(query, epoch=session._journal_epoch)
        assert bag(outcome["result"].relation) == bag(expected.relation)
        assert outcome["epoch"] == session._journal_epoch
        assert outcome["fingerprint"]
        assert outcome["template"]
        assert outcome["estimated_rows"] is not None
        assert outcome["observed"]  # the worker observed real cardinalities


def test_worker_refreshes_on_epoch_advance(tmp_path):
    graph = Graph([Triple.of(f"u{i}", "p", f"v{i}") for i in range(10)])
    saver = S2RDFSession.from_graph(graph, num_partitions=2, journal_enabled=False)
    path = str(tmp_path / "dataset")
    saver.save_dataset(path)
    saver.close()
    session = S2RDFSession.open_dataset(path, journal_enabled=False)
    query = "SELECT * WHERE { ?x <p> ?y }"
    with PartitionWorkerPool(dataset_path=path, num_workers=1) as pool:
        before = pool.run_query(query, epoch=session._journal_epoch)
        assert len(before["result"].relation.rows) == 10
        # Append in the parent: the manifest epoch advances on disk; a task
        # carrying the new epoch makes the worker re-read the manifest.
        session.append_triples([Triple.of("extra", "p", "row")])
        after = pool.run_query(query, epoch=session._journal_epoch)
        assert len(after["result"].relation.rows) == 11
        assert after["epoch"] == session._journal_epoch
    session.close()


def test_start_brings_up_all_workers(stored):
    path, _ = stored
    pool = PartitionWorkerPool(dataset_path=path, num_workers=2)
    assert not pool.started
    pool.start()
    assert pool.started
    pool.close()
    assert not pool.started


def test_worker_rereads_snapshot_after_compaction_deleted_its_segments(tmp_path):
    graph = Graph(
        [Triple.of(f"u{i}", "follows", f"u{(i + 1) % 10}") for i in range(10)]
        + [Triple.of(f"u{i}", "likes", f"i{i % 3}") for i in range(10)]
    )
    saver = S2RDFSession.from_graph(graph, num_partitions=2, journal_enabled=False)
    path = str(tmp_path / "dataset")
    saver.save_dataset(path)
    saver.close()
    session = S2RDFSession.open_dataset(path, journal_enabled=False)
    session.append_triples(
        [Triple.of("new", "follows", "u0"), Triple.of("new", "likes", "i9")]
    )
    stale = session._journal_epoch
    likes = "SELECT * WHERE { ?a <likes> ?w }"
    with PartitionWorkerPool(dataset_path=path, num_workers=1) as pool:
        # The worker now holds the post-append snapshot, but has decoded
        # only the follows table.
        pool.run_query("SELECT * WHERE { ?a <follows> ?b }", epoch=stale)
        # The compaction folds (and deletes) the delta segments that
        # snapshot still references.
        assert session.compact().tables_compacted
        assert session._journal_epoch == stale + 1
        # A task scheduled before the compaction carries the stale epoch, so
        # the worker does not refresh up front; its first read of the likes
        # table hits a deleted segment, and it re-reads the manifest.
        outcome = pool.run_query(likes, epoch=stale)
    assert outcome["epoch"] == session._journal_epoch
    assert outcome["result"].epoch == session._journal_epoch
    assert bag(outcome["result"].relation) == bag(session.query(likes).relation)
    session.close()
