"""Tests of the benchmark's own logic: run with ``python -m pytest perfbench``."""

import threading

import numpy as np
import pytest

import gen
import measure
import tracing
from tracing import Span, Tracer, self_times


@pytest.mark.parametrize(
    "n, expected",
    [
        (1, 100.0),
        (19, 100.0),
        (20, 50.0),
        (39, 50.0),
        (40, 75.0),
        (99, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    assert measure.tail_percentile(n) == expected


def test_summarize_reports_count_and_chosen_percentile():
    out = measure.summarize(np.arange(1, 41, dtype=float))
    assert out["n"] == 40
    assert out["tail_percentile"] == 75.0
    assert out["p50"] == pytest.approx(20.5)
    assert out["tail"] == pytest.approx(np.percentile(np.arange(1, 41), 75))


def _fingerprint(data: gen.WorkloadData):
    return (
        [(vid, v.indices.tolist()) for vid, v in data.dataset],
        [[(qid, v.indices.tolist()) for qid, v in b] for b in data.batches],
        sorted((q, sorted(ids)) for q, ids in data.relevant.items()),
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda seed: gen.planted_data(seed, n_background=50, n_queries=6, batch_size=4),
        lambda seed: gen.skewed_data(seed, n=300, groups=20, a=1.1, n_batches=3, batch_size=5),
    ],
)
def test_generators_are_deterministic_per_seed(make):
    assert _fingerprint(make(3)) == _fingerprint(make(3))
    assert _fingerprint(make(3)) != _fingerprint(make(4))


def test_zipf_group_sizes_follow_the_law():
    sizes = gen.zipf_group_sizes(20000, 400, 1.1)
    assert sizes.sum() == 20000 and sizes.min() >= 1
    assert np.all(np.diff(sizes) <= 0)
    assert 3700 <= sizes[0] <= 4000  # the hottest group


def test_skewed_data_ids_and_groups():
    data = gen.skewed_data(5, n=300, groups=20, a=1.1, n_batches=4, batch_size=5)
    assert [vid for vid, _ in data.dataset] == list(range(300))
    assert [len(b) for b in data.batches] == [5, 5, 5, 5]
    for qid, q in data.queries:
        members = data.relevant[qid]
        proto_like = [data.dataset[i][1] for i in members]
        # every member shares most of its support with the query
        shared = max(np.intersect1d(q.indices, m.indices).size for m in proto_like)
        assert shared >= gen.NNZ - 2 * gen.SWAPS


def test_write_svmlight_round_trips(tmp_path):
    from sketchlsh.dataio import parse_record

    data = gen.planted_data(1, n_background=10, n_queries=1, batch_size=1)
    path = tmp_path / "d.txt"
    gen.write_svmlight(path, data.dataset)
    lines = path.read_text().splitlines()
    assert len(lines) == len(data.dataset)
    for line, (_, vec) in zip(lines, data.dataset):
        assert parse_record(line, dim=gen.DIM)[1] == vec


def test_patched_restores_every_attribute():
    tracer = Tracer()
    assert len(tracer.originals) == len(tracing.TARGETS)
    with tracer.patched():
        for owner, attr, original in tracer.originals:
            assert vars(owner)[attr] is not original
        assert not tracer.restored()
    assert tracer.restored()
    assert all(vars(owner)[attr] is original for owner, attr, original in tracer.originals)


def test_patched_restores_on_error():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.patched():
            raise RuntimeError("boom")
    assert tracer.restored()


def test_spans_record_parents_threads_and_batches():
    from sketchlsh import LshConfig
    from sketchlsh.hashing import HashFamily
    from sketchlsh.sketch import TopkapiSketch

    family = HashFamily.from_config(LshConfig())
    vec = gen.planted_data(1, n_background=1, n_queries=1, batch_size=1).dataset[0][1]
    tracer = Tracer()
    tracer.batch = 7
    with tracer.patched():
        tracer.call("outer", family.addresses, vec)
        sketch = TopkapiSketch(2, 4, np.array([1, 2], dtype=np.uint64))
        worker = threading.Thread(
            target=sketch.insert_many, args=(np.arange(5, dtype=np.uint64),), name="rank-1"
        )
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        restored, _ = TopkapiSketch.from_bytes(sketch.to_bytes())
    assert restored == sketch
    names = {s.name: s for s in tracer.spans}
    assert names["hashing.addresses"].parent is names["outer"]
    assert names["outer"].parent is None
    assert names["sketch.insert_many"].thread == "rank-1"
    assert names["sketch.insert_many"].count == 5
    assert names["sketch.from_bytes"].batch == 7
    rows = tracer.to_rows()
    assert rows[[r[0] for r in rows].index("hashing.addresses")][3] == [
        r[0] for r in rows
    ].index("outer")


def test_self_time_subtracts_covered_child_time():
    root = Span("root", 0.0, 10.0)
    a = Span("a", 1.0, 4.0, parent=root)
    b = Span("b", 3.0, 6.0, parent=root)  # overlaps a: together they cover 1..6
    c = Span("c", 8.0, 12.0, parent=root)  # runs past its parent: only 8..10 counts
    leaf = Span("leaf", 2.0, 3.0, parent=a)
    own = self_times([root, a, b, c, leaf])
    assert own[id(root)] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[id(a)] == pytest.approx(2.0)
    assert own[id(b)] == pytest.approx(3.0)
    assert own[id(c)] == pytest.approx(4.0)
    assert own[id(leaf)] == pytest.approx(1.0)
