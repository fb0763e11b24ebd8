"""One batch call per run: disk cache, cap rule, labels and pool."""

import json
import logging
import os
from pathlib import Path

import pytest

import quiver_atlas.cache as cache_mod
from quiver_atlas.cache import (
    CacheCorrupt,
    DEFAULT_CACHE_DIR,
    cache_path,
    default_cache_dir,
    explore_classes,
    load_report,
    store_report,
)
from quiver_atlas.canonical import canonical_form, canonical_key
from quiver_atlas.correspondence import classify_cell
from quiver_atlas.explore import (
    DEFAULT_CAP,
    Classification,
    explore,
    replay,
    report_to_dict,
)
from quiver_atlas.grassmannian import GrassmannianSpec, initial_quiver
from quiver_atlas.matrix import ExchangeMatrix
from quiver_atlas.verify import compute_grid

EXPLORE_LOG = "QUIVER_ATLAS_TEST_EXPLORE_LOG"


def logged_explore(start, cap=DEFAULT_CAP):
    """explore() that appends the start's canonical key to $EXPLORE_LOG.

    Module level and file backed, so that a process pool can pickle it and
    its workers' calls are counted too.
    """
    with open(os.environ[EXPLORE_LOG], "a") as f:
        f.write(canonical_key(start).hex() + "\n")
    return explore(start, cap)


@pytest.fixture
def explored(tmp_path, monkeypatch):
    """Counts explore() calls; returns a reader of the logged start keys."""
    log = tmp_path / "explored.log"
    log.touch()
    monkeypatch.setenv(EXPLORE_LOG, str(log))
    monkeypatch.setattr(cache_mod, "explore", logged_explore)
    return lambda: log.read_text().split()


def grid_starts(pmax, qmax):
    return {
        canonical_key(initial_quiver(GrassmannianSpec(p, q))).hex()
        for p in range(2, pmax + 1)
        for q in range(2, qmax + 1)
    }


def test_grid_explores_each_class_once(explored):
    compute_grid(6, 6)
    starts = grid_starts(6, 6)
    assert len(explored()) == len(starts)
    assert set(explored()) == starts


def test_workers_explore_each_class_once(explored):
    serial = compute_grid(5, 5)
    serial_calls = len(explored())
    parallel = compute_grid(5, 5, workers=2)
    calls = explored()[serial_calls:]
    assert len(calls) == 10
    assert set(calls) == grid_starts(5, 5)
    assert parallel == serial


def test_classify_cell_explores_only_its_class(explored):
    row = classify_cell(4, 4)
    assert row.cluster.type_name == "E7(1,1)"
    start = initial_quiver(GrassmannianSpec(4, 4))
    assert explored() == [canonical_key(start).hex()]


def test_cached_and_uncached_grids_agree(grid7, grid_cache):
    uncached = compute_grid(7, 7)
    warm = compute_grid(7, 7, cache_dir=grid_cache)
    for cell, row in uncached.items():
        assert row.cluster == grid7[cell].cluster, cell
        assert row.cluster == warm[cell].cluster, cell


def test_inconclusive_not_reused_at_larger_cap(tmp_path, explored):
    start = initial_quiver(GrassmannianSpec(2, 6))  # A5, 19 members
    [small] = explore_classes([start], 10, cache_dir=tmp_path)
    assert small.classification is Classification.INCONCLUSIVE
    # an inconclusive entry answers its own cap, and no other
    assert explore_classes([start], 10, cache_dir=tmp_path) == [small]
    assert len(explored()) == 1
    [full] = explore_classes([start], cache_dir=tmp_path)
    assert len(explored()) == 2
    assert full.classification is Classification.FINITE_TYPE
    assert full.class_size == 19
    # a later run at the small cap gives what explore gives at that cap
    assert explore_classes([start], 10, cache_dir=tmp_path) == explore_classes(
        [start], 10
    )


def test_stored_report_served_only_where_explore_agrees(tmp_path, explored):
    # A5 (finite, 19 members), E7(1,1) (finite-mutation, 506) and (4,5),
    # whose witness the probe finds: explore(start, c) gives the stored
    # report iff c >= its explored count, and only then is it read
    for p, q, count in [(2, 6, 19), (4, 4, 506), (4, 5, 1)]:
        start = initial_quiver(GrassmannianSpec(p, q))
        cache_dir = tmp_path / f"{p}-{q}"
        [stored] = explore_classes([start], cache_dir=cache_dir)
        caps = sorted({1, 10, count - 1, count, DEFAULT_CAP, 2 * DEFAULT_CAP} - {0})
        hits = []
        for cap in caps:
            calls = len(explored())
            [cached] = explore_classes([start], cap, cache_dir=cache_dir)
            hits.append(len(explored()) == calls)
            assert [cached] == explore_classes([start], cap), (p, q, cap)
        assert hits == [cap >= count for cap in caps], (p, q)
        assert stored.explored == count


def test_cached_cell_at_smaller_cap_matches_uncached(tmp_path):
    classify_cell(4, 4, cache_dir=tmp_path)  # E7(1,1), 506 members
    uncached = classify_cell(4, 4, cap=100)
    assert uncached.cluster.classification is Classification.INCONCLUSIVE
    assert uncached.cluster.explored == 100
    assert classify_cell(4, 4, cap=100, cache_dir=tmp_path) == uncached


def test_inconclusive_never_replaces_larger_cap_entry(tmp_path, explored):
    full = classify_cell(4, 4, cache_dir=tmp_path).cluster  # E7(1,1)
    small = classify_cell(4, 4, cap=100, cache_dir=tmp_path).cluster
    assert small.classification is Classification.INCONCLUSIVE
    assert len(explored()) == 2
    # the default-cap entry is still there and answers the next call
    again = classify_cell(4, 4, cache_dir=tmp_path).cluster
    assert len(explored()) == 2
    assert again == full
    assert again.class_size == 506


@pytest.mark.parametrize(
    "tamper", ["class-size", "schema-2", "schema-3", "foreign-class"]
)
def test_corrupt_entry_replaced_by_inconclusive_recompute(tmp_path, caplog, tamper):
    classify_cell(4, 4, cache_dir=tmp_path)  # E7(1,1), 506 members
    (path,) = tmp_path.glob("*.json")
    payload = json.loads(path.read_text())
    if tamper == "class-size":
        payload["report"]["class_size"] = 7
    elif tamper == "foreign-class":
        # the entry of another class of rank 9, nine isolated vertices: it
        # rebuilds to itself, but its one member key is not the start's
        other = explore(ExchangeMatrix.from_rows([[0] * 9] * 9))
        payload["report"] = report_to_dict(other)
        payload["member_keys"] = list(other.member_keys)
    elif tamper == "schema-2":  # as written before the stored cap was dropped
        payload["schema_version"], payload["cap"] = 2, DEFAULT_CAP
    else:  # as written before disconnected quivers changed keys
        payload["schema_version"] = 3
    path.write_text(json.dumps(payload))
    uncached = classify_cell(4, 4, cap=100)
    with caplog.at_level(logging.WARNING, logger=cache_mod.__name__):
        assert classify_cell(4, 4, cap=100, cache_dir=tmp_path) == uncached
        assert len(caplog.records) == 1
        # the recompute replaced the corrupt entry, which warns no more
        assert classify_cell(4, 4, cap=100, cache_dir=tmp_path) == uncached
    assert len(caplog.records) == 1
    assert json.loads(path.read_text())["report"]["explored"] == 100


def test_witness_in_caller_labels(explored):
    start = initial_quiver(GrassmannianSpec(4, 5))
    perm = list(reversed(range(start.n)))
    relabelled = start.permuted(perm)
    reports = explore_classes([start, relabelled])
    assert explored() == [canonical_key(start).hex()]
    assert reports[0].infinite_witness != reports[1].infinite_witness
    for m, report in zip((start, relabelled), reports):
        assert report.classification is Classification.INFINITE_MUTATION_TYPE
        assert replay(m, report.infinite_witness).max_weight() >= 3


def test_each_start_canonicalised_once(monkeypatch):
    calls = []

    def counted(m):
        calls.append(m)
        return canonical_form(m)

    monkeypatch.setattr(cache_mod, "canonical_form", counted)
    compute_grid(5, 5, workers=2)
    assert len(calls) == 16


def test_no_pool_unless_two_classes_to_explore(tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("pool started")

    warm = compute_grid(5, 5, cache_dir=tmp_path)
    monkeypatch.setattr(cache_mod, "ProcessPoolExecutor", no_pool)
    assert compute_grid(5, 5, workers=2, cache_dir=tmp_path) == warm
    # a batch of one class explores it in the calling process
    start = initial_quiver(GrassmannianSpec(4, 5))
    batch = [start, start.permuted(list(reversed(range(start.n))))]
    assert explore_classes(batch, workers=2) == explore_classes(batch)


def test_store_leaves_foreign_temp_file(tmp_path):
    start = initial_quiver(GrassmannianSpec(3, 3))
    key = canonical_key(start)
    report = explore(start)
    path = cache_path(tmp_path, key)
    foreign = path.with_suffix(".tmp")
    foreign.write_text("half-written by another run")
    assert store_report(tmp_path, key, report) == path
    assert foreign.read_text() == "half-written by another run"
    assert load_report(tmp_path, key, DEFAULT_CAP) == report
    assert sorted(tmp_path.iterdir()) == sorted([path, foreign])


def test_entry_without_start_key_is_corrupt(tmp_path):
    start = initial_quiver(GrassmannianSpec(3, 3))
    key = canonical_key(start)
    path = store_report(tmp_path, key, explore(start))
    payload = json.loads(path.read_text())
    del payload["start_key"]
    path.write_text(json.dumps(payload))
    with pytest.raises(CacheCorrupt):
        load_report(tmp_path, key, DEFAULT_CAP)


@pytest.mark.parametrize("field", ["report", "member_keys", "max_weight_seen"])
def test_missing_field_named_in_warning(tmp_path, caplog, field):
    start = initial_quiver(GrassmannianSpec(3, 3))
    key = canonical_key(start)
    [report] = explore_classes([start], cache_dir=tmp_path)
    path = cache_path(tmp_path, key)
    payload = json.loads(path.read_text())
    holder = payload["report"] if field == "max_weight_seen" else payload
    holder["misspelt_" + field] = holder.pop(field)
    path.write_text(json.dumps(payload))
    with caplog.at_level(logging.WARNING, logger=cache_mod.__name__):
        assert explore_classes([start], cache_dir=tmp_path) == [report]
    (record,) = caplog.records
    assert f"missing field '{field}'" in record.getMessage()


def test_malformed_member_keys_recompute(tmp_path, caplog):
    start = initial_quiver(GrassmannianSpec(3, 3))
    key = canonical_key(start)
    [report] = explore_classes([start], cache_dir=tmp_path)
    path = cache_path(tmp_path, key)
    payload = json.loads(path.read_text())
    payload["member_keys"] = [1, 2, 3, 4, 5, 6]
    path.write_text(json.dumps(payload))
    with pytest.raises(CacheCorrupt):
        load_report(tmp_path, key, DEFAULT_CAP)
    with caplog.at_level(logging.WARNING, logger=cache_mod.__name__):
        assert explore_classes([start], cache_dir=tmp_path) == [report]
    assert len(caplog.records) == 1
    assert load_report(tmp_path, key, DEFAULT_CAP) == report


def _assert_tampered_entry_recomputes(tmp_path, caplog, p, q, cap, tamper):
    """Store the report of the (p, q) grid quiver at ``cap``, tamper with
    its stored fields, and require that the entry is corrupt, that one run
    warns once and recomputes it, and that the rewritten entry loads."""
    start = initial_quiver(GrassmannianSpec(p, q))
    key = canonical_key(start)
    [report] = explore_classes([start], cap, cache_dir=tmp_path)
    stored = load_report(tmp_path, key, cap)  # in canonical labels
    path = cache_path(tmp_path, key)
    payload = json.loads(path.read_text())
    for field, value in tamper.items():
        old = payload["report"][field]
        payload["report"][field] = value(old) if callable(value) else value
    path.write_text(json.dumps(payload))
    with pytest.raises(CacheCorrupt):
        load_report(tmp_path, key, cap)
    with caplog.at_level(logging.WARNING, logger=cache_mod.__name__):
        assert explore_classes([start], cap, cache_dir=tmp_path) == [report]
    assert len(caplog.records) == 1
    assert load_report(tmp_path, key, cap) == stored
    rewritten = json.loads(path.read_text())["report"]  # 1.0 dumps as "1.0"
    assert json.dumps(rewritten, sort_keys=True) == json.dumps(
        report_to_dict(stored), sort_keys=True
    )
    return report


def _floats(witness):
    return [float(v) for v in witness]


@pytest.mark.parametrize(
    "p,q,tamper",
    [
        (4, 5, {"infinite_witness": [999]}),
        (4, 5, {"infinite_witness": [0, 1], "max_weight_seen": 1}),
        (5, 4, {"infinite_witness": _floats}),
        (5, 4, {"max_weight_seen": 3.5}),
        (5, 4, {"explored": True}),
        (5, 4, {"explored": 0}),
    ],
    ids=[
        "vertex-out-of-range",
        "weight-below-3",
        "witness-floats",
        "weight-float",
        "explored-bool",
        "explored-zero",
    ],
)
def test_tampered_infinite_entry_recomputes(tmp_path, caplog, p, q, tamper):
    report = _assert_tampered_entry_recomputes(
        tmp_path, caplog, p, q, DEFAULT_CAP, tamper
    )
    assert report.classification is Classification.INFINITE_MUTATION_TYPE


@pytest.mark.parametrize(
    "tamper",
    [{"max_weight_seen": 1.0}, {"max_weight_seen": True}, {"explored": 6.0}],
    ids=["weight-float", "weight-bool", "explored-float"],
)
def test_tampered_decided_entry_recomputes(tmp_path, caplog, tamper):
    report = _assert_tampered_entry_recomputes(
        tmp_path, caplog, 3, 3, DEFAULT_CAP, tamper
    )
    assert report.classification is Classification.FINITE_TYPE


@pytest.mark.parametrize(
    "tamper",
    [{"explored": 100.0}, {"max_weight_seen": -4}, {"max_weight_seen": "1"}],
    ids=["explored-float", "weight-negative", "weight-string"],
)
def test_tampered_inconclusive_entry_recomputes(tmp_path, caplog, tamper):
    report = _assert_tampered_entry_recomputes(tmp_path, caplog, 3, 5, 100, tamper)
    assert report.classification is Classification.INCONCLUSIVE


def test_disconnected_finite_class_through_cache(tmp_path, caplog, explored):
    rows = [[0] * 5 for _ in range(5)]
    for i, j in [(0, 1), (2, 3), (3, 4)]:  # A2 and A3, disjoint
        rows[i][j], rows[j][i] = 1, -1
    start = ExchangeMatrix.from_rows(rows).permuted([3, 0, 4, 1, 2])
    with caplog.at_level(logging.WARNING, logger=cache_mod.__name__):
        [cold] = explore_classes([start], cache_dir=tmp_path)
        [warm] = explore_classes([start], cache_dir=tmp_path)
    assert not caplog.records
    assert len(explored()) == 1
    assert warm == cold
    assert cold.classification is Classification.FINITE_TYPE
    assert cold.class_size == 4
    assert cold.type_name is None


@pytest.mark.parametrize(
    "value, expected", [("", DEFAULT_CACHE_DIR), ("elsewhere", "elsewhere")]
)
def test_cache_env_var_names_default_cache_dir(monkeypatch, value, expected):
    """An empty $ATLAS_CACHE counts as unset, so cache files never land in
    the working directory."""
    monkeypatch.setenv(cache_mod.CACHE_ENV_VAR, value)
    assert default_cache_dir() == Path(expected)
