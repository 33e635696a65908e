"""Tests for repro.stats: sketches (property-based), collection, freshness.

The sketch properties pinned here are exactly what the optimizer relies
on: determinism across processes (plans must not differ between runs),
merge associativity (per-file sketches merged in any grouping equal one
global sketch), and the documented error bounds (estimates are close
enough to steer join choices).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import HDFS, Metastore, connect
from repro.common.rows import Schema
from repro.stats import sketches
from repro.stats.model import ColumnStats, TableStats, collect_table_stats, table_fingerprint
from repro.stats.sketches import (
    KMVSketch,
    SpaceSavingSketch,
    kmv_from_values,
    spacesaving_from_values,
    value_hash64,
    value_order_key,
)

# Ints and short strings only: Python dict/set equality merges 1, 1.0 and
# True into one key, which would make "distinct count" ambiguous between
# the sketch (canonical-bytes identity) and the reference Counter.
values_st = st.one_of(st.integers(-1000, 1000), st.text(max_size=6))
value_lists = st.lists(values_st, max_size=200)


def distinct(values):
    return len({value_order_key(v) for v in values})


class TestKMVSketch:
    @given(value_lists)
    def test_deterministic_and_order_independent(self, values):
        a = kmv_from_values(values, k=16)
        b = kmv_from_values(list(reversed(values)), k=16)
        assert a == b
        assert a.estimate() == b.estimate()

    @given(value_lists, st.integers(1, 7))
    def test_merge_of_blocks_equals_global_sketch(self, values, num_blocks):
        direct = kmv_from_values(values, k=16)
        blocks = [values[i::num_blocks] for i in range(num_blocks)]
        merged = KMVSketch(16)
        for block in blocks:
            merged = merged.merge(kmv_from_values(block, k=16))
        assert merged == direct

    @given(value_lists, value_lists, value_lists)
    def test_merge_associative_and_commutative(self, xs, ys, zs):
        a, b, c = (kmv_from_values(v, k=16) for v in (xs, ys, zs))
        assert a.merge(b) == b.merge(a)
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    @given(st.lists(values_st, max_size=15))
    def test_exact_below_capacity(self, values):
        sketch = kmv_from_values(values, k=16)
        assert sketch.estimate() == distinct(values)

    def test_error_bound_at_scale(self):
        # 20k distinct ints at k=256: documented relative standard error
        # is ~1/sqrt(k-2) ~= 6%; this fixed input lands well inside 3x.
        sketch = kmv_from_values(range(20_000), k=256)
        estimate = sketch.estimate()
        assert abs(estimate - 20_000) / 20_000 < 0.18

    def test_hash_is_process_stable(self):
        # Pinned values: a PYTHONHASHSEED-dependent hash would change
        # these between runs (and change plans between runs with it).
        assert value_hash64("eng") == 0xF8EE870B7E30DE53
        assert value_hash64(7) == 0xA6633073FB0CB18E

    def test_mixed_types_hash_distinct(self):
        assert value_hash64(1) != value_hash64(1.0)
        assert value_hash64("1") != value_hash64(1)

    def test_rejects_mismatched_k(self):
        with pytest.raises(ValueError):
            KMVSketch(16).merge(KMVSketch(32))


class TestSpaceSavingSketch:
    @given(value_lists)
    def test_never_undercounts_and_bounded_overcount(self, values):
        sketch = spacesaving_from_values(values, capacity=8)
        true = {}
        for v in values:
            true[value_order_key(v)] = true.get(value_order_key(v), 0) + 1
        for value, count, error in sketch.items():
            actual = true[value_order_key(value)]
            assert count >= actual
            assert count - actual <= error
            assert error <= sketch.total / sketch.capacity

    @given(st.lists(values_st, max_size=40))
    def test_exact_below_capacity(self, values):
        sketch = spacesaving_from_values(values, capacity=64)
        true = {}
        for v in values:
            true[value_order_key(v)] = true.get(value_order_key(v), 0) + 1
        assert len(sketch.items()) == len(true)
        for value, count, error in sketch.items():
            assert count == true[value_order_key(value)]
            assert error == 0

    @given(value_lists, st.integers(1, 5))
    def test_merge_exact_while_under_capacity(self, values, num_blocks):
        # documented: merges are bit-identical to the global sketch while
        # no participating summary has hit capacity
        direct = spacesaving_from_values(values, capacity=512)
        merged = SpaceSavingSketch(512)
        for i in range(num_blocks):
            merged = merged.merge(
                spacesaving_from_values(values[i::num_blocks], capacity=512)
            )
        assert merged == direct

    @given(value_lists, value_lists)
    def test_merge_preserves_no_undercount(self, xs, ys):
        merged = spacesaving_from_values(xs, capacity=8).merge(
            spacesaving_from_values(ys, capacity=8)
        )
        true = {}
        for v in xs + ys:
            true[value_order_key(v)] = true.get(value_order_key(v), 0) + 1
        for value, count, _error in merged.items():
            assert count >= true[value_order_key(value)]
        assert merged.total == len(xs) + len(ys)

    @given(values_st, st.integers(1, 50))
    def test_weighted_add_equals_repeated_add(self, value, count):
        weighted = SpaceSavingSketch(8)
        weighted.add(value, count)
        repeated = SpaceSavingSketch(8)
        for _ in range(count):
            repeated.add(value)
        assert weighted == repeated

    def test_heavy_hitter_guarantee(self):
        # any value above total/capacity must be present in the summary
        values = ["hot"] * 500 + [f"cold{i}" for i in range(100)]
        sketch = spacesaving_from_values(values, capacity=16)
        assert sketch.estimate("hot") >= 500
        assert sketch.share("hot") >= 500 / sketch.total
        assert sketch.heavy_hitters(0.5)[0][0] == "hot"

    def test_untracked_value_share_is_none(self):
        sketch = spacesaving_from_values(range(100), capacity=4)
        assert sketch.share("never-seen") is None

    def test_eviction_deterministic(self):
        # min-count ties broken on canonical bytes, not insertion order
        a = SpaceSavingSketch(2)
        b = SpaceSavingSketch(2)
        for v in ("x", "y", "z"):
            a.add(v)
        for v in ("y", "x", "z"):
            b.add(v)
        assert a == b


class ScanSpaceSaving:
    """Reference Space-Saving summary: eviction scans every counter for
    the smallest ``(count, value_order_key)``, first in dict order on a
    tie.  The heap-ordered sketch must match its state bit for bit."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.total = 0
        self.counts = {}
        self.errors = {}

    def add(self, value, count=1):
        self.total += count
        if value in self.counts:
            self.counts[value] += count
            return
        if len(self.counts) < self.capacity:
            self.counts[value] = count
            self.errors[value] = 0
            return
        victim = min(self.counts,
                     key=lambda v: (self.counts[v], value_order_key(v)))
        floor = self.counts.pop(victim)
        self.errors.pop(victim)
        self.counts[value] = floor + count
        self.errors[value] = floor

    def merge(self, other):
        def floor(side):
            full = len(side.counts) >= side.capacity
            return min(side.counts.values()) if full else 0

        floor_self, floor_other = floor(self), floor(other)
        combined = {}
        for value in set(self.counts) | set(other.counts):
            count = error = 0
            for side, side_floor in ((self, floor_self), (other, floor_other)):
                if value in side.counts:
                    count += side.counts[value]
                    error += side.errors[value]
                else:
                    count += side_floor
                    error += side_floor
            combined[value] = (count, error)
        merged = ScanSpaceSaving(self.capacity)
        merged.total = self.total + other.total
        survivors = sorted(
            combined.items(),
            key=lambda item: (-item[1][0], value_order_key(item[0])),
        )[: self.capacity]
        for value, (count, error) in survivors:
            merged.counts[value] = count
            merged.errors[value] = error
        return merged

    def state(self):
        return (self.capacity, self.total, tuple(sorted(
            (value_order_key(v), c, self.errors[v])
            for v, c in self.counts.items()
        )))


# few distinct values, so streams repeat heavily and evict often
repeating_st = st.one_of(st.integers(0, 12), st.sampled_from("abcdefgh"),
                         st.text(alphabet="xyz", max_size=2))
weighted_streams = st.lists(st.tuples(repeating_st, st.integers(1, 5)),
                            max_size=80)


class TestSpaceSavingEquivalence:
    """The lazy min-heap evicts exactly what a full scan would."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8), weighted_streams)
    def test_state_matches_scan_after_every_add(self, capacity, stream):
        sketch = SpaceSavingSketch(capacity)
        reference = ScanSpaceSaving(capacity)
        for value, count in stream:
            sketch.add(value, count)
            reference.add(value, count)
            assert sketch.state() == reference.state()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8), weighted_streams, weighted_streams,
           weighted_streams)
    def test_merge_then_adds_match_scan(self, capacity, xs, ys, after):
        sides = []
        for stream in (xs, ys):
            sketch = SpaceSavingSketch(capacity)
            reference = ScanSpaceSaving(capacity)
            for value, count in stream:
                sketch.add(value, count)
                reference.add(value, count)
            sides.append((sketch, reference))
        (a, ref_a), (b, ref_b) = sides
        merged, ref_merged = a.merge(b), ref_a.merge(ref_b)
        assert merged.state() == ref_merged.state()
        for value, count in after:
            merged.add(value, count)
            ref_merged.add(value, count)
            assert merged.state() == ref_merged.state()

    def test_equal_order_keys_evict_earliest_admitted(self):
        # distinct NaN objects are distinct keys with identical bytes
        first, second = float("nan"), float("nan")
        sketch = SpaceSavingSketch(2)
        reference = ScanSpaceSaving(2)
        for value in (first, second, "x"):
            sketch.add(value)
            reference.add(value)
        tracked = [value for value, _count, _error in sketch.items()]
        assert any(value is second for value in tracked)
        assert not any(value is first for value in tracked)
        assert sketch.state() == reference.state()

    def test_merge_of_equal_values_keeps_left_object(self):
        # 1 and 1.0 are one dict key but encode differently: the merged
        # counter is keyed, and ordered, by the left side's value
        for left, right in ((1, 1.0), (1.0, 1)):
            a, b = SpaceSavingSketch(2), SpaceSavingSketch(2)
            ref_a, ref_b = ScanSpaceSaving(2), ScanSpaceSaving(2)
            for sketch, reference, value in ((a, ref_a, left), (b, ref_b, right)):
                for item in (value, "k", "k"):
                    sketch.add(item)
                    reference.add(item)
            merged, ref_merged = a.merge(b), ref_a.merge(ref_b)
            assert merged.state() == ref_merged.state()
            assert {type(v) for v, _count, _error in merged.items()} == {
                type(left), str}
            merged.add("z")
            ref_merged.add("z")
            assert merged.state() == ref_merged.state()

    def test_eviction_computes_order_keys_once_per_admission(self, monkeypatch):
        # guards the per-eviction rescan: serializing every tracked value
        # on each eviction costs ~capacity order keys per admitted value
        calls = {"order_key": 0, "serialize": 0}
        order_key, serialize = sketches.value_order_key, sketches.serialize_fields

        def counted_order_key(value):
            calls["order_key"] += 1
            return order_key(value)

        def counted_serialize(fields):
            calls["serialize"] += 1
            return serialize(fields)

        monkeypatch.setattr(sketches, "value_order_key", counted_order_key)
        monkeypatch.setattr(sketches, "serialize_fields", counted_serialize)
        capacity, admitted = 64, 5000
        sketch = SpaceSavingSketch(capacity)
        for value in range(admitted):
            sketch.add(value)
        sketch.state()
        sketch.items()
        sketch.heavy_hitters(0.0)
        assert calls["order_key"] <= admitted + capacity
        assert calls["serialize"] <= admitted + capacity


class TestColumnStats:
    def test_observe_tracks_nulls_and_range(self):
        stats = ColumnStats(name="v")
        for value in (5, None, 1, 9, None):
            stats.observe(value)
        assert stats.count == 5 and stats.null_count == 2
        assert stats.min_value == 1 and stats.max_value == 9
        assert stats.non_null_fraction == pytest.approx(0.6)
        assert stats.ndv == 3.0

    def test_bool_not_treated_as_numeric_range(self):
        stats = ColumnStats(name="flag")
        stats.observe(True)
        assert stats.min_value is None and stats.max_value is None

    @given(st.lists(st.one_of(values_st, st.none()), max_size=120),
           st.integers(1, 4))
    def test_block_merge_equals_single_pass(self, values, num_blocks):
        direct = ColumnStats(name="c")
        for v in values:
            direct.observe(v)
        merged = ColumnStats(name="c")
        for i in range(num_blocks):
            block = ColumnStats(name="c")
            for v in values[i::num_blocks]:
                block.observe(v)
            merged = merged.merge(block)
        assert merged.count == direct.count
        assert merged.null_count == direct.null_count
        assert merged.min_value == direct.min_value
        assert merged.max_value == direct.max_value
        assert merged.ndv_sketch == direct.ndv_sketch

    @given(st.lists(st.one_of(st.just(math.nan), st.floats(), st.integers(-5, 5),
                              st.none()),
                    max_size=60),
           st.integers(1, 4))
    def test_block_merge_equals_single_pass_with_nan(self, values, num_blocks):
        direct = ColumnStats(name="c")
        direct.observe_column(values)
        blocks = []
        for i in range(num_blocks):
            block = ColumnStats(name="c")
            block.observe_column(values[i::num_blocks])
            blocks.append(block)
        merged = forward = ColumnStats(name="c")
        for block in blocks:
            forward = forward.merge(block)
        for block in reversed(blocks):
            merged = merged.merge(block)
        for stats in (forward, merged):
            assert stats.count == direct.count
            assert stats.null_count == direct.null_count
            assert stats.min_value == direct.min_value
            assert stats.max_value == direct.max_value
            assert stats.ndv_sketch == direct.ndv_sketch
        for bound in (direct.min_value, direct.max_value):
            assert not (isinstance(bound, float) and math.isnan(bound))

    def test_nan_position_does_not_move_range(self):
        nan = float("nan")
        orders = ([nan, 1.0, 5.0], [1.0, nan, 5.0], [1.0, 5.0, nan])
        for values in orders:
            stats = ColumnStats(name="v")
            for value in values:
                stats.observe(value)
            assert (stats.min_value, stats.max_value) == (1.0, 5.0)
            assert stats.count == 3 and stats.ndv == 3.0
            assert stats.selectivity("<", 3.0) == pytest.approx(0.5)
        x, y = ColumnStats(name="v"), ColumnStats(name="v")
        x.observe_column([nan, 1.0])
        y.observe_column([5.0, nan])
        for merged in (x.merge(y), y.merge(x)):
            assert (merged.min_value, merged.max_value) == (1.0, 5.0)

    def test_signed_zeros_are_distinct_ndv_members(self):
        # 0.0 == -0.0 as dict keys, but their canonical bytes differ
        stats = ColumnStats(name="v")
        stats.observe_column([0.0, -0.0, 1.5])
        assert len(stats.ndv_sketch.state()[1]) == 3
        # ...as are 1, 1.0 and True
        stats = ColumnStats(name="v")
        stats.observe_column([0.0, -0.0, 1.5, 0.0, 1, True])
        assert len(stats.ndv_sketch.state()[1]) == 5
        assert stats.ndv_sketch == kmv_from_values([0.0, -0.0, 1.5, 1, True])

    def test_equality_selectivity_uses_heavy_hitters(self):
        stats = ColumnStats(name="k")
        for _ in range(80):
            stats.observe("hot")
        for i in range(20):
            stats.observe(f"c{i}")
        assert stats.selectivity("=", "hot") == pytest.approx(0.8)

    def test_range_selectivity_interpolates(self):
        stats = ColumnStats(name="v")
        for i in range(101):
            stats.observe(i)
        assert stats.selectivity("<", 25) == pytest.approx(0.25)
        assert stats.selectivity(">=", 25) == pytest.approx(0.75)
        assert stats.selectivity("<", -5) == 0.0
        assert stats.selectivity("<", 1000) == 1.0

    def test_unknown_op_neutral(self):
        stats = ColumnStats(name="v")
        stats.observe(1)
        assert stats.selectivity("like", "x") == 1.0


def small_warehouse():
    hdfs = HDFS(num_workers=3)
    metastore = Metastore(hdfs)
    schema = Schema.parse("k int, v string")
    table = metastore.create_table("t", schema)
    hdfs.write(f"{table.location}/part-0", schema,
               [(i % 4, f"v{i}") for i in range(40)], scale=100.0)
    hdfs.write(f"{table.location}/part-1", schema,
               [(9, "x")] * 10, scale=100.0)
    return hdfs, metastore, table


class TestCollectionAndFreshness:
    def test_collect_merges_files(self):
        hdfs, _metastore, table = small_warehouse()
        stats = collect_table_stats(hdfs, table)
        assert stats.row_count == 50
        assert stats.total_bytes == pytest.approx(table.logical_bytes(hdfs))
        k = stats.column("k")
        assert k.count == 50 and k.ndv == 5.0
        assert k.min_value == 0 and k.max_value == 9

    def test_basic_only_skips_rows(self):
        hdfs, _metastore, table = small_warehouse()
        stats = collect_table_stats(hdfs, table, with_columns=False)
        assert stats.row_count == 50
        assert not stats.has_column_stats
        # neutral by construction: no conjunct can shrink an estimate
        assert stats.conjunct_selectivity([("k", "=", 9)]) == 1.0

    def test_metastore_round_trip(self):
        hdfs, metastore, table = small_warehouse()
        stats = collect_table_stats(hdfs, table)
        epoch = metastore.stats_epoch
        metastore.put_table_stats(stats)
        assert metastore.stats_epoch == epoch + 1
        loaded = metastore.get_table_stats("T")  # case-insensitive
        assert loaded is stats
        assert loaded.column("K").ndv_sketch == stats.column("k").ndv_sketch

    def test_analyze_does_not_bump_catalog_version(self):
        hdfs, metastore, table = small_warehouse()
        version = metastore.version
        metastore.put_table_stats(collect_table_stats(hdfs, table))
        assert metastore.version == version

    def test_stale_after_new_file(self):
        hdfs, metastore, table = small_warehouse()
        metastore.put_table_stats(collect_table_stats(hdfs, table))
        hdfs.write(f"{table.location}/part-2", table.schema,
                   [(1, "new")], scale=100.0)
        assert metastore.get_table_stats("t") is None
        assert "t" in metastore.stats_tables()  # recorded but withheld

    def test_fingerprint_tracks_content(self):
        hdfs, _metastore, table = small_warehouse()
        before = table_fingerprint(hdfs, table.location)
        hdfs.delete(f"{table.location}/part-0")
        hdfs.write(f"{table.location}/part-0", table.schema,
                   [(1, "rewritten")], scale=100.0)
        assert table_fingerprint(hdfs, table.location) != before

    def test_truncate_drops_stats(self):
        hdfs, metastore, table = small_warehouse()
        metastore.put_table_stats(collect_table_stats(hdfs, table))
        epoch = metastore.stats_epoch
        metastore.truncate_table("t")
        assert metastore.get_table_stats("t") is None
        assert metastore.stats_tables() == []
        assert metastore.stats_epoch == epoch + 1

    def test_drop_table_drops_stats(self):
        hdfs, metastore, table = small_warehouse()
        metastore.put_table_stats(collect_table_stats(hdfs, table))
        metastore.drop_table("t")
        assert metastore.stats_tables() == []


class TestAnalyzeStatement:
    def test_analyze_basic_and_columns(self, local_session):
        basic = local_session.query("ANALYZE TABLE emp COMPUTE STATISTICS")
        table, rows, total_bytes, column_stats = basic.rows[0]
        assert (table, rows) == ("emp", 7)
        assert total_bytes == pytest.approx(
            local_session.metastore.get_table("emp").logical_bytes(
                local_session.hdfs),
            rel=0.01)
        assert column_stats == 0  # no column stats yet
        full = local_session.query(
            "ANALYZE TABLE emp COMPUTE STATISTICS FOR COLUMNS"
        )
        assert full.rows[0][3] == 5
        stats = local_session.metastore.get_table_stats("emp")
        assert stats.column("dept").null_count == 1
        assert stats.column("salary").max_value == 120.0

    def test_session_stats_summary(self, local_session):
        local_session.execute("ANALYZE TABLE dept COMPUTE STATISTICS FOR COLUMNS")
        summary = local_session.stats("dept")
        assert summary["row_count"] == 3
        assert summary["columns"]["region"]["ndv"] == 2.0
        assert local_session.stats("emp") == {"table": "emp", "stats": None}
        assert set(local_session.stats()) == {"dept"}

    def test_insert_refreshes_stats(self, local_session):
        local_session.execute("ANALYZE TABLE emp COMPUTE STATISTICS FOR COLUMNS")
        assert local_session.metastore.get_table_stats("emp").has_column_stats
        local_session.execute(
            "CREATE TABLE emp2 (name string, salary double)"
        )
        local_session.execute(
            "INSERT OVERWRITE TABLE emp2 SELECT name, salary FROM emp"
        )
        # autogathered basic stats are fresh for the new data...
        stats = local_session.metastore.get_table_stats("emp2")
        assert stats is not None and stats.row_count == 7
        # ...but column sketches require an explicit ANALYZE
        assert not stats.has_column_stats

    def test_ctas_autogathers(self, local_session):
        local_session.execute(
            "CREATE TABLE eng AS SELECT name FROM emp WHERE dept = 'eng'"
        )
        stats = local_session.metastore.get_table_stats("eng")
        assert stats is not None and stats.row_count == 3

    def test_autogather_disabled(self, warehouse):
        hdfs, metastore = warehouse
        session = connect(engine="local", hdfs=hdfs, metastore=metastore,
                          conf={"repro.stats.auto": False})
        session.execute("CREATE TABLE c AS SELECT name FROM emp")
        assert session.metastore.get_table_stats("c") is None
