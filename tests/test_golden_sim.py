"""Golden simulated-time and statistics pins.

Host-side optimisations (parse memoization, cached file sizes, a
cheaper lease pick, linear-time column statistics) must never move
simulated outcomes or the statistics the optimizer plans from.  Each
test here replays a fixed, seeded workload and compares its results
against values recorded before those optimisations landed, at full
float precision.  A mismatch means the simulation or the statistics
changed, not the host speed: regenerate a pin only for a deliberate
model change.
"""

import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

import repro
from repro.bench import fresh_hibench
from repro.common.config import (
    HEARTBEAT_ENABLED,
    PARALLEL_WORKERS,
    SCHED_MAX_CONCURRENT,
    SCHED_POLICY,
    SCHED_POOLS,
)
from repro.workloads.hibench import HIBENCH_AGGREGATE, HIBENCH_JOIN, hibench_ddl
from repro.workloads.serving import (
    ServingConfig,
    generate_arrivals,
    load_serving_warehouse,
    run_serving,
)


def _ledger_digest(ledger) -> str:
    """sha256 over every owner's (slot_seconds, queue_wait_seconds)."""
    rows = sorted(
        (query_id, repr(usage.slot_seconds), repr(usage.queue_wait_seconds))
        for query_id, usage in ledger.usage.items()
    )
    return hashlib.sha256(repr(rows).encode()).hexdigest()


class TestGoldenFairServing:
    """A small open loop on llap under the ``fair`` lease policy.

    Two workers and capped pools make both admission and slot leases
    queue: the ledger accrues ~470 s of lease queue wait, and the fair
    pick differs from arrival order on about a quarter of the
    dispatches, so the pin covers the weighted-share arbitration.
    """

    def test_fair_serving_run_is_pinned(self):
        config = ServingConfig(
            num_queries=300, num_sessions=40, rate=2.0,
            pool_weights={"bi": 2.0, "etl": 1.0, "adhoc": 1.0},
            deadline=2.0, deadline_fraction=0.2, seed=5,
        )
        conf = {
            HEARTBEAT_ENABLED: False,
            SCHED_POLICY: "fair",
            SCHED_MAX_CONCURRENT: 8,
            SCHED_POOLS: ("bi:weight=2,cap=4,queue=16; "
                          "etl:weight=1,cap=2,queue=8; "
                          "adhoc:weight=1,cap=2,queue=8"),
        }
        with repro.connect(engine="llap", num_workers=2, conf=conf) as session:
            load_serving_warehouse(session.hdfs, session.metastore,
                                   nominal_gb=0.25, sample_uservisits=600)
            report = run_serving(session, generate_arrivals(config))
            ledger = session.scheduler.runtime.leases.ledger

        assert report.succeeded == 283
        assert report.rejected == 11
        assert report.deadline_misses == 6
        assert report.latency_p50 == 0.0
        assert report.latency_p99 == 25.08131014203012
        assert report.makespan == 155.81357469861695
        assert len(ledger.usage) == 290
        assert _ledger_digest(ledger) == (
            "fb34e4ab962344c4d7810d2702313259a0584efa6304f91df2bff0b21ce0bad2"
        )


ANALYZED_TABLES = (
    "uservisits", "rankings", "uservisits_aggre", "rankings_uservisits_join",
)


def _column_stats_digest(stats) -> str:
    """sha256 over every column's count, nulls, min/max and sketch state."""
    rows = []
    for name in sorted(stats.columns):
        column = stats.columns[name]
        rows.append((
            name, column.count, column.null_count,
            repr(column.min_value), repr(column.max_value),
            column.ndv_sketch.state(), column.heavy.state(),
            column.heavy.items(), column.heavy.heavy_hitters(0.01),
        ))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _etl_session():
    """Hadoop session over a 6,000-visit HiBench warehouse after the
    AGGREGATE and JOIN inserts.

    ``uservisits`` spans 4 part-files, so per-file sketches that have
    hit capacity are merged; each table has columns with more distinct
    values than the 64-slot heavy-hitter sketch holds, so every table
    exercises eviction.
    """
    hdfs, metastore = fresh_hibench(1.0, sample_uservisits=6000)
    session = repro.connect(engine="hadoop", hdfs=hdfs, metastore=metastore,
                            conf={PARALLEL_WORKERS: 0})
    session.execute(hibench_ddl())
    session.execute(HIBENCH_AGGREGATE)
    session.execute(HIBENCH_JOIN)
    return session


def analyze_digests() -> dict:
    """``(row count, column-stats digest)`` per table after ANALYZE."""
    digests = {}
    with _etl_session() as session:
        for table in ANALYZED_TABLES:
            session.execute(
                f"ANALYZE TABLE {table} COMPUTE STATISTICS FOR COLUMNS")
            stats = session.metastore.get_table_stats(table)
            digests[table] = (stats.row_count, _column_stats_digest(stats))
    return digests


#: Recorded at the commit before the linear-time ANALYZE rewrite.
GOLDEN_ANALYZE = {
    "uservisits": (
        6000, "54c9c53bbbeb5f6848c92960e9b0108a18aaa5956b019666ac0c9da8bd0a78b9"),
    "rankings": (
        750, "aab56849872206e18135f7af287c37a8572d63df86d06c2ca1674e46b32f1349"),
    "uservisits_aggre": (
        93, "2602df3c811f251912ee5e2286ee5910afe3af55cf4ea4f5f6823397dba2207e"),
    "rankings_uservisits_join": (
        93, "966ebd392ae7fa6f5c5cd6b00be24800bf35468b59e8c1c025ab06ea6c11d861"),
}


class TestGoldenAnalyze:
    """Column statistics of a small HiBench ETL pass, bit for bit."""

    def test_analyze_is_pinned(self):
        assert analyze_digests() == GOLDEN_ANALYZE

    def test_pinned_tables_hold_no_nan(self):
        # NaN is excluded from min/max; a NaN here would let that rule
        # move the pin rather than the sketches it guards.
        with _etl_session() as session:
            for table in ANALYZED_TABLES:
                location = session.metastore.get_table(table).location
                for data_file in session.hdfs.list_dir(location):
                    for row in data_file.rows:
                        assert not any(
                            isinstance(v, float) and math.isnan(v) for v in row
                        )

    @pytest.mark.parametrize("hash_seed", ["0", "777", "12345"])
    def test_analyze_digest_independent_of_hash_seed(self, hash_seed):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       [os.path.join(root, "src"), root]))
        out = subprocess.run(
            [sys.executable, "-c",
             "import json; from tests.test_golden_sim import analyze_digests; "
             "print(json.dumps(analyze_digests()))"],
            cwd=root, env=env, capture_output=True, text=True, check=True,
        ).stdout
        digests = {table: tuple(value)
                   for table, value in json.loads(out).items()}
        assert digests == GOLDEN_ANALYZE
