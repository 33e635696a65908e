"""Golden simulated-time pins.

Host-side optimisations (parse memoization, cached file sizes, a
cheaper lease pick) must never move simulated outcomes.  Each test here
replays a fixed, seeded workload and compares its simulated results
against values recorded before those optimisations landed, at full
float precision.  A mismatch means the simulation changed, not the
host speed: regenerate a pin only for a deliberate model change.
"""

import hashlib

import repro
from repro.common.config import (
    HEARTBEAT_ENABLED,
    SCHED_MAX_CONCURRENT,
    SCHED_POLICY,
    SCHED_POOLS,
)
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
