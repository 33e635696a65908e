"""The benchmark's three workloads.

Each workload builds its warehouse from the run's seed (``setup``), runs
one timed *pass* (``run_pass``), and checks a pass without the clock
running (``check``): every operation's rows, and the simulated outputs
the pass produced.  ``oracle`` computes the rows the ``local`` engine
produces on the same warehouse.

Simulated seconds are the reproduction's results, not its speed: they
are checked here as outputs and never reported as a metric.

* ``tpch22`` — the 22 TPC-H queries in order on a fresh ``datampi``
  session over a text warehouse: the paper's Table II / Fig. 12 set,
  read side, cold caches (no statement repeats).
* ``hibench_etl`` — HiBench AGGREGATE and JOIN as ``INSERT OVERWRITE``
  on ``hadoop`` over a sequence warehouse, then ``ANALYZE ... FOR
  COLUMNS`` on both outputs: the paper's Fig. 9 queries, write side.
* ``serving_llap`` — an open loop of arrivals on the simulated clock
  against ``llap`` with 100 workers over an ORC warehouse, replayed by
  the host as fast as it can: hot caches (8 catalog queries fit both
  the result cache and the stripe cache).
"""

from __future__ import annotations

import hashlib
import math
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import connect
from repro.bench import fresh_hibench, fresh_tpch
from repro.common.config import (
    HEARTBEAT_ENABLED,
    PARALLEL_WORKERS,
    SCHED_MAX_CONCURRENT,
    SCHED_POLICY,
    SCHED_POOLS,
)
from repro.workloads.hibench import HIBENCH_AGGREGATE, HIBENCH_JOIN, hibench_ddl
from repro.workloads.serving import ServingConfig, generate_arrivals, run_serving
from repro.workloads.tpch import TPCH_QUERY_IDS, tpch_query

#: Generator seeds at ``--seed 0``: the generators' own defaults.
TPCH_SEED = 19920101
HIBENCH_SEED = 1425

#: Every session: compute inline in this process (no worker pool).
BASE_CONF = {PARALLEL_WORKERS: 0}

#: Float agreement the row check demands: the precision of the
#: 9-significant-digit canonical form, without its rounding boundaries.
FLOAT_REL_TOL = 1e-9


# -- row comparison ------------------------------------------------------------

def canonical_row(row) -> str:
    """One row as a digest-stable string; floats at 9 significant digits
    (the same form as ``benchmarks/bench_perf.py``), which absorbs
    accumulation-order noise in the last ulps and nothing else."""
    return "|".join(
        f"{value:.9g}" if isinstance(value, float) else repr(value)
        for value in row
    )


@dataclass
class Rows:
    """One operation's rows: each part in compared order, and their digest."""

    parts: List[list]
    digest: str


def canonical_rows(*parts: Tuple[Sequence, bool]) -> Rows:
    """Digest ``(rows, ordered)`` parts; unordered parts are compared as
    sorted multisets (file order is not a query guarantee)."""
    hasher = hashlib.md5()
    kept = []
    for rows, ordered in parts:
        lines = [(canonical_row(row), row) for row in rows]
        if not ordered:
            lines.sort(key=lambda line: line[0])
        for line, _row in lines:
            hasher.update(line.encode("utf-8"))
            hasher.update(b"\n")
        hasher.update(b"--\n")
        kept.append([row for _line, row in lines])
    return Rows(kept, hasher.hexdigest())


def _values_close(got, want) -> bool:
    if isinstance(got, float) or isinstance(want, float):
        if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
            return False
        return math.isclose(got, want, rel_tol=FLOAT_REL_TOL, abs_tol=1e-12)
    return got == want


def same_rows(got: Rows, want: Rows) -> bool:
    """Equal digests, or equal rows up to :data:`FLOAT_REL_TOL`.

    Rounding to 9 digits splits two values that straddle a rounding
    boundary however close they are (a Q1 sum reads 89170189.25 on the
    ``local`` engine and 89170189.25000003 on ``datampi``, which round
    to ...9.2 and ...9.3), so a digest mismatch is settled value by value.
    """
    if got.digest == want.digest:
        return True
    if len(got.parts) != len(want.parts):
        return False
    for got_rows, want_rows in zip(got.parts, want.parts):
        if len(got_rows) != len(want_rows):
            return False
        for got_row, want_row in zip(got_rows, want_rows):
            if len(got_row) != len(want_row) or not all(
                map(_values_close, got_row, want_row)
            ):
                return False
    return True


# -- passes ---------------------------------------------------------------------

@dataclass
class Pass:
    """What one timed pass produced; ``outcomes`` is checked untimed."""

    wall_s: float
    operations: int
    latencies: List[float] = field(default_factory=list)
    outcomes: Dict[str, object] = field(default_factory=dict)
    caches: Dict[str, object] = field(default_factory=dict)


@dataclass
class Checked:
    rows: List[Tuple[str, Rows]]  # (oracle key, rows) per operation
    outputs: Dict[str, float]
    failed: int  # operations that raised or produced no result


def _report_failure(label: str) -> None:
    # the run continues; the operation counts as failed
    print(f"perfbench: {label} failed:\n{traceback.format_exc()}",
          file=sys.stderr)


class ScriptWorkload:
    """A fixed list of statements, run in order on a fresh session.

    ``probes`` maps a statement key to the table it writes: that
    statement's rows also include the table's rows (as a sorted
    multiset, since file order is not a query guarantee).
    """

    name = ""
    engine = ""
    probes: Dict[str, str] = {}
    #: Report the median statement latency as ``query_p50_s``.  Off where
    #: a pass has a few statements of very different cost: their median
    #: falls in the gap between two of them and jumps from run to run.
    statement_latencies = True

    def __init__(self, seed: int):
        self.seed = seed

    def statements(self) -> List[Tuple[str, str]]:
        raise NotImplementedError

    def setup(self):
        raise NotImplementedError

    def run_pass(self, state, index: int = 0,
                 engine: Optional[str] = None) -> Pass:
        """Run the statements once; every pass runs the same ones, so
        *index* (which pass this is) does not change the inputs."""
        hdfs, metastore = state
        statements = self.statements()
        outcomes: Dict[str, object] = {}
        latencies = []
        start = time.perf_counter()
        session = connect(engine=engine or self.engine, hdfs=hdfs,
                          metastore=metastore, conf=BASE_CONF)
        for key, sql in statements:
            began = time.perf_counter()
            try:
                outcomes[key] = session.execute(sql)
            except Exception as exc:  # counted as a failed operation
                _report_failure(f"{self.name} {key}")
                outcomes[key] = exc
            latencies.append(time.perf_counter() - began)
        caches = session.caches()
        session.close()
        wall = time.perf_counter() - start
        return Pass(wall, len(statements), latencies, outcomes, caches)

    def check(self, state, run: Pass) -> Checked:
        hdfs, metastore = state
        checked, outputs, failed = [], {}, 0
        for key, results in run.outcomes.items():
            if isinstance(results, Exception):
                failed += 1
                continue
            parts = [(result.rows, True) for result in results]
            if key in self.probes:
                table = metastore.get_table(self.probes[key])
                parts.append((hdfs.dir_rows(table.location), False))
            checked.append((key, canonical_rows(*parts)))
            outputs[key] = sum(result.simulated_seconds for result in results)
        return Checked(checked, outputs, failed)

    def oracle(self, state) -> Dict[str, Rows]:
        run = self.run_pass(state, engine="local")
        return dict(self.check(state, run).rows)


class Tpch22(ScriptWorkload):
    name = "tpch22"
    engine = "datampi"

    def __init__(self, seed: int, sf: float = 2.0, lineitem_sample: int = 12000):
        super().__init__(seed)
        self.sf = sf
        self.lineitem_sample = lineitem_sample

    def setup(self):
        return fresh_tpch(self.sf, lineitem_sample=self.lineitem_sample,
                          format_name="text", seed=TPCH_SEED + self.seed)

    def statements(self):
        return [(f"q{query:02d}", tpch_query(query, self.sf))
                for query in TPCH_QUERY_IDS]


class HibenchEtl(ScriptWorkload):
    name = "hibench_etl"
    engine = "hadoop"
    probes = {"aggregate": "uservisits_aggre",
              "join": "rankings_uservisits_join"}
    statement_latencies = False  # 4 statements, 0.2 s to 1 s each

    def __init__(self, seed: int, nominal_gb: float = 1.0,
                 uservisits_sample: int = 60000):
        super().__init__(seed)
        self.nominal_gb = nominal_gb
        self.uservisits_sample = uservisits_sample

    def setup(self):
        hdfs, metastore = fresh_hibench(
            self.nominal_gb, sample_uservisits=self.uservisits_sample,
            format_name="sequence", seed=HIBENCH_SEED + self.seed,
        )
        with connect(engine=self.engine, hdfs=hdfs, metastore=metastore,
                     conf=BASE_CONF) as session:
            session.execute(hibench_ddl())
        return hdfs, metastore

    def statements(self):
        analyze = "ANALYZE TABLE {} COMPUTE STATISTICS FOR COLUMNS"
        return [
            ("aggregate", HIBENCH_AGGREGATE),
            ("join", HIBENCH_JOIN),
            ("analyze_aggregate", analyze.format("uservisits_aggre")),
            ("analyze_join", analyze.format("rankings_uservisits_join")),
        ]


#: Scheduler pools and weights of the serving traffic (the shape
#: ``benchmarks/bench_serving.py`` uses).
SERVING_POOLS = ("bi:weight=3,cap=24,queue=256; etl:weight=1,cap=8,queue=48; "
                 "adhoc:weight=2,cap=16,queue=96")
SERVING_POOL_WEIGHTS = {"bi": 3.0, "etl": 1.0, "adhoc": 2.0}
SCHEDULES_PER_SEED = 1000  # distinct pass schedules before seeds overlap


class ServingLlap:
    """Open-loop arrivals on the simulated clock, replayed flat out.

    Each pass replays its own schedule, seeded from the run's seed and
    the pass's index, on a fresh session.  Its host time is a cold start
    plus a hot part: the arrivals that reach a query before its first
    run has filled the result cache all miss (57-82 of them, as the
    schedule's bursts fall) and cost about 25 ms each, while a hit costs
    about 0.45 ms.  8000 arrivals a pass keep the schedule-dependent cold
    start near a third of a pass, and a run's median is taken over
    several schedules rather than resting on one.
    """

    name = "serving_llap"
    engine = "llap"

    def __init__(self, seed: int, arrivals: int = 8000, workers: int = 100,
                 uservisits_sample: int = 4000):
        self.seed = seed
        self.config = ServingConfig(
            num_queries=arrivals, num_sessions=2000, process="bursty",
            rate=1.5, burst_factor=3.0, burst_fraction=0.25,
            burst_cycle=60.0, zipf_s=1.1, pool_weights=SERVING_POOL_WEIGHTS,
            deadline=60.0, deadline_fraction=0.15, seed=seed,
        )
        self.workers = workers
        self.uservisits_sample = uservisits_sample
        self.conf = dict(BASE_CONF)
        self.conf.update({
            HEARTBEAT_ENABLED: False,
            SCHED_POLICY: "fair",
            SCHED_POOLS: SERVING_POOLS,
            SCHED_MAX_CONCURRENT: 48,
        })

    def setup(self):
        hdfs, metastore = fresh_hibench(
            2.0, sample_uservisits=self.uservisits_sample, format_name="orc",
            num_workers=self.workers, seed=HIBENCH_SEED + self.seed,
        )
        return hdfs, metastore

    def schedule(self, index: int):
        """The arrivals of pass *index* (pass 0 of seed 0 uses the
        generator's default seed)."""
        seed = self.seed * SCHEDULES_PER_SEED + index
        return generate_arrivals(replace(self.config, seed=seed))

    def run_pass(self, state, index: int = 0) -> Pass:
        """Replay the arrivals of schedule *index*."""
        hdfs, metastore = state
        arrivals = self.schedule(index)
        submitted: List[Tuple[str, object]] = []
        start = time.perf_counter()
        session = connect(engine=self.engine, hdfs=hdfs, metastore=metastore,
                          conf=self.conf)
        submit = session.submit

        def recording_submit(sql, **kwargs):
            handle = submit(sql, **kwargs)
            submitted.append((sql, handle))
            return handle

        session.submit = recording_submit
        report = run_serving(session, arrivals)
        caches = session.caches()
        session.close()
        wall = time.perf_counter() - start
        return Pass(wall, len(arrivals), [],
                    {"report": report, "submitted": submitted}, caches)

    def check(self, state, run: Pass) -> Checked:
        report = run.outcomes["report"]
        checked: List[Tuple[str, Rows]] = []
        failed = 0
        by_id: Dict[int, Rows] = {}  # result-cache hits share one row list
        for sql, handle in run.outcomes["submitted"]:
            status = handle.status()
            if status == "succeeded":
                rows = handle.result().rows
                if id(rows) not in by_id:
                    by_id[id(rows)] = canonical_rows((rows, False))
                checked.append((sql, by_id[id(rows)]))
            elif not (status == "failed" and handle.deadline_missed):
                failed += 1  # deadline misses are simulated outputs
        outputs = {
            "succeeded": report.succeeded,
            "rejected": report.rejected,
            "deadline_misses": report.deadline_misses,
            "latency_p50": report.latency_p50,
            "latency_p99": report.latency_p99,
            "makespan": report.makespan,
        }
        return Checked(checked, outputs, failed)

    def oracle(self, state) -> Dict[str, Rows]:
        hdfs, metastore = state
        expected = {}
        with connect(engine="local", hdfs=hdfs, metastore=metastore,
                     conf=BASE_CONF) as session:
            for sql in self.config.catalog:
                expected[sql] = canonical_rows((session.query(sql).rows, False))
        return expected


WORKLOADS: Dict[str, Callable[[int], object]] = {
    "tpch22": Tpch22,
    "hibench_etl": HibenchEtl,
    "serving_llap": ServingLlap,
}


def mismatches(checked: List[Tuple[str, Rows]],
               expected: Dict[str, Rows]) -> List[str]:
    """Keys of the operations whose rows differ from the oracle's."""
    return [key for key, rows in checked
            if key not in expected or not same_rows(rows, expected[key])]


def outputs_differ(outputs: Dict[str, object], reference: Dict[str, object],
                   rel_tol: float = 1e-9) -> List[str]:
    """Keys whose simulated output differs from *reference*."""
    bad = []
    for key in sorted(set(outputs) | set(reference)):
        got, want = outputs.get(key), reference.get(key)
        if isinstance(got, (int, float)) and isinstance(want, (int, float)):
            if abs(got - want) <= rel_tol * max(abs(got), abs(want)):
                continue
        elif got == want:
            continue
        bad.append(key)
    return bad
