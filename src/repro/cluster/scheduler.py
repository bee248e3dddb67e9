"""A batch scheduler for the simulated cluster.

Real clusters hand P-MoVE its "job-specific metadata" through the batch
system; this FIFO scheduler (with optional conservative backfill) plays
that role: it owns node availability, decides placements, runs jobs on the
cluster, and keeps the queue/accounting state a cluster monitor reads.

The scheduler is failure-aware: drained nodes take no new placements, a
node that is down (crash/flap window) is not picked until its recovery
instant, and a job killed mid-run by a node failure is requeued at the
head of the queue with a bounded retry budget (``max_requeues``).  Node
downtime is excluded from the :meth:`FifoScheduler.utilization`
denominator, so a half-dead fleet is not misread as an idle one.  With no
node faults installed and nothing drained, placements and schedules are
byte-identical to the failure-blind scheduler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .cluster import SimulatedCluster
from .job import JobExecution, JobSpec

__all__ = ["QueuedJob", "FifoScheduler"]


@dataclass
class QueuedJob:
    """One queue entry."""

    spec: JobSpec
    submit_t: float
    job_index: int
    state: str = "queued"  # queued | running | completed | failed
    execution: JobExecution | None = None
    #: Attempts killed by node failure (the successful one is `execution`).
    failures: list[JobExecution] = field(default_factory=list)

    @property
    def requeues(self) -> int:
        return len(self.failures)

    @property
    def wait_s(self) -> float:
        if self.execution is None:
            return 0.0
        return self.execution.t_start - self.submit_t


class FifoScheduler:
    """First-in-first-out placement with optional backfill."""

    def __init__(
        self,
        cluster: SimulatedCluster,
        backfill: bool = False,
        max_requeues: int = 2,
    ) -> None:
        if max_requeues < 0:
            raise ValueError("max_requeues must be >= 0")
        self.cluster = cluster
        self.backfill = backfill
        self.max_requeues = max_requeues
        self.queue: list[QueuedJob] = []
        self.completed: list[QueuedJob] = []
        self.failed: list[QueuedJob] = []
        self._node_free: dict[str, float] = {n: 0.0 for n in cluster.node_names}
        self._counter = 0

    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> QueuedJob:
        if spec.n_nodes > len(self._schedulable_nodes()):
            raise ValueError(
                f"job {spec.name!r} wants {spec.n_nodes} nodes; cluster has "
                f"{len(self._schedulable_nodes())}"
            )
        entry = QueuedJob(spec=spec, submit_t=self.cluster.time(),
                          job_index=self._counter)
        self._counter += 1
        self.queue.append(entry)
        return entry

    def _schedulable_nodes(self) -> list[str]:
        """Nodes accepting placements (not administratively drained)."""
        return [n for n in self._node_free if n not in self.cluster.drained]

    def _available_at(self, node: str) -> float:
        """When a node can take work: free of jobs *and* recovered from
        any down window active at that instant."""
        return self.cluster.node_faults.next_up(node, self._node_free[node])

    def _pick_nodes(self, n: int) -> list[str]:
        """The n earliest-available schedulable nodes (ties by name)."""
        ranked = sorted(
            ((self._available_at(name), name) for name in self._schedulable_nodes()),
        )
        return [name for _, name in ranked[:n]]

    def _start(self, entry: QueuedJob) -> JobExecution | None:
        """Run one attempt; returns the execution on success, None when the
        attempt was killed by a node failure (requeued or given up)."""
        nodes = self._pick_nodes(entry.spec.n_nodes)
        if len(nodes) < entry.spec.n_nodes:
            # Drains since submit shrank the schedulable fleet below need.
            entry.state = "failed"
            self.failed.append(entry)
            return None
        # The job cannot start before its nodes are free or before submit.
        start_at = max([entry.submit_t] + [self._available_at(n) for n in nodes])
        if not math.isfinite(start_at):
            # A picked node never recovers (crash to t1=inf) and the fleet
            # has nothing better: the job cannot run.
            entry.state = "failed"
            self.failed.append(entry)
            return None
        for n in nodes:
            self.cluster.node(n).clock.advance_to(start_at)
        entry.state = "running"
        execution = self.cluster.run_job(entry.spec, nodes)
        if execution.status == "failed":
            entry.failures.append(execution)
            for n in nodes:
                self._node_free[n] = execution.t_end
            # The dead node takes no work until its down window closes.
            bad = execution.failed_node
            if bad is not None:
                self._node_free[bad] = max(
                    self._node_free[bad],
                    self.cluster.node_faults.next_up(bad, execution.t_end),
                )
            if entry.requeues <= self.max_requeues:
                entry.state = "queued"
                self.queue.insert(0, entry)  # keeps its FIFO priority
            else:
                entry.state = "failed"
                self.failed.append(entry)
            return None
        for n in nodes:
            self._node_free[n] = execution.t_end
        entry.execution = execution
        entry.state = "completed"
        self.completed.append(entry)
        return execution

    def run_all(self) -> list[JobExecution]:
        """Drain the queue in FIFO order (backfill lets a small job jump
        ahead when it fits on nodes the head job cannot use yet)."""
        done: list[JobExecution] = []

        def started(execution: JobExecution | None) -> None:
            if execution is not None:
                done.append(execution)

        while self.queue:
            if self.backfill and len(self.queue) > 1:
                head_need = self.queue[0].spec.n_nodes
                avail = sorted(self._available_at(n) for n in self._schedulable_nodes())
                if head_need > len(avail):
                    started(self._start(self.queue.pop(0)))
                    continue
                head_start = avail[head_need - 1]
                for i, cand in enumerate(list(self.queue[1:]), start=1):
                    cand_nodes = self._pick_nodes(cand.spec.n_nodes)
                    if len(cand_nodes) < cand.spec.n_nodes:
                        continue
                    cand_start = max(self._available_at(n) for n in cand_nodes)
                    # Conservative: only jump if it cannot delay the head.
                    if cand_start < head_start:
                        est_end = cand_start + self.estimate_runtime(cand.spec)
                        if est_end <= head_start:
                            self.queue.pop(i)
                            started(self._start(cand))
                            break
                else:
                    started(self._start(self.queue.pop(0)))
                continue
            started(self._start(self.queue.pop(0)))
        return done

    def estimate_runtime(self, spec: JobSpec) -> float:
        """Cheap runtime estimate for backfill decisions (compute-only)."""
        from repro.machine.memory import estimate_execution

        node = next(iter(self.cluster.nodes.values()))
        desc = spec.rank_kernel.scaled(float(spec.ranks_per_node))
        prof = estimate_execution(desc, node.spec, list(range(spec.ranks_per_node)), rng=None)
        return prof.runtime_s * spec.iterations * 1.2

    # ------------------------------------------------------------------
    def utilization(self) -> dict[str, float]:
        """Busy fraction per node since t=0 (accounting view).

        The denominator is each node's *schedulable* time — wall time minus
        its fault downtime — so a node that was dark for half the window
        and busy the rest correctly reads near 1.0, not 0.5."""
        now = self.cluster.time()
        if now == 0:
            return {n: 0.0 for n in self._node_free}
        busy: dict[str, float] = {n: 0.0 for n in self._node_free}
        for entry in self.completed:
            if entry.execution:
                for n in entry.execution.nodes:
                    busy[n] += entry.execution.runtime_s
        out: dict[str, float] = {}
        for n, b in busy.items():
            denom = now - self.cluster.node_faults.down_seconds(n, 0.0, now)
            out[n] = min(1.0, b / denom) if denom > 0 else 0.0
        return out
