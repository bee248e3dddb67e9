"""The simulated cluster: node fleet + interconnect + job execution.

Cluster-level P-MoVE (§VI) monitors many nodes at once; this substrate
provides the fleet.  Each node is a full :class:`SimulatedMachine` (own
clock, timeline, PMU, faults), so every single-node capability — probing,
KB construction, sampling, CARM — applies per node unchanged.  Jobs run
bulk-synchronously: per iteration, every node computes its ranks' kernel
and the fleet exchanges halos / allreduces over the interconnect; the
slowest node (e.g. one with an injected fault) paces everyone, which is
exactly the load-imbalance pathology the paper's intro motivates finding.

Communication traffic is deposited as the node-scope ``net_out_bytes``
quantity, so the existing ``network.interface.out.bytes`` SWTelemetry
stream picks it up with no special cases.

Nodes also have a *lifecycle*: an installed :class:`~repro.faults.nodes`
fault can take a node down (crash/flap) or make it crawl (hang), and an
operator can administratively drain it.  ``run_job`` consults this state —
a participant going down mid-job kills the attempt at the crash instant
(``status="failed"``; the scheduler requeues), and a hanging node paces the
bulk-synchronous step for everyone.  With no node faults installed the
execution path is byte-identical to the fault-free cluster.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable

from repro.faults.nodes import NodeFault, NodeFaultSet
from repro.machine.memory import estimate_execution
from repro.machine.simulator import SimulatedMachine
from repro.machine.spec import MachineSpec

from .interconnect import Interconnect
from .job import JobExecution, JobSpec, new_job_id

__all__ = ["SimulatedCluster"]


class SimulatedCluster:
    """A fleet of identical-spec nodes behind one interconnect."""

    def __init__(
        self,
        preset: Callable[[], MachineSpec],
        n_nodes: int,
        interconnect: Interconnect | None = None,
        name: str = "cluster",
        seed: int = 0,
    ) -> None:
        if n_nodes < 1:
            raise ValueError("cluster needs at least one node")
        self.name = name
        self.interconnect = interconnect or Interconnect()
        self.nodes: dict[str, SimulatedMachine] = {}
        base = preset()
        for i in range(n_nodes):
            spec = dataclasses.replace(base, hostname=f"{base.hostname}n{i:02d}")
            self.nodes[spec.hostname] = SimulatedMachine(spec, seed=seed + i)
        self.executions: list[JobExecution] = []
        self.node_faults = NodeFaultSet()
        self.drained: set[str] = set()

    # ------------------------------------------------------------------
    @property
    def node_names(self) -> list[str]:
        return list(self.nodes)

    # ------------------------------------------------------------------
    # Node lifecycle
    # ------------------------------------------------------------------
    def inject_node_fault(self, node: str, fault: NodeFault) -> NodeFault:
        """Install a lifecycle fault (crash/hang/flap) on one node."""
        self.node(node)  # validate the name
        return self.node_faults.inject(node, fault)

    def drain(self, node: str) -> None:
        """Administratively drain a node: no new placements land on it."""
        self.node(node)
        self.drained.add(node)

    def undrain(self, node: str) -> None:
        self.drained.discard(node)

    def node_state(self, node: str, t: float | None = None) -> str:
        """Lifecycle state of one node at ``t``: up | down | drained."""
        self.node(node)
        if self.node_faults.is_down(node, self.time() if t is None else t):
            return "down"
        if node in self.drained:
            return "drained"
        return "up"

    def node(self, name: str) -> SimulatedMachine:
        try:
            return self.nodes[name]
        except KeyError:
            raise KeyError(f"no node {name!r}; nodes: {self.node_names}") from None

    def time(self) -> float:
        """Cluster wall time = the most advanced node clock."""
        return max(m.clock.now() for m in self.nodes.values())

    def sync(self) -> float:
        """Advance every node to the cluster wall time (global barrier)."""
        t = self.time()
        for m in self.nodes.values():
            m.clock.advance_to(t)
            m._extend_background(t)
        return t

    def concurrent_jobs_at(self, t: float) -> int:
        return sum(1 for e in self.executions if e.t_start <= t < e.t_end)

    # ------------------------------------------------------------------
    def run_job(
        self,
        spec: JobSpec,
        node_names: list[str] | None = None,
        sampling_overhead: float = 0.0,
    ) -> JobExecution:
        """Execute one bulk-synchronous job on ``node_names``.

        Per iteration: each node runs ``ranks_per_node`` copies of the rank
        kernel on its cores (one rank per core), then the fleet pays the
        halo + allreduce communication.  Nodes start together (barrier at
        the latest node clock among participants) and the slowest node's
        compute time paces the iteration.
        """
        node_names = node_names or self.node_names[: spec.n_nodes]
        if len(node_names) != spec.n_nodes:
            raise ValueError(
                f"job {spec.name!r} wants {spec.n_nodes} nodes, got {len(node_names)}"
            )
        machines = [self.node(n) for n in node_names]
        ranks = spec.ranks_per_node
        if any(ranks > m.spec.n_cores for m in machines):
            raise ValueError("ranks_per_node exceeds node core count")

        # Barrier-in: the job starts at the latest participant clock.
        t_start = max(m.clock.now() for m in machines)
        for m in machines:
            m.clock.advance_to(t_start)

        # Per-node compute time for one iteration (a node's ranks run
        # concurrently on distinct cores; faults dilate per node).  Unlike
        # iterating a kernel, adding ranks multiplies the working set too.
        node_desc = dataclasses.replace(
            spec.rank_kernel.scaled(float(ranks)),
            working_set_bytes=spec.rank_kernel.working_set_bytes * ranks,
        )
        cpu_ids = list(range(ranks))
        per_node_t = []
        for m in machines:
            prof = estimate_execution(node_desc, m.spec, cpu_ids, rng=None)
            dil = m.faults.slowdown(t_start, tuple(cpu_ids),
                                    memory_bound=(prof.bound == "memory"))
            # A hanging node crawls; being the slowest, it paces the whole
            # bulk-synchronous iteration below.
            dil *= self.node_faults.hang_factor(m.spec.hostname, t_start)
            per_node_t.append(prof.runtime_s * dil)
        t_comp_iter = max(per_node_t)

        congestion = float(max(1, self.concurrent_jobs_at(t_start)))
        ic = self.interconnect
        if spec.n_nodes == 1:
            # Single-node ranks communicate through shared memory; the
            # fabric sees nothing and the "communication telemetry" is 0.
            compute_s = t_comp_iter * spec.iterations
            est_end = t_start + compute_s * (1.0 + sampling_overhead)
            failed = self._fail_job(spec, node_names, machines, t_start, est_end)
            if failed is not None:
                return failed
            for m in machines:
                m.run_kernel(node_desc.scaled(float(spec.iterations)), cpu_ids,
                             sampling_overhead=sampling_overhead,
                             runtime_noise_std=0.0)
            t_end = max(m.clock.now() for m in machines)
            execution = JobExecution(
                spec=spec, job_id=new_job_id(), nodes=list(node_names),
                t_start=t_start, t_end=t_end, compute_s=compute_s,
                comm_s=0.0, comm_bytes_per_node=0.0,
            )
            self.executions.append(execution)
            return execution
        # All of a node's ranks funnel their messages through the node's
        # single fabric link, so communication time is computed from the
        # node-aggregated volumes (and the byte accounting matches it).
        halo_bytes_iter = spec.halo_bytes_per_neighbor * spec.halo_neighbors * ranks
        ring_bytes_iter = (
            2 * (spec.n_ranks - 1) / spec.n_ranks * spec.allreduce_bytes * ranks
            if spec.n_ranks > 1 else 0.0
        )
        t_comm_iter = (
            ic.halo_exchange_time(spec.halo_bytes_per_neighbor * ranks,
                                  spec.halo_neighbors, congestion)
            + ic.allreduce_time(spec.allreduce_bytes * ranks, spec.n_ranks,
                                congestion)
            + ic.barrier_time(spec.n_ranks)
        )
        compute_s = t_comp_iter * spec.iterations
        comm_s = t_comm_iter * spec.iterations
        bytes_per_node = (halo_bytes_iter + ring_bytes_iter) * spec.iterations

        est_end = t_start + (compute_s + comm_s) * (1.0 + sampling_overhead)
        failed = self._fail_job(spec, node_names, machines, t_start, est_end)
        if failed is not None:
            return failed

        # Execute: every node runs the whole job's compute, stretched so
        # that all participants span the same (slowest-paced) window; the
        # communication gap follows; traffic lands on the node scope.
        total_desc = node_desc.scaled(float(spec.iterations))
        for m, t_own in zip(machines, per_node_t):
            stretch = (t_comp_iter / t_own) - 1.0 if t_own > 0 else 0.0
            m.run_kernel(
                total_desc,
                cpu_ids,
                sampling_overhead=sampling_overhead + stretch,
                runtime_noise_std=0.0,
            )
            m.advance(comm_s)
            m.timeline.add_total(
                ("node", 0), "net_out_bytes", t_start, m.clock.now(), bytes_per_node
            )
        t_end = max(m.clock.now() for m in machines)

        execution = JobExecution(
            spec=spec,
            job_id=new_job_id(),
            nodes=list(node_names),
            t_start=t_start,
            t_end=t_end,
            compute_s=compute_s,
            comm_s=comm_s,
            comm_bytes_per_node=bytes_per_node,
        )
        self.executions.append(execution)
        return execution

    # ------------------------------------------------------------------
    def _fail_job(
        self,
        spec: JobSpec,
        node_names: list[str],
        machines: list[SimulatedMachine],
        t_start: float,
        est_end: float,
    ) -> JobExecution | None:
        """Kill the attempt if any participant goes down before ``est_end``.

        The job dies at the crash instant: every participant's clock is
        advanced there (the bulk-synchronous peers notice the dead rank at
        the next exchange) and the partial work is lost — no compute or
        communication telemetry is deposited for the doomed attempt.
        """
        failure = self.node_faults.first_failure(node_names, t_start, est_end)
        if failure is None:
            return None
        node, t_fail = failure
        t_fail = max(t_fail, t_start)
        for m in machines:
            m.clock.advance_to(t_fail)
            m._extend_background(t_fail)
        execution = JobExecution(
            spec=spec, job_id=new_job_id(), nodes=list(node_names),
            t_start=t_start, t_end=t_fail, compute_s=0.0, comm_s=0.0,
            comm_bytes_per_node=0.0, status="failed", failed_node=node,
        )
        self.executions.append(execution)
        return execution
