"""The workflow broker: executes a scheduled workflow on the simulator.

This is the CloudSim-replacement piece (see DESIGN.md): given a MED-CC
instance and a schedule, the broker provisions VMs, honours the paper's
precedence rules ("a computing module cannot start execution until all its
required input data arrive; a dependency edge cannot start data transfer
until its preceding module finishes execution"), moves data over the
virtual network, and produces a fully audited
:class:`~repro.sim.trace.SimulationTrace`.

Faithfulness to the analytical model is a tested invariant: with zero VM
startup time, free transfers and one VM per module (no packing), the
simulated makespan equals the schedule's analytical critical-path makespan
and the simulated bill equals :math:`C_{Total}` exactly.  The simulator
then lets you *break* those assumptions on purpose (startup latency,
finite bandwidth, shared VMs, finite hosts) to measure how robust the
schedule is — the paper's implicit claims quantified.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.core.problem import MedCCProblem
from repro.core.schedule import Schedule
from repro.exceptions import SimulationError
from repro.sim.datacenter import Datacenter
from repro.sim.engine import SimulationEngine
from repro.sim.events import EventPriority
from repro.sim.faults import FaultModel, NoFaults
from repro.sim.network import NetworkFabric
from repro.sim.packing import VMPlan, pack_schedule
from repro.sim.trace import (
    FailureRecord,
    SimulationTrace,
    TaskRecord,
    TransferRecord,
)
from repro.sim.vmachine import VirtualMachine, VMState

__all__ = ["SimulationResult", "WorkflowBroker"]


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one simulated execution.

    Attributes
    ----------
    makespan:
        End-to-end delay observed in simulation.
    total_cost:
        Total billed cost (VM leases + transfer charges).
    trace:
        Full audit trail.
    analytical_makespan / analytical_cost:
        The schedule's model-predicted values, for drift measurement.
    """

    makespan: float
    total_cost: float
    trace: SimulationTrace
    analytical_makespan: float
    analytical_cost: float

    @property
    def makespan_drift(self) -> float:
        """Simulated minus analytical makespan (0 under model assumptions)."""
        return self.makespan - self.analytical_makespan

    @property
    def cost_drift(self) -> float:
        """Simulated minus analytical cost."""
        return self.total_cost - self.analytical_cost

    @property
    def makespan_drift_percent(self) -> float:
        """Relative makespan drift in percent.

        A degenerate plan (all-fixed zero-duration modules) has an
        analytical makespan of exactly 0; report 0% instead of dividing
        by zero — there was nothing to drift from.
        """
        if self.analytical_makespan == 0:
            return 0.0
        return 100.0 * self.makespan_drift / self.analytical_makespan

    @property
    def cost_drift_percent(self) -> float:
        """Relative cost drift in percent (0% for a zero-cost plan)."""
        if self.analytical_cost == 0:
            return 0.0
        return 100.0 * self.cost_drift / self.analytical_cost


@dataclass
class WorkflowBroker:
    """Drives one workflow execution on the DES engine.

    Parameters
    ----------
    problem:
        The MED-CC instance (workflow, catalog, billing, transfer model).
    schedule:
        The VM-type assignment to execute.
    vm_plan:
        Optional VM-reuse packing; defaults to one VM per module.
    datacenter:
        Physical capacity model; defaults to the infinitely elastic cloud.
    prelaunch:
        When true, every VM is provisioned at time 0 ("we can always
        launch the VMs in advance", §VI-C2) — removing boot latency from
        the critical path at the price of idle lease time.  When false
        (default), VMs are provisioned lazily when their first module's
        inputs are ready, putting ``startup_time`` on the path.
    serialize_links:
        Serialize concurrent transfers sharing a link (contended uplink).
    faults:
        Fault model (see :mod:`repro.sim.faults`).  A crashed VM's partial
        lease is still billed; the broker provisions a replacement VM for
        the failed module and every unfinished module mapped to the dead
        instance, and retries (bounded by ``max_attempts`` per module).
    max_attempts:
        Per-module retry bound before the run is declared failed.
    actual_durations:
        Optional per-module *realized* execution times overriding the
        schedule's planned ones — modelling execution-time estimation
        error (the paper's own WRF testbed shows visible run-to-run
        noise).  The makespan and the bill reflect what actually ran;
        ``makespan_drift``/``cost_drift`` then measure the planning error.
        Modules absent from the mapping run at their planned duration.
    """

    problem: MedCCProblem
    schedule: Schedule
    vm_plan: VMPlan | None = None
    datacenter: Datacenter = field(default_factory=Datacenter.elastic)
    prelaunch: bool = False
    serialize_links: bool = False
    faults: FaultModel = field(default_factory=NoFaults)
    max_attempts: int = 50
    actual_durations: Mapping[str, float] | None = None

    def run(self) -> SimulationResult:
        """Execute the workflow once and return the audited result."""
        problem = self.problem
        workflow = problem.workflow
        matrices = problem.matrices
        evaluation = problem.evaluate(self.schedule)

        engine = SimulationEngine()
        fabric = NetworkFabric(
            problem.transfers, serialize_links=self.serialize_links
        )
        trace = SimulationTrace()

        # ---------------- VM topology (packing or singleton) ------------ #
        plan = self.vm_plan
        if plan is None:
            plan = pack_schedule(problem, self.schedule, mode="interval")
            # Singleton plan: discard the packing and allocate one VM per
            # module (the paper's base one-to-one mapping).
            from repro.sim.packing import VMAllocation

            plan = VMPlan(
                allocations=tuple(
                    VMAllocation(
                        vm_type_index=self.schedule[m],
                        vm_type_name=problem.catalog.names[self.schedule[m]],
                        modules=(m,),
                        lease_start=0.0,
                        lease_end=0.0,
                    )
                    for m in matrices.module_names
                ),
                mode="singleton",
            )

        vm_of_module: dict[str, str] = {}
        vms: dict[str, VirtualMachine] = {}
        vm_pending: dict[str, int] = {}
        vm_queue: dict[str, list[str]] = {}
        for idx, alloc in enumerate(plan.allocations):
            vm_id = f"vm{idx}"
            for module in alloc.modules:
                vm_of_module[module] = vm_id
            vm_pending[vm_id] = len(alloc.modules)
            vm_queue[vm_id] = []
        # Fixed (staging) modules execute off-cloud on pseudo endpoints.
        for name in workflow.module_names:
            if not workflow.module(name).is_schedulable:
                vm_of_module[name] = f"staging:{name}"

        vm_type_of = {
            f"vm{idx}": problem.catalog[alloc.vm_type_index]
            for idx, alloc in enumerate(plan.allocations)
        }

        # ---------------- dependency bookkeeping ------------------------ #
        waiting: dict[str, int] = {
            name: len(workflow.predecessors(name))
            for name in workflow.module_names
        }
        durations = self.schedule.durations(workflow, matrices)
        if self.actual_durations:
            for name, actual in self.actual_durations.items():
                if name not in durations:
                    raise SimulationError(
                        f"actual_durations references unknown module {name!r}"
                    )
                if actual < 0:
                    raise SimulationError(
                        f"actual duration of {name!r} must be >= 0, got {actual!r}"
                    )
                durations[name] = float(actual)
        finished: set[str] = set()
        transfer_cost_total = 0.0
        attempts: dict[str, int] = {name: 0 for name in workflow.module_names}
        replacement_seq = 0

        def provision(vm_id: str) -> VirtualMachine:
            if vm_id in vms:
                return vms[vm_id]
            vm_type = vm_type_of[vm_id]
            if not self.datacenter.try_place(vm_id, vm_type):
                raise SimulationError(
                    f"datacenter cannot place {vm_id} (type {vm_type.name}); "
                    "insufficient physical capacity"
                )
            vm = VirtualMachine(
                vm_id=vm_id, vm_type=vm_type, provisioned_at=engine.now
            )
            vms[vm_id] = vm
            if vm_type.startup_time > 0:
                vm.state = VMState.BOOTING
                engine.after(
                    vm_type.startup_time,
                    lambda: (vm.boot_complete(engine.now), drain(vm_id))[0],
                    priority=EventPriority.CONTROL,
                    label=f"boot:{vm_id}",
                )
            else:
                vm.boot_complete(engine.now)
            return vm

        def drain(vm_id: str) -> None:
            """Start the next queued module on an idle, ready VM."""
            vm = vms.get(vm_id)
            if vm is None or vm.state is not VMState.READY:
                return
            if not vm_queue[vm_id]:
                return
            module = vm_queue[vm_id].pop(0)
            start_module(module, vm)

        def start_module(module: str, vm: VirtualMachine | None) -> None:
            start = engine.now
            duration = durations[module]
            trace.record_event(
                start,
                "started",
                module,
                vm.vm_id if vm is not None else vm_of_module[module],
                vm.vm_type.name if vm is not None else "staging",
            )
            if vm is not None:
                vm.start_module(module, start)
                offset = self.faults.fail_after(
                    module, attempts[module], duration
                )
                if offset is not None:
                    engine.after(
                        offset,
                        lambda: crash_module(module, vm.vm_id, start, offset),
                        priority=EventPriority.COMPLETION,
                        label=f"crash:{module}",
                    )
                    return
            engine.after(
                duration,
                lambda: complete_module(module, start),
                priority=EventPriority.COMPLETION,
                label=f"finish:{module}",
            )

        def crash_module(
            module: str, vm_id: str, start: float, ran: float
        ) -> None:
            nonlocal replacement_seq
            now = engine.now
            vm = vms[vm_id]
            vm.crash(now, ran)
            self.datacenter.release(vm_id)
            attempts[module] += 1
            trace.failures.append(
                FailureRecord(
                    module=module,
                    vm_id=vm_id,
                    started=start,
                    crashed=now,
                    attempt=attempts[module],
                )
            )
            trace.record_event(
                now,
                "failed",
                module,
                vm_id,
                vm.vm_type.name,
                elapsed=now - start,
            )
            if attempts[module] > self.max_attempts:
                raise SimulationError(
                    f"module {module!r} exceeded max_attempts="
                    f"{self.max_attempts} after repeated VM failures"
                )
            # Everything unfinished on the dead instance moves to a fresh
            # replacement VM of the same type.
            replacement_seq += 1
            new_id = f"{vm_id}+r{replacement_seq}"
            vm_type_of[new_id] = vm_type_of[vm_id]
            vm_pending[new_id] = vm_pending[vm_id]
            vm_queue[new_id] = vm_queue.pop(vm_id, [])
            for name, mapped in list(vm_of_module.items()):
                if mapped == vm_id and name not in finished:
                    vm_of_module[name] = new_id
            # Retry the killed module on the replacement.
            module_ready(module)

        def complete_module(module: str, start: float) -> None:
            nonlocal transfer_cost_total
            now = engine.now
            vm_id = vm_of_module[module]
            vm = vms.get(vm_id)
            vm_type_name = vm.vm_type.name if vm else "staging"
            trace.tasks.append(
                TaskRecord(
                    module=module,
                    vm_id=vm_id,
                    vm_type=vm_type_name,
                    start=start,
                    finish=now,
                )
            )
            # The event carries the broker's own realized duration, not
            # finish - start: the float round-trip through the calendar
            # would break bit-exact zero-drift replays downstream.
            trace.record_event(
                now,
                "completed",
                module,
                vm_id,
                vm_type_name,
                duration=durations[module],
            )
            finished.add(module)
            if vm is not None:
                vm.finish_module(now, durations[module])
                vm_pending[vm_id] -= 1
                if vm_pending[vm_id] == 0:
                    vm.release(now)
                    self.datacenter.release(vm_id)
                else:
                    drain(vm_id)
            for succ in workflow.successors(module):
                dep = workflow.dependency(module, succ)
                src_vm = vm_of_module[module]
                dst_vm = vm_of_module[succ]
                transfer_cost_total += fabric.transfer_cost(
                    src_vm, dst_vm, dep.data_size
                )
                arrive = fabric.transfer_finish_time(
                    now, src_vm, dst_vm, dep.data_size
                )
                if arrive > now:
                    trace.transfers.append(
                        TransferRecord(
                            src=module,
                            dst=succ,
                            data_size=dep.data_size,
                            start=now,
                            finish=arrive,
                        )
                    )
                engine.at(
                    arrive,
                    lambda s=succ: dependency_arrived(s),
                    priority=EventPriority.TRANSFER,
                    label=f"xfer:{module}->{succ}",
                )

        def dependency_arrived(module: str) -> None:
            waiting[module] -= 1
            if waiting[module] == 0:
                module_ready(module)

        def module_ready(module: str) -> None:
            mod = workflow.module(module)
            if not mod.is_schedulable:
                start_module(module, None)
                return
            vm_id = vm_of_module[module]
            vm = provision(vm_id)
            if vm.state is VMState.READY and not vm_queue[vm_id]:
                start_module(module, vm)
            else:
                vm_queue[vm_id].append(module)

        # ---------------- kick-off --------------------------------------- #
        if self.prelaunch:
            for vm_id in vm_type_of:
                provision(vm_id)
        engine.at(
            0.0,
            lambda: module_ready(workflow.entry),
            priority=EventPriority.START,
            label="start",
        )
        engine.run()

        if len(finished) != workflow.num_modules:
            missing = set(workflow.module_names) - finished
            raise SimulationError(
                f"simulation deadlocked; unfinished modules: {sorted(missing)}"
            )

        for vm in vms.values():
            if vm.state is not VMState.RELEASED:
                raise SimulationError(f"VM {vm.vm_id} never released")
            trace.vms.append(vm.bill(problem.billing))

        total_cost = trace.total_cost + transfer_cost_total
        return SimulationResult(
            makespan=trace.makespan,
            total_cost=total_cost,
            trace=trace,
            analytical_makespan=evaluation.makespan,
            analytical_cost=evaluation.total_cost,
        )
