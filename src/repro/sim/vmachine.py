"""Virtual-machine instances: lifecycle, leases and billing.

A :class:`VirtualMachine` walks the lifecycle
``PROVISIONING → BOOTING → READY → (BUSY ↔ READY)* → RELEASED``.
The lease runs from provisioning to release; the billing meter charges
``billing.billed_units(lease_duration) * rate + startup_cost`` — the
instance-hour model of Eq. 1/Eq. 7 applied at the VM level, which is what
an IaaS provider actually bills.  When each module runs on its own VM and
startup is instantaneous, the per-VM bill equals the analytical
:math:`C(E_{i,j})`, which the test suite asserts.

The lease is billed as what ran: each module contributes the duration
the broker realized for it, and only the gaps between modules (boot,
idle waits) are read off the calendar.  ``released_at - provisioned_at``
would carry the rounding error of the absolute times into the bill: a
module of exactly one hour started at t=15.9008... spans
1.0000000000000018 on the calendar, which bills two hours.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.core.billing import BillingPolicy
from repro.core.vm import VMType
from repro.exceptions import SimulationError
from repro.sim.trace import VMRecord

__all__ = ["VMState", "VirtualMachine"]


class VMState(Enum):
    """Lifecycle states of a simulated VM."""

    PROVISIONING = "provisioning"
    BOOTING = "booting"
    READY = "ready"
    BUSY = "busy"
    RELEASED = "released"


@dataclass
class VirtualMachine:
    """One provisioned VM instance of a given type."""

    vm_id: str
    vm_type: VMType
    provisioned_at: float
    ready_at: float | None = None
    released_at: float | None = None
    state: VMState = VMState.PROVISIONING
    executed: list[str] = field(default_factory=list)
    #: Lease time accrued up to the calendar instant ``_accrued_at``.
    _accrued: float = field(default=0.0, init=False, repr=False)
    _accrued_at: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._accrued_at = self.provisioned_at

    def _accrue_until(self, now: float) -> None:
        """Bill the calendar gap since the last accrual (boot or idle)."""
        self._accrued += now - self._accrued_at
        self._accrued_at = now

    def _accrue_run(self, now: float, ran: float) -> None:
        """Bill a module run by its realized duration, ending at ``now``."""
        self._accrued += ran
        self._accrued_at = now

    def boot_complete(self, now: float) -> None:
        """Transition BOOTING/PROVISIONING → READY."""
        if self.state not in (VMState.PROVISIONING, VMState.BOOTING):
            raise SimulationError(
                f"VM {self.vm_id}: boot_complete in state {self.state}"
            )
        self.state = VMState.READY
        self.ready_at = now

    def start_module(self, module: str, now: float) -> None:
        """Transition READY → BUSY for a module execution starting at ``now``."""
        if self.state is not VMState.READY:
            raise SimulationError(
                f"VM {self.vm_id}: cannot start {module!r} in state {self.state}"
            )
        self._accrue_until(now)
        self.state = VMState.BUSY
        self.executed.append(module)

    def finish_module(self, now: float, ran: float) -> None:
        """Transition BUSY → READY when a module that ran ``ran`` ends at ``now``."""
        if self.state is not VMState.BUSY:
            raise SimulationError(
                f"VM {self.vm_id}: finish_module in state {self.state}"
            )
        self._accrue_run(now, ran)
        self.state = VMState.READY

    def release(self, now: float) -> None:
        """End the lease (READY → RELEASED)."""
        if self.state is not VMState.READY:
            raise SimulationError(
                f"VM {self.vm_id}: cannot release in state {self.state}"
            )
        self._accrue_until(now)
        self.state = VMState.RELEASED
        self.released_at = now

    def crash(self, now: float, ran: float) -> None:
        """Abrupt failure (BUSY → RELEASED) after the module ran ``ran``.

        The partial lease still bills.
        """
        if self.state is not VMState.BUSY:
            raise SimulationError(
                f"VM {self.vm_id}: crash in state {self.state}"
            )
        self._accrue_run(now, ran)
        self.state = VMState.RELEASED
        self.released_at = now

    @property
    def lease_duration(self) -> float:
        """Billable lease span; only defined after release."""
        if self.released_at is None:
            raise SimulationError(f"VM {self.vm_id} has not been released yet")
        return self._accrued

    def bill(self, billing: BillingPolicy) -> VMRecord:
        """Produce the final lease record with the billed cost."""
        duration = self.lease_duration
        units = billing.billed_units(duration)
        cost = units * self.vm_type.rate + self.vm_type.startup_cost
        return VMRecord(
            vm_id=self.vm_id,
            vm_type=self.vm_type.name,
            provisioned_at=self.provisioned_at,
            ready_at=self.ready_at if self.ready_at is not None else float("nan"),
            released_at=self.released_at if self.released_at is not None else float("nan"),
            billed_units=units,
            cost=cost,
            modules=tuple(self.executed),
        )
