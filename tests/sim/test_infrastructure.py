"""Unit tests for hosts, datacenters, VMs and the network fabric."""

import math

import pytest

from repro.core.billing import HourlyBilling
from repro.core.problem import TransferModel
from repro.core.vm import VMType
from repro.exceptions import SimulationError
from repro.sim.datacenter import Datacenter, Host
from repro.sim.network import NetworkFabric
from repro.sim.vmachine import VirtualMachine, VMState


class TestHost:
    def test_place_and_release(self):
        host = Host(name="h1", capacity=8.0)
        host.place("vm1", 3.0)
        assert host.free == 5.0
        host.release("vm1")
        assert host.free == 8.0

    def test_overcommit_rejected(self):
        host = Host(name="h1", capacity=4.0)
        host.place("vm1", 3.0)
        with pytest.raises(SimulationError, match="cannot fit"):
            host.place("vm2", 2.0)

    def test_double_place_rejected(self):
        host = Host(name="h1", capacity=8.0)
        host.place("vm1", 1.0)
        with pytest.raises(SimulationError, match="already placed"):
            host.place("vm1", 1.0)

    def test_release_unknown_rejected(self):
        with pytest.raises(SimulationError):
            Host(name="h1", capacity=8.0).release("ghost")

    def test_invalid_capacity(self):
        with pytest.raises(SimulationError):
            Host(name="h1", capacity=0.0)


class TestDatacenter:
    def test_elastic_always_places(self):
        dc = Datacenter.elastic()
        vt = VMType(name="big", power=1e9, rate=1.0)
        assert dc.try_place("vm1", vt)
        dc.release("vm1")
        assert dc.total_capacity == math.inf

    def test_testbed_shape(self):
        dc = Datacenter.testbed(vmm_nodes=4, capacity_per_node=8.0)
        assert dc.total_capacity == 32.0

    def test_finite_placement_and_exhaustion(self):
        dc = Datacenter(hosts=[Host(name="h1", capacity=4.0)])
        vt = VMType(name="T", power=3.0, rate=1.0)
        assert dc.try_place("vm1", vt)
        assert not dc.try_place("vm2", vt)
        dc.release("vm1")
        assert dc.try_place("vm2", vt)

    def test_best_fit_prefers_fullest_host(self):
        h1 = Host(name="h1", capacity=8.0)
        h2 = Host(name="h2", capacity=8.0)
        dc = Datacenter(hosts=[h1, h2])
        dc.try_place("a", VMType(name="T", power=5.0, rate=1.0))
        # h1 now has 3 free; a 2-power VM fits best there.
        dc.try_place("b", VMType(name="S", power=2.0, rate=1.0))
        assert dc.host_of("b") == "h1"

    def test_release_unplaced_raises(self):
        dc = Datacenter(hosts=[Host(name="h1", capacity=4.0)])
        with pytest.raises(SimulationError, match="never placed"):
            dc.release("ghost")

    def test_finite_datacenter_requires_hosts(self):
        with pytest.raises(SimulationError):
            Datacenter(hosts=[])


class TestVirtualMachine:
    def _vm(self) -> VirtualMachine:
        return VirtualMachine(
            vm_id="vm1",
            vm_type=VMType(name="T", power=2.0, rate=3.0, startup_cost=1.0),
            provisioned_at=10.0,
        )

    def test_lifecycle(self):
        vm = self._vm()
        vm.boot_complete(10.0)
        vm.start_module("w1", 10.0)
        assert vm.state is VMState.BUSY
        vm.finish_module(15.5, 5.5)
        vm.release(15.5)
        record = vm.bill(HourlyBilling())
        assert record.billed_units == 6.0  # ceil(5.5)
        assert record.cost == pytest.approx(6 * 3.0 + 1.0)
        assert record.modules == ("w1",)

    def test_cannot_start_before_boot(self):
        vm = self._vm()
        with pytest.raises(SimulationError):
            vm.start_module("w1", 10.0)

    def test_cannot_release_while_busy(self):
        vm = self._vm()
        vm.boot_complete(10.0)
        vm.start_module("w1", 10.0)
        with pytest.raises(SimulationError):
            vm.release(11.0)

    def test_double_boot_rejected(self):
        vm = self._vm()
        vm.boot_complete(10.0)
        with pytest.raises(SimulationError):
            vm.boot_complete(11.0)

    def test_lease_duration_requires_release(self):
        vm = self._vm()
        with pytest.raises(SimulationError):
            _ = vm.lease_duration


class TestNetworkFabric:
    def test_colocated_transfer_free(self):
        fabric = NetworkFabric(TransferModel(bandwidth=1.0, latency=5.0))
        assert fabric.transfer_finish_time(3.0, "vm1", "vm1", 100.0) == 3.0
        assert fabric.transfer_cost("vm1", "vm1", 100.0) == 0.0

    def test_eq5_transfer_time(self):
        fabric = NetworkFabric(TransferModel(bandwidth=10.0, latency=0.5))
        assert fabric.transfer_finish_time(1.0, "a", "b", 20.0) == pytest.approx(3.5)

    def test_zero_size_transfer_instant(self):
        fabric = NetworkFabric(TransferModel(bandwidth=10.0, latency=0.5))
        assert fabric.transfer_finish_time(1.0, "a", "b", 0.0) == 1.0

    def test_serialized_link_queues_transfers(self):
        fabric = NetworkFabric(
            TransferModel(bandwidth=1.0), serialize_links=True
        )
        first = fabric.transfer_finish_time(0.0, "a", "b", 5.0)
        second = fabric.transfer_finish_time(0.0, "a", "b", 5.0)
        assert first == 5.0
        assert second == 10.0

    def test_unserialized_links_share_freely(self):
        fabric = NetworkFabric(TransferModel(bandwidth=1.0))
        assert fabric.transfer_finish_time(0.0, "a", "b", 5.0) == 5.0
        assert fabric.transfer_finish_time(0.0, "a", "b", 5.0) == 5.0

    def test_transfer_cost_cr(self):
        fabric = NetworkFabric(TransferModel(unit_cost=0.5))
        assert fabric.transfer_cost("a", "b", 10.0) == pytest.approx(5.0)

    def test_link_self_loop_rejected(self):
        fabric = NetworkFabric(TransferModel())
        with pytest.raises(SimulationError):
            fabric.link("a", "a")
