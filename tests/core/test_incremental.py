"""IncrementalSweep must stay bit-identical to a from-scratch sweep.

The incremental engine's whole contract is exactness: after any sequence
of single-duration updates, every buffer (EST/EFT/LST/LFT/argmax/makespan
and the numpy mirrors) equals what :func:`repro.core.fastpath.sweep_arrays`
produces from scratch on the current duration vector — bitwise, no
tolerances.  These tests drive random update sequences on random DAGs
(with and without transfer times, across the full-sweep-threshold
extremes) and compare every buffer after every update.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fastpath
from repro.core.fastpath import IncrementalSweep, sweep_arrays, transfer_vector
from repro.core.problem import TransferModel
from repro.exceptions import ScheduleError
from tests.conftest import medcc_problems


def _durations_for(problem):
    schedule = problem.least_cost_schedule()
    return schedule.durations(problem.workflow, problem.matrices)


def _force_threshold(sweep: IncrementalSweep, fraction: float) -> None:
    """Set the full-sweep fallback at ``fraction`` of the graph.

    ``0.0`` forces the full-sweep path on every update, ``1.0`` keeps the
    span-scan for every node but the entry.
    """
    sweep.full_sweep_threshold = max(1, int(fraction * sweep.index.num_nodes))


def _with_transfers(problem):
    return dataclasses.replace(
        problem, transfers=TransferModel(bandwidth=2.0, latency=0.5)
    )


def _assert_matches_full_sweep(sweep: IncrementalSweep, durations, transfers):
    ref = sweep_arrays(sweep.index, durations, transfers)
    assert sweep.est == ref[0]
    assert sweep.eft == ref[1]
    assert sweep.lst == ref[2]
    assert sweep.lft == ref[3]
    assert sweep.argmax_pred == ref[4]
    assert sweep.makespan == ref[5]
    # The numpy mirrors are synced by span slices — they must track the
    # list buffers exactly, or critical_rows() silently drifts.
    assert sweep.est_array.tolist() == ref[0]
    assert sweep.lst_array.tolist() == ref[2]


# --------------------------------------------------------------------- #
# The core property: bit-identity after random update sequences
# --------------------------------------------------------------------- #


@given(problem=medcc_problems(), data=st.data())
@settings(max_examples=40, deadline=None)
@pytest.mark.parametrize("fraction", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("with_transfers", [False, True])
def test_incremental_matches_full_sweep(problem, data, fraction, with_transfers):
    if with_transfers:
        problem = _with_transfers(problem)
    transfer_times = problem.transfer_times or None
    sweep = IncrementalSweep(
        problem.workflow, _durations_for(problem), transfer_times=transfer_times
    )
    _force_threshold(sweep, fraction)
    index = sweep.index
    transfers = transfer_vector(index, transfer_times)
    durations = [sweep.duration_of(v) for v in range(index.num_nodes)]

    updates = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=index.num_nodes - 1),
                st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
            ),
            min_size=1,
            max_size=12,
        )
    )
    for node, value in updates:
        durations[node] = float(value)
        makespan = sweep.set_duration(node, value)
        assert makespan == sweep.makespan
        _assert_matches_full_sweep(sweep, durations, transfers)


@given(problem=medcc_problems(), data=st.data())
@settings(max_examples=25, deadline=None)
def test_row_updates_and_critical_rows(problem, data):
    """Row-addressed updates and the vectorized critical mask.

    ``set_row_duration`` must address the same module as the TE/CE row
    order, and ``critical_rows()`` must select exactly the rows the
    immutable :class:`FastPathResult` path selects.
    """
    sweep = IncrementalSweep(problem.workflow, _durations_for(problem))
    index = sweep.index
    rows = len(index.sched_nodes)
    updates = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=rows - 1),
                st.floats(min_value=0.1, max_value=30.0, allow_nan=False),
            ),
            min_size=1,
            max_size=8,
        )
    )
    for row, value in updates:
        sweep.set_row_duration(row, value)
        assert sweep.duration_of(index.sched_nodes[row]) == float(value)
        result = sweep.result()
        mask = sweep.critical_rows()
        assert np.flatnonzero(mask).tolist() == result.critical_schedulable_rows()


def test_fraction_zero_always_full_sweeps(example_problem):
    sweep = IncrementalSweep(example_problem.workflow, _durations_for(example_problem))
    _force_threshold(sweep, 0.0)
    base_full = sweep.full_sweeps
    sweep.set_row_duration(0, 123.0)
    assert sweep.full_sweeps == base_full + 1
    assert sweep.incremental_updates == 0


def test_fraction_one_never_full_sweeps_after_init(example_problem):
    sweep = IncrementalSweep(example_problem.workflow, _durations_for(example_problem))
    _force_threshold(sweep, 1.0)
    assert sweep.full_sweeps == 1  # the constructor's initial sweep
    rows = len(sweep.index.sched_nodes)
    for row in range(rows):
        sweep.set_row_duration(row, 7.0 + row)
    assert sweep.full_sweeps == 1
    assert sweep.incremental_updates == rows


def test_noop_update_short_circuits(example_problem):
    sweep = IncrementalSweep(example_problem.workflow, _durations_for(example_problem))
    node = sweep.index.sched_nodes[0]
    before = (sweep.full_sweeps, sweep.incremental_updates, sweep.nodes_recomputed)
    makespan = sweep.set_duration(node, sweep.duration_of(node))
    assert makespan == sweep.makespan
    assert (sweep.full_sweeps, sweep.incremental_updates, sweep.nodes_recomputed) == before
    assert sweep.updates == 1


def test_reset_restores_bit_identity(example_problem):
    durations = _durations_for(example_problem)
    sweep = IncrementalSweep(example_problem.workflow, durations)
    baseline = sweep_arrays(
        sweep.index, [sweep.duration_of(v) for v in range(sweep.index.num_nodes)], None
    )
    for row in range(len(sweep.index.sched_nodes)):
        sweep.set_row_duration(row, 1.0 + row)
    sweep.reset(durations)
    assert sweep.est == baseline[0]
    assert sweep.lst == baseline[2]
    assert sweep.makespan == baseline[5]


class TestValidation:
    def test_full_sweep_fraction_is_not_an_option(self, example_problem):
        # The fallback threshold is fixed at 90% of the graph.
        with pytest.raises(TypeError, match="full_sweep_fraction"):
            IncrementalSweep(example_problem.workflow, full_sweep_fraction=0.5)

    def test_negative_duration_rejected(self, example_problem):
        sweep = IncrementalSweep(example_problem.workflow)
        with pytest.raises(ScheduleError, match="negative duration"):
            sweep.set_duration(sweep.index.sched_nodes[0], -1.0)

    def test_node_out_of_range_rejected(self, example_problem):
        sweep = IncrementalSweep(example_problem.workflow)
        with pytest.raises(ScheduleError, match="out of range"):
            sweep.set_duration(sweep.index.num_nodes, 1.0)

    def test_row_out_of_range_rejected(self, example_problem):
        sweep = IncrementalSweep(example_problem.workflow)
        with pytest.raises(ScheduleError, match="out of range"):
            sweep.set_row_duration(len(sweep.index.sched_nodes), 1.0)

    def test_wrong_length_vector_rejected(self, example_problem):
        sweep = IncrementalSweep(example_problem.workflow)
        with pytest.raises(ScheduleError, match="durations"):
            sweep.reset_vector([1.0])

    def test_missing_name_rejected(self, example_problem):
        sweep = IncrementalSweep(example_problem.workflow)
        with pytest.raises(ScheduleError, match="no duration supplied"):
            sweep.reset({})


def test_result_snapshot_is_detached(example_problem):
    """result() snapshots: later updates must not mutate it."""
    sweep = IncrementalSweep(example_problem.workflow, _durations_for(example_problem))
    snapshot = sweep.result()
    est_before = snapshot.est.tolist()
    sweep.set_row_duration(0, 99.0)
    assert snapshot.est.tolist() == est_before
    analysis = snapshot.as_analysis()
    ref = fastpath.fast_critical_path(
        example_problem.workflow, _durations_for(example_problem)
    ).as_analysis()
    assert analysis == ref
