"""Tests for the dataset pipelines: phase-grid scans, parameter-plane
existence maps, the analytic/numeric projection overlay, stability probes,
the boundary-escape demonstration, and the reproducible dataset writers."""

import concurrent.futures
import csv
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracle import scalar_overlay, scan_reference, swap_free

import isochron
from isochron import (
    DEFAULT_MATCH_TOL,
    DEFAULT_SCAN_MAX_ITER,
    DEFAULT_SCAN_STEP,
    FAMILIES,
    DomainError,
    ModelParams,
    PeriodicityResult,
    PulseSignature,
    __version__,
    boundary_escape_demo,
    dataset_header,
    detect_periodicity,
    detect_periodicity_many,
    emit_param_scan_plot,
    emit_phase_scan_plot,
    emit_projection_plot,
    eq_init_state,
    format_trace_text,
    g_map,
    init_engine,
    ir4_projection_contains,
    jump_coeffs,
    network_state,
    param_scan,
    phase_scan,
    projection_compare,
    pulse_equivalent,
    region_center,
    region_exists,
    region_spec,
    region_volume,
    require_section_state,
    s_embed,
    sample_interior,
    stability_probe,
    trigger_threshold,
    validate_state,
    write_param_scan_csv,
    write_param_scan_json,
    write_phase_scan_csv,
    write_phase_scan_json,
    write_projection_csv,
    write_projection_json,
)
from isochron import lockstep, poincare, sweep
from isochron._serial import plain
from isochron.engine import EngineStallError, HorizonExceededError, StateError

P = ModelParams(b=3.0, eps=0.58, n=3, tau=0.58)
# Period-4 family exists here, but a step-0.05 phase grid finds none of
# its orbits; seeding from family points recovers them.
P_SPARSE = ModelParams(b=3.0, eps=0.45, n=3, tau=0.45)
# No isochronous family of any size exists here.
P_OUTSIDE = ModelParams(b=3.0, eps=0.30, n=3, tau=0.30)


PARAM_GRID = (0.2, 0.45, 0.7)


@functools.lru_cache(maxsize=None)
def scan05():
    """Reference-parameter phase scan on the step-0.05 grid, shared
    across tests."""
    return phase_scan(P, step=0.05)


@functools.lru_cache(maxsize=None)
def scan25():
    """Tiny reference-parameter scan for writer tests."""
    return phase_scan(P, step=0.25)


@functools.lru_cache(maxsize=None)
def param_grid_scan():
    """Existence/volume map over the shared 3x3 parameter grid."""
    return param_scan(PARAM_GRID, PARAM_GRID, volume_kinds=("IR4",))


@functools.lru_cache(maxsize=None)
def reference_overlay():
    """Projection overlay at the reference parameters."""
    return projection_compare(P, n_samples=50, seed=0, step=0.05)


class TestEqInitState:
    def test_memory_present_within_delay_window(self):
        state = eq_init_state(P, 0.2, 0.4)
        assert state.phases == (0.2, 0.4, 0.0)
        assert state.ftds == ((0.2,), (0.4,), (0.0,))

    def test_boundary_value_keeps_memory(self):
        state = eq_init_state(P, P.tau, 0.1)
        assert state.ftds[0] == (P.tau,)

    def test_memory_absent_beyond_delay_window(self):
        state = eq_init_state(P, 0.9, 0.59)
        assert state.ftds[0] == ()
        assert state.ftds[1] == ()
        assert state.phases == (0.9, 0.59, 0.0)

    def test_origin_is_synchronous_state(self):
        state = eq_init_state(P, 0.0, 0.0)
        assert state.phases == (0.0, 0.0, 0.0)
        assert state.ftds == ((0.0,), (0.0,), (0.0,))

    def test_all_grid_states_are_valid(self):
        for i in range(10):
            for j in range(10):
                validate_state(P, eq_init_state(P, i * 0.1, j * 0.1))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from([0.01, 0.05, 0.1, 0.25]),
        st.data(),
        st.sampled_from(["zero", "tiny", "on-grid", "large"]),
    )
    def test_grid_rows_are_the_encoded_starts(self, step, data, delay):
        # The scan writes its starts as rows, with no NetworkState; they
        # must be lockstep._encode of the eq_init_state starts, bit for bit,
        # at a delay window that holds no memory but the reference's, one
        # whose boundary is a grid value exactly, and one that holds all.
        values = sweep._grid_values(step)
        cells = data.draw(
            st.lists(st.tuples(st.sampled_from(values), st.sampled_from(values)), max_size=12)
        )
        tau = {
            "zero": 0.0,
            "tiny": 1e-12,
            "on-grid": data.draw(st.sampled_from(values)),
            "large": data.draw(st.floats(1.0, 1e6)),
        }[delay]
        params = ModelParams(b=3.0, eps=0.58, n=3, tau=tau)
        theta1, theta2 = (np.array([cell[k] for cell in cells], dtype=float) for k in (0, 1))
        got = sweep._grid_rows(params, theta1, theta2)
        want = lockstep._encode(3, [eq_init_state(params, a, b) for a, b in cells])
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()


class TestPhaseScanGrid:
    @pytest.mark.parametrize(
        "step,expected",
        [(0.5, 2), (0.25, 4), (0.2, 5), (0.1, 10)],
    )
    def test_grid_size_excludes_upper_endpoint(self, step, expected):
        result = phase_scan(P, step=step, max_iter=200)
        assert len(result.records) == expected * expected
        values = sorted({r.theta1 for r in result.records})
        assert values == pytest.approx([i * step for i in range(expected)])
        assert max(values) < 1.0

    def test_records_in_row_major_grid_order(self):
        result = phase_scan(P, step=0.25, max_iter=200)
        cells = [(r.theta1, r.theta2) for r in result.records]
        assert cells == sorted(cells)

    @pytest.mark.parametrize("n", [2, 4])
    def test_grid_starts_need_three_oscillators(self, n):
        params = ModelParams(b=3.0, eps=0.58, n=n, tau=0.58)
        with pytest.raises(StateError) as want:
            require_section_state(params, eq_init_state(params, 0.0, 0.0))
        with pytest.raises(StateError) as got:
            phase_scan(params, step=0.5)
        assert str(got.value) == str(want.value)

    def test_scan_builds_no_state_per_cell(self, monkeypatch):
        # The grid starts are written as rows, so the scan never asks for
        # a cell's NetworkState.
        want = phase_scan(P, step=0.1)

        def refused(*args):
            raise AssertionError("phase_scan built a per-cell start state")

        monkeypatch.setattr(sweep, "eq_init_state", refused)
        got = phase_scan(P, step=0.1)
        assert repr(got.records) == repr(want.records)

    @pytest.mark.parametrize("rows", [1, 7, 2500])
    def test_scan_equals_the_state_path_at_any_window(self, monkeypatch, rows):
        # The grid rows against detection from the cells' eq_init_state
        # NetworkStates (tests/oracle.py), with 1, 7 and 2,500 live rows.
        monkeypatch.setattr(poincare, "_LIVE_ROWS", rows)
        records, signatures = scan_reference(P, 0.1)
        result = phase_scan(P, step=0.1)
        assert repr(result.records) == repr(records)
        assert repr(result.signatures) == repr(signatures)

    def test_slot_groups_compare_bits_in_order_of_first_appearance(self):
        # Slots of 1, 2, 1, 2, 1 and 0 rows: -0.0 differs from 0.0, a slot
        # differs from its own prefix, and the head tells equal rows apart.
        items = np.array([[0.5, 0.25], [0.5, 0.25], [0.0, 1.0], [-0.0, 0.5], [0.5, 0.25],
                          [0.0, 1.0], [0.0, 0.5]])
        counts = np.array([1, 2, 1, 2, 1, 0])
        group, first = sweep._groups(items, counts[:5])
        assert group.tolist() == [0, 1, 2, 1, 3] and first.tolist() == [0, 1, 2, 4]
        head = np.array([[7.0], [7.0], [7.0], [8.0], [7.0], [7.0]])
        group, first = sweep._groups(items, counts, head)
        assert group.tolist() == [0, 1, 2, 3, 4, 5] and first.tolist() == list(range(6))
        assert sweep._groups(items, counts[:5], head[:5])[0].tolist() == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("step", [0.0, -0.1, 1.0, 1.5])
    def test_rejects_degenerate_step(self, step):
        with pytest.raises(DomainError):
            phase_scan(P, step=step)

    @pytest.mark.parametrize("step", [1e-6, 5e-324, 1 / 3163])
    def test_rejects_a_step_past_the_cell_bound(self, monkeypatch, step):
        # Refused from the step alone, before any value or start is made
        # (test_cli.py::TestGridBounds tries 1e-300, which would build
        # values for minutes if it were not refused).
        monkeypatch.setattr(sweep, "_scan_triangle", None)
        with pytest.raises(DomainError, match="too fine: a scan grid holds at most 3162 values"):
            phase_scan(P, step=step)

    def test_finest_step_fits_the_cell_bound(self):
        assert sweep._grid_count(1 / 3162) == 3162 == math.isqrt(sweep.MAX_GRID_CELLS)
        assert sweep._grid_count(0.01) == 100

    def test_defaults_exported(self):
        assert DEFAULT_SCAN_STEP == 0.01
        assert DEFAULT_SCAN_MAX_ITER == 10_000


class TestPhaseScanReference:
    def test_every_cell_is_periodic(self):
        assert scan05().not_periodic_count() == 0
        assert all(r.periodic for r in scan05().records)

    def test_observed_periods(self):
        assert scan05().observed_periods() == {1, 2, 3, 4, 5}

    def test_period_census(self):
        census = {}
        for record in scan05().records:
            census[record.poincare_period] = census.get(record.poincare_period, 0) + 1
        assert census == {1: 167, 2: 54, 3: 169, 4: 4, 5: 6}

    def test_origin_cell_is_synchronous_fixed_point(self):
        origin = scan05().records[0]
        assert (origin.theta1, origin.theta2) == (0.0, 0.0)
        assert origin.transient_iters == 0
        assert origin.poincare_period == 1
        assert origin.orbit_period == pytest.approx(P.tau, abs=1e-12)
        assert origin.projection == ((0.0, 0.0),)

    def test_orbit_periods_are_delay_multiples(self):
        multiple = {1: 1.0, 2: 1.0, 3: 2.0, 4: 3.0, 5: 3.0}
        for record in scan05().records:
            expected = multiple[record.poincare_period] * P.tau
            assert record.orbit_period == pytest.approx(expected, abs=1e-9)

    def test_period4_cells_share_one_signature(self):
        tp4 = [r for r in scan05().records if r.poincare_period == 4]
        assert len(tp4) == 4
        assert len({r.signature_id for r in tp4}) == 1

    def test_period3_cells_split_into_three_relabelings(self):
        tp3 = [r for r in scan05().records if r.poincare_period == 3]
        assert len({r.signature_id for r in tp3}) == 3

    def test_signature_table_is_interned(self):
        signatures = scan05().signatures
        assert len(signatures) == 7
        for i, a in enumerate(signatures):
            for b in signatures[i + 1 :]:
                assert not pulse_equivalent(a, b)
        for record in scan05().records:
            assert 0 <= record.signature_id < len(signatures)

    def test_projection_points_lie_in_unit_square(self):
        for record in scan05().records:
            assert len(record.projection) >= 1
            for x, y in record.projection:
                assert 0.0 <= x < 1.0
                assert 0.0 <= y < 1.0

    def test_scan_is_sound_on_spot_checks(self):
        # Re-run the detector from scratch on a systematic sample of cells
        # and require identical classification.
        records = scan05().records[::37]
        for record in records:
            redone = detect_periodicity(
                P, eq_init_state(P, record.theta1, record.theta2)
            )
            assert isinstance(redone, PeriodicityResult)
            assert redone.poincare_period == record.poincare_period
            assert redone.transient_iters == record.transient_iters
            assert redone.orbit_period == pytest.approx(
                record.orbit_period, abs=1e-12
            )

    def test_parallel_scan_matches_serial(self):
        serial = phase_scan(P, step=0.1, workers=1)
        parallel = phase_scan(P, step=0.1, workers=3)
        assert serial.records == parallel.records
        assert serial.signatures == parallel.signatures

    def test_blocks_and_workers_leave_the_bytes_unchanged(self, tmp_path, monkeypatch):
        # The whole step-0.1 grid live at once, against one and seven live
        # rows, serially and on two workers, and the default window.  With
        # one live row cycles are found in start order, so the spans' chunks
        # build the serial table column for column.
        written, tables = [], []
        for rows, workers in ((1000, 1), (1, 1), (1, 2), (7, 2), (poincare._LIVE_ROWS, 2)):
            monkeypatch.setattr(poincare, "_LIVE_ROWS", rows)
            result = phase_scan(P, step=0.1, workers=workers)
            tables.append([*result.table[:-1], *result.table.receptions])
            csv_path = tmp_path / f"{rows}-{workers}.csv"
            json_path = tmp_path / f"{rows}-{workers}.json"
            write_phase_scan_csv(result, csv_path)
            write_phase_scan_json(result, json_path)
            written.append((csv_path.read_bytes(), json_path.read_bytes()))
        assert written[0] == written[1] == written[2] == written[3] == written[4]
        assert all(map(np.array_equal, tables[1], tables[2]))

    def test_workers_leave_the_bytes_unchanged_at_any_window(self, tmp_path, monkeypatch):
        # The step-0.02 grid's 1,275 triangle cells with 7 live rows, and
        # with all of them live at once (5,050 rows), serially and on two
        # workers: the datasets are read off one cycle table either way.
        written = set()
        for rows in (7, 5050):
            monkeypatch.setattr(poincare, "_LIVE_ROWS", rows)
            for workers in (1, 2):
                result = phase_scan(P, step=0.02, workers=workers)
                write_phase_scan_csv(result, tmp_path / "scan.csv")
                write_phase_scan_json(result, tmp_path / "scan.json")
                written.add(((tmp_path / "scan.csv").read_bytes(), (tmp_path / "scan.json").read_bytes()))
        assert len(written) == 1

    def test_first_failing_cell_in_grid_order_raises(self):
        # At zero delay this coupling stalls the cascade of some cells.
        stall = ModelParams(b=3.0, eps=1.6, n=3, tau=0.0)
        first = None
        for t1 in (0.0, 0.5):
            for t2 in (0.0, 0.5):
                try:
                    detect_periodicity(stall, eq_init_state(stall, t1, t2))
                except EngineStallError as exc:
                    first = first or exc
        assert first is not None
        for workers in (1, 2):
            with pytest.raises(EngineStallError) as exc:
                phase_scan(stall, step=0.5, workers=workers)
            assert str(exc.value) == str(first)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        st.floats(0.2, 8.0),
        st.floats(0.0, 0.95),
        st.one_of(st.sampled_from([0.0, 1e-12]), st.floats(0.01, 1.2)),
        st.sampled_from([0.1, 0.2, 0.25]),
        st.sampled_from([1, 3, 10_000]),
        st.sampled_from([1, 2]),
    )
    def test_scan_equals_the_cell_by_cell_reference(self, b, eps, tau, step, max_iter, workers):
        params = ModelParams(b=b, eps=eps, n=3, tau=tau)
        try:
            records, signatures = scan_reference(params, step, max_iter)
        except (EngineStallError, HorizonExceededError) as exc:
            with pytest.raises(type(exc)) as raised:
                phase_scan(params, step=step, max_iter=max_iter, workers=workers)
            assert str(raised.value) == str(exc)
            return
        got = phase_scan(params, step=step, max_iter=max_iter, workers=workers)
        assert repr(got.records) == repr(records)
        assert repr(got.signatures) == repr(signatures)

    def test_interning_follows_pulse_equivalent(self, monkeypatch):
        # Four one-state cycles of recipient 0 alone, the cells of the first
        # grid row: the first two differ only in the order of their
        # multiplicities, the third is the first with its period 5e-10
        # longer, the fourth with it 2e-9 longer.  The first cells of the
        # later rows read the mirrors of cycles 1-3, received by recipient
        # 1; no other cell found a cycle.
        periods = [1.0, 1.0, 1.0 + 5e-10, 1.0 + 2e-9]
        table = poincare._CycleTable(
            transients=np.zeros(4, dtype=int),
            periods=np.ones(4, dtype=int),
            orbits=np.array(periods),
            phases=np.array([[0.1 * k, 0.2, 0.0] for k in range(4)]),
            ftds=np.zeros((4, 1)),
            senders=np.full((4, 1), 2),
            returns=np.array(periods),
            receptions=(
                np.repeat(np.arange(4), 2),
                np.zeros(8, dtype=int),
                np.array([2, 1, 1, 2, 2, 1, 2, 1]),
                np.tile([0.25, 0.5], 4),
            ),
        )
        grid = np.full((4, 4), -1)
        grid[0] = grid[:, 0] = np.arange(4)
        monkeypatch.setattr(sweep, "_scan_triangle", lambda *args: (grid, table))
        result = phase_scan(P, step=0.25)
        ids = [r.signature_id for r in result.records]
        assert ids == [0, 1, 0, 2, 3, None, None, None, 4, None, None, None, 5, None, None, None]
        sigs = [
            PulseSignature(period=t, receptions=tuple(zip([r, r], m, [0.25, 0.5])))
            for r in (0, 1)
            for t, m in zip(periods, [(2, 1), (1, 2), (2, 1), (2, 1)])
        ]
        assert [pulse_equivalent(sigs[0], s) for s in sigs[:4]] == [True, False, True, False]
        assert result.signatures == (sigs[0], sigs[1], sigs[3], sigs[5], sigs[6], sigs[7])

    def test_mirrored_ties_intern_as_the_reference(self):
        # At P, some cycles of cells above the diagonal have recipients 0
        # and 1 receive at one offset with unequal multiplicities.  Their
        # mirrors' receptions, recipients swapped, must be re-sorted by
        # (offset, recipient), and the mirror then holds another key.
        for step in (0.1, 0.25):
            result = phase_scan(P, step=step)
            k, who, mult, offset = result.table.receptions
            tie = (k[1:] == k[:-1]) & (offset[1:] == offset[:-1]) & (mult[1:] != mult[:-1])
            tied = set(k[1:][tie & (who[:-1] == 0) & (who[1:] == 1)].tolist())
            upper = result.grid[np.triu_indices(len(result.grid), 1)]
            assert tied & set(upper.tolist())
            swapped, order = sweep._mirror_order(result.table.receptions)
            for cycle in tied:
                rows = k == cycle
                assert not np.array_equal(swapped[rows], swapped[order][rows])
            records, signatures = scan_reference(P, step)
            assert repr(result.records) == repr(records)
            assert repr(result.signatures) == repr(signatures)

    def test_config_dict_round_trips_through_json(self):
        config = scan05().config_dict()
        assert config["command"] == "phase_scan"
        assert json.loads(json.dumps(config)) == config


def mirror(result):
    """A detection result with the two free oscillators swapped: each state
    by swap_free, and the receptions' recipients 0 and 1 swapped and
    stably re-sorted by (offset, recipient)."""
    if not result.periodic:
        return replace(result, last_state=swap_free(result.last_state))
    receptions = [({0: 1, 1: 0}.get(r, r), m, t) for r, m, t in result.receptions]
    return replace(
        result,
        cycle_states=tuple(map(swap_free, result.cycle_states)),
        receptions=tuple(sorted(receptions, key=lambda rec: (rec[2], rec[0]))),
    )


class TestMirror:
    """Swapping the two free oscillators maps cell (a, b)'s scan start onto
    cell (b, a)'s, and detection commutes with the swap bit for bit, which
    lets the scan detect only the cells with theta1 <= theta2."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.floats(0.2, 8.0),
        st.floats(0.0, 0.95),
        st.one_of(st.sampled_from([0.0, 1e-12]), st.floats(0.01, 1.2)),
        st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), min_size=2, max_size=2),
        st.sampled_from([1, 3, 10_000]),
    )
    # Cycles whose states hold FTD entries of both free oscillators (period
    # 4 and period 3), so that the mirror must re-sort FTD entries by sender.
    @example(3.0, 0.58, 0.58, [(20, 65), (10, 55)], 10_000)
    def test_detection_commutes_with_the_mirror(self, b, eps, tau, cells, max_iter):
        params = ModelParams(b=b, eps=eps, n=3, tau=tau)
        values = sweep._grid_values(0.01)
        starts = [eq_init_state(params, values[i], values[j]) for i, j in cells]
        mirrored = [eq_init_state(params, values[j], values[i]) for i, j in cells]
        try:
            results = detect_periodicity_many(params, starts, max_iter)
        except (EngineStallError, HorizonExceededError) as exc:
            with pytest.raises(type(exc)):
                detect_periodicity_many(params, mirrored, max_iter)
            return
        got = detect_periodicity_many(params, mirrored, max_iter)
        assert repr(got) == repr(list(map(mirror, results)))
        source = poincare._state_source(params, starts)
        cycle, _, chunks = poincare._detect(params, source, max_iter, DEFAULT_MATCH_TOL)
        table = poincare._cycle_table(params.n, chunks)
        # The table's array mirror: the mirror slots' projections
        # (_slot_points) and the mirrored reception columns (_mirror_order),
        # each cycle's in its range.
        count = len(table.periods)
        want = list(map(mirror, poincare._cycle_results(table, range(count))))
        points = sweep._slot_points(table)[len(table.phases) :]
        assert repr(list(map(tuple, points.tolist()))) == repr(
            [state.phases[:2] for result in want for state in result.cycle_states]
        )
        k, _, mult, offset = table.receptions
        swapped, order = sweep._mirror_order(table.receptions)
        assert np.array_equal(k[order], k)
        receptions = zip(swapped[order].tolist(), mult[order].tolist(), offset[order].tolist())
        assert repr(list(receptions)) == repr([r for result in want for r in result.receptions])

    def test_only_the_triangle_is_detected(self, monkeypatch):
        # Every cell of the step-0.1 grid at P is periodic: the 55 cells
        # with theta1 <= theta2 (n (n + 1) / 2 for n = 10) are detected, in
        # spans of equal size.  The 45 below the diagonal read mirrored
        # cycles, but a mirror's signature is made only for the first cell
        # of a class (phase_scan's interning), at most one per signature.
        counted, signed = [], []
        detect, signature = sweep._detect, sweep.pulse_signature

        def counting(params, source, *args):
            taken = []

            def take(count):
                rows, errors, took = source(count)
                taken.append(took)
                return rows, errors, took

            try:
                return detect(params, take, *args)
            finally:
                counted.append(sum(taken))

        def counting_signature(params, result):
            signed.append(result)
            return signature(params, result)

        monkeypatch.setattr(sweep, "_detect", counting)
        monkeypatch.setattr(sweep, "pulse_signature", counting_signature)
        # Threads in place of processes, so that the workers count here.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ThreadPoolExecutor)
        for workers in (1, 2):
            counted.clear()
            signed.clear()
            result = phase_scan(P, step=0.1, workers=workers)
            assert result.not_periodic_count() == 0
            assert sum(counted) == 55
            assert len(counted) == workers
            assert max(counted) - min(counted) <= 1
            # A mirrored signature is made of its cycle's states with the
            # mirror's receptions, which are not that cycle's own.
            own = poincare._cycle_results(result.table, range(55))
            own = {repr(r.cycle_states): r.receptions for r in own}
            mirrored = [r for r in signed if r.receptions != own.get(repr(r.cycle_states))]
            assert 0 < len(mirrored) <= len(result.signatures)


class TestWorkerPool:
    def test_a_pool_has_no_more_workers_than_tasks(self, monkeypatch):
        # A process pool forks all its workers at its first task, so 16
        # workers for the 4 cells of a 2x2 parameter grid, or for the 3
        # spans of the step-0.5 triangle, would leave most idle.  Threads
        # stand in for the processes.
        pools = []

        def recording(max_workers):
            pools.append(max_workers)
            return ThreadPoolExecutor(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording)
        axes = ((0.45, 0.7), (0.45, 0.7))
        assert param_scan(*axes, workers=16).records == param_scan(*axes).records
        assert repr(phase_scan(P, 0.5, workers=16).records) == repr(phase_scan(P, 0.5).records)
        assert pools == [4, 3]

    def test_importing_the_cli_loads_no_process_machinery(self):
        # concurrent.futures loads its process pool, and multiprocessing
        # with it, on first use: only a run with workers > 1 pays for it.
        probe = (
            "import sys, isochron.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))"
        )
        src = str(Path(isochron.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out == "[]\n"


class TestParamScan:
    def test_grid_is_eps_major(self):
        cells = [(r.eps, r.tau) for r in param_grid_scan().records]
        assert cells == [(e, t) for e in PARAM_GRID for t in PARAM_GRID]

    def test_existence_flags_match_direct_evaluation(self):
        for record in param_grid_scan().records:
            params = ModelParams(b=3.0, eps=record.eps, n=3, tau=record.tau)
            assert record.exists["IR3"] == region_exists(params, "IR3")
            assert record.exists["IR4"] == region_exists(params, "IR4")
            assert record.exists["IR5"] == region_exists(params, "IR5")

    def test_volume_zero_exactly_where_family_is_empty(self):
        for record in param_grid_scan().records:
            assert record.volumes["IR4"] is not None
            assert (record.volumes["IR4"] > 0.0) == record.exists["IR4"]
            assert record.volumes["IR3"] is None
            assert record.volumes["IR5"] is None

    def test_volumes_match_direct_evaluation(self):
        for record in param_grid_scan().records:
            params = ModelParams(b=3.0, eps=record.eps, n=3, tau=record.tau)
            direct = region_volume(region_spec(params, "IR4")).volume
            assert record.volumes["IR4"] == pytest.approx(direct, rel=1e-12, abs=0.0)

    def test_frozen_reference_volume(self):
        by_cell = {(r.eps, r.tau): r for r in param_grid_scan().records}
        assert by_cell[(0.45, 0.45)].volumes["IR4"] == pytest.approx(
            0.003101626636086506, rel=1e-12
        )

    def test_monte_carlo_cells_are_worker_invariant(self):
        kwargs = dict(
            volume_kinds=("IR4",),
            volume_method="montecarlo",
            volume_samples=20_000,
            seed=7,
        )
        serial = param_scan((0.45, 0.7), (0.45, 0.7), workers=1, **kwargs)
        parallel = param_scan((0.45, 0.7), (0.45, 0.7), workers=2, **kwargs)
        assert serial.records == parallel.records
        assert any(r.volumes["IR4"] > 0.0 for r in serial.records)

    @pytest.mark.parametrize(
        "eps_values,tau_values", [((0.5,), (0.4, 0.6)), ((0.4, 0.6), (0.5,))]
    )
    def test_rejects_single_value_axes(self, eps_values, tau_values):
        with pytest.raises(DomainError):
            param_scan(eps_values, tau_values)

    def test_rejects_unknown_volume_method(self):
        # No cell reads the method without volume kinds, so only an up-front
        # check can keep it out of the dataset's config.
        with pytest.raises(DomainError, match="unknown volume method 'foo'"):
            param_scan((0.4, 0.6), (0.4, 0.6), volume_method="foo")

    def test_config_dict_round_trips_through_json(self):
        config = param_grid_scan().config_dict()
        assert config["command"] == "param_scan"
        assert json.loads(json.dumps(config)) == config


@st.composite
def ir4_draws(draw):
    """Parameters with n = 3 where the period-4 family is not empty, a
    grid step and a seed.  The family's center value is affine in tau
    with intercept c, the single-pulse jump of phase 0, so tau is drawn
    inside the window where it lies in [h1, 1], away from its ends;
    families too thin to sample are passed over."""
    b, eps = draw(st.floats(0.2, 8.0)), draw(st.floats(0.01, 0.95))
    unit = ModelParams(b=b, eps=eps, n=3, tau=1.0)
    c = jump_coeffs(unit, 1)[1]
    slope = FAMILIES["IR4"].center_value(unit, region_center("IR4", 1.0)) - c
    lo, hi = max(trigger_threshold(unit, 1) - c, 0.0) / slope, (1.0 - c) / slope
    assume(hi > lo)
    params = ModelParams(b=b, eps=eps, n=3, tau=lo + draw(st.floats(0.05, 0.95)) * (hi - lo))
    assume(region_exists(params, "IR4"))
    seed = draw(st.integers(0, 2**16))
    try:
        sample_interior(params, "IR4", 20, seed=seed, max_draws=100_000)
    except RuntimeError:
        assume(False)
    return params, draw(st.sampled_from([0.1, 0.05])), seed


class TestProjectionCompare:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(ir4_draws())
    # Four scan orbits of the family, two of them met as mirrors.
    @example((P, 0.05, 0))
    def test_equals_the_scalar_overlay(self, drawn):
        # The report is repr-identical to the cycle-by-cycle reference's,
        # which detects every cell and swaps states, or both raise the
        # same error.
        params, step, seed = drawn
        args = (params, 20, seed, step)
        try:
            want = scalar_overlay(*args)
        except (RuntimeError, EngineStallError, HorizonExceededError) as exc:
            with pytest.raises(type(exc)) as raised:
                projection_compare(*args)
            assert str(raised.value) == str(exc)
            return
        assert repr(projection_compare(*args)) == repr(want)

    def test_scan_attractors_identified_and_contained(self):
        report = reference_overlay()
        assert report.numeric_orbit_count == 4
        assert report.mirror_orbit_count == 2
        assert report.unidentified_period4_count == 0
        assert len(report.numeric_points) == 16
        assert report.contained
        assert report.violations == ()

    def test_analytic_points_pass_membership(self):
        report = reference_overlay()
        assert len(report.analytic_points) == 50
        for x, y in report.analytic_points:
            assert ir4_projection_contains(P, x, y, tol=1e-9)

    def test_numeric_points_pass_membership_individually(self):
        for x, y in reference_overlay().numeric_points:
            assert ir4_projection_contains(P, x, y, tol=1e-6)

    def test_seeding_recovers_every_sampled_orbit(self):
        report = reference_overlay()
        assert report.seeded_orbit_count == 50
        assert len(report.seeded_points) == 4 * 50
        for x, y in report.seeded_points:
            assert ir4_projection_contains(P, x, y, tol=1e-6)

    def test_sparse_parameters_scan_finds_no_family_orbit(self):
        # The family exists here, yet no grid cell converges to it; the
        # overlay is vacuously contained and seeding still recovers orbits.
        report = projection_compare(P_SPARSE, n_samples=20, seed=0, step=0.05)
        assert region_exists(P_SPARSE, "IR4")
        assert report.numeric_orbit_count == 0
        assert report.numeric_points == ()
        assert report.unidentified_period4_count == 0
        assert report.contained
        assert len(report.analytic_points) == 20
        assert report.seeded_orbit_count == 20

    def test_rejects_parameters_without_family(self):
        with pytest.raises(DomainError):
            projection_compare(P_OUTSIDE, n_samples=5)

    def test_scan_cycles_are_identified_directly_mirrored_or_not(self, monkeypatch):
        # Cell (0, 0.25) reads a family cycle and cell (0.25, 0) its mirror;
        # cell (0.5, 0.5) reads a period-4 cycle that embeds no family
        # point: three of its states have FTD shape (1, 1, 1), and the
        # fourth's coordinates break the family's ordering.
        family = detect_periodicity(P, s_embed(P, "IR4", (0.30, 0.10, 0.40))).cycle_states
        assert len(family) == 4
        other = [
            network_state((0.1 * k, 0.2, 0.0), ((0.1,), (0.2,), (0.0,))) for k in range(1, 4)
        ]
        other.append(network_state((0.5, 0.3, 0.0), ((0.1,), (0.3,), (0.0, 0.4))))
        phases, ftds, senders = lockstep._encode(3, [*family, *other])
        table = poincare._CycleTable(
            transients=np.zeros(2, dtype=int),
            periods=np.array([4, 4]),
            orbits=np.full(2, 3 * P.tau),
            phases=phases,
            ftds=ftds,
            senders=senders,
            returns=np.full(8, 0.75 * P.tau),
            receptions=(np.zeros(0, dtype=int),) * 3 + (np.zeros(0),),
        )
        grid = np.full((4, 4), -1)
        grid[0, 1] = grid[1, 0] = 0
        grid[2, 2] = 1
        monkeypatch.setattr(sweep, "_scan_triangle", lambda *args: (grid, table))
        report = projection_compare(P, n_samples=5, step=0.25)
        points, sigma = [], (0.30, 0.10, 0.40)
        for _ in range(4):
            points.append(sweep._ir4_phase_plane(P, sigma))
            sigma = g_map(sigma, P.tau)
        assert report.numeric_points == tuple(points * 2)
        assert report.numeric_orbit_count == 2
        assert report.mirror_orbit_count == 1
        assert report.unidentified_period4_count == 1

    @pytest.mark.parametrize(
        "move, identified",
        [
            # The reference's first FTD entry off 0.0: within the match
            # tolerance, but no family state.
            (lambda s: (s.phases, (*s.ftds[:2], (5e-8, s.ftds[2][1]))), 0),
            # The first phase within 1e-7 of the family state's, then past it.
            (lambda s: ((s.phases[0] + 5e-8, *s.phases[1:]), s.ftds), 2),
            (lambda s: ((s.phases[0] + 2e-7, *s.phases[1:]), s.ftds), 0),
        ],
        ids=["reference-entry", "phase-within", "phase-past"],
    )
    def test_a_family_state_is_matched_within_1e_7(self, monkeypatch, move, identified):
        # Cell (0, 0.25) reads a family cycle and cell (0.25, 0) its mirror,
        # every state moved alike.
        family = detect_periodicity(P, s_embed(P, "IR4", (0.30, 0.10, 0.40))).cycle_states
        phases, ftds, senders = lockstep._encode(3, [network_state(*move(s)) for s in family])
        table = poincare._CycleTable(
            transients=np.zeros(1, dtype=int),
            periods=np.array([4]),
            orbits=np.full(1, 3 * P.tau),
            phases=phases,
            ftds=ftds,
            senders=senders,
            returns=np.full(4, 0.75 * P.tau),
            receptions=(np.zeros(0, dtype=int),) * 3 + (np.zeros(0),),
        )
        grid = np.full((4, 4), -1)
        grid[0, 1] = grid[1, 0] = 0
        monkeypatch.setattr(sweep, "_scan_triangle", lambda *args: (grid, table))
        report = projection_compare(P, n_samples=5, step=0.25)
        assert report.numeric_orbit_count == identified
        assert report.mirror_orbit_count == identified // 2
        assert report.unidentified_period4_count == 2 - identified

    def test_json_dict_round_trips(self):
        payload = reference_overlay().to_json_dict()
        assert payload["contained"] is True
        assert json.loads(json.dumps(payload)) == payload


class TestStabilityProbe:
    def test_center_perturbations_converge_in_one_return(self):
        report = stability_probe(P, region_center("IR4", P.tau), n_trials=100, seed=0)
        assert report.ok
        assert report.n_run == 100
        assert report.n_refused == 0
        assert report.failures == ()
        assert report.max_distance <= 1e-12

    def test_wide_perturbations_are_refused_not_failed(self):
        report = stability_probe(
            P, region_center("IR4", P.tau), dsigma_max=0.2, n_trials=100, seed=3
        )
        assert report.n_run + report.n_refused == 100
        assert report.n_refused > 0
        assert report.n_run > 0
        assert report.ok
        assert report.max_distance <= 1e-12

    def test_failures_carry_the_traced_return(self):
        # A negative tolerance fails every trial that runs.
        sigma = region_center("IR4", P.tau)
        report = stability_probe(P, sigma, n_trials=5, seed=2, tol=-1.0)
        assert not report.ok
        assert len(report.failures) == report.n_run > 0
        for failure in report.failures:
            embedded = s_embed(P, "IR4", failure.sigma_perturbed)
            theta1, theta2, theta3 = embedded.phases
            start = network_state(
                (theta1 + failure.dtheta[0], theta2 + failure.dtheta[1], theta3),
                embedded.ftds,
            )
            _, _, events = init_engine(P, start).run_until_section(trace=True)
            assert failure.trace == format_trace_text(events)
            assert failure.trace.splitlines()[-1].startswith("F 3 t=")

    def test_failures_pair_each_trial_with_its_distance(self, monkeypatch):
        # Distances 0, 1, 2, ... in trial order: at tol 0.5 every trial but
        # the first fails, each with its own distance and perturbed point.
        ran = []

        def numbered(params, sigmas, starts):
            ran.extend(sigmas)
            return [float(i) for i in range(len(sigmas))]

        monkeypatch.setattr(sweep, "intertwining_distances", numbered)
        report = stability_probe(P, region_center("IR4", P.tau), n_trials=5, seed=2, tol=0.5)
        assert report.n_run == len(ran) == 5
        assert [f.distance for f in report.failures] == [1.0, 2.0, 3.0, 4.0]
        assert [f.sigma_perturbed for f in report.failures] == ran[1:]
        assert report.max_distance == 4.0

    def test_rejects_non_interior_base_point(self):
        tau = P.tau
        with pytest.raises(DomainError):
            stability_probe(P, (tau / 4, tau / 2, 3 * tau / 4))

    def test_is_deterministic_in_seed(self):
        a = stability_probe(P, region_center("IR4", P.tau), n_trials=20, seed=11)
        b = stability_probe(P, region_center("IR4", P.tau), n_trials=20, seed=11)
        assert a == b

    def test_json_dict_round_trips(self):
        report = stability_probe(P, region_center("IR4", P.tau), n_trials=5, seed=1)
        payload = report.to_json_dict()
        assert payload["ok"] is True
        assert json.loads(json.dumps(payload)) == payload


class TestBoundaryEscapeDemo:
    def test_inside_family_center_is_fixed_point(self):
        report = boundary_escape_demo(P)
        assert report.region_nonempty
        assert report.horizon == pytest.approx(3 * P.tau)
        assert len(report.events) > 0
        assert isinstance(report.result, PeriodicityResult)
        assert report.result.transient_iters == 0
        assert report.result.poincare_period == 1
        assert report.result.orbit_period == pytest.approx(
            3 * P.tau / 4, abs=1e-12
        )

    def test_outside_family_collapses_to_single_return_attractor(self):
        report = boundary_escape_demo(P_OUTSIDE)
        assert not report.region_nonempty
        assert isinstance(report.result, PeriodicityResult)
        assert report.result.poincare_period == 1
        assert report.result.transient_iters <= 1000

    def test_zero_coupling_free_runs_with_unit_period(self):
        params = ModelParams(b=3.0, eps=0.0, n=3, tau=0.58)
        report = boundary_escape_demo(params)
        assert not report.region_nonempty
        assert isinstance(report.result, PeriodicityResult)
        assert report.result.poincare_period == 1
        assert report.result.orbit_period == pytest.approx(1.0, abs=1e-12)

    def test_json_dict_round_trips(self):
        payload = boundary_escape_demo(P).to_json_dict()
        assert payload["region_nonempty"] is True
        assert json.loads(json.dumps(payload)) == payload


class TestDatasetHeader:
    def test_minimal_header(self):
        lines = dataset_header({"command": "x", "b": 3.0})
        assert lines == [
            f"# isochron {__version__}",
            '# config: {"b": 3.0, "command": "x"}',
        ]

    def test_seed_and_timestamp_lines_are_optional(self):
        lines = dataset_header({"command": "x"}, seed=42, timestamp="2024-01-01T00:00:00")
        assert "# seed: 42" in lines
        assert "# timestamp: 2024-01-01T00:00:00" in lines
        bare = dataset_header({"command": "x"})
        assert not any("seed" in line or "timestamp" in line for line in bare)

    def test_config_keys_are_sorted(self):
        lines = dataset_header({"zz": 1, "aa": 2})
        assert lines[1].index('"aa"') < lines[1].index('"zz"')


# Cell values for the CSV writers: both zeros, NaN, the infinities, the
# smallest subnormal and integers among the floats.
_CELL_FLOATS = (
    st.floats()
    | st.sampled_from([0.0, -0.0, 5e-324, float("nan"), float("inf"), -float("inf")])
    | st.integers(-3, 3)
)
_CELL_INTS = st.integers(-1, 2**62)


@st.composite
def _scan_results(draw):
    """A phase scan on the step-0.25 grid whose cycles hold drawn values.
    Two of them are equal but for the signs of their zeros, which the
    writers must still write apart; the cells read any cycle or none."""
    periods = draw(st.lists(st.integers(1, 3), max_size=4)) + [1, 1]
    count, rows = len(periods), sum(periods)
    points = draw(st.lists(st.tuples(_CELL_FLOATS, _CELL_FLOATS), min_size=rows, max_size=rows))
    points[-2:] = [(0.0, 0.5), (-0.0, 0.5)]
    orbits = draw(st.lists(_CELL_FLOATS, min_size=count, max_size=count))
    orbits[-2:] = [0.0, -0.0]
    table = poincare._CycleTable(
        transients=np.array(draw(st.lists(_CELL_INTS, min_size=count, max_size=count))),
        periods=np.array(periods),
        orbits=np.array(orbits, dtype=float),
        phases=np.array([(x, y, 0.0) for x, y in points], dtype=float),
        ftds=np.zeros((rows, 0)),
        senders=np.zeros((rows, 0), dtype=int),
        returns=np.zeros(rows),
        receptions=(np.zeros(0, dtype=int),) * 3 + (np.zeros(0),),
    )
    cells = draw(st.lists(st.integers(-1, count - 1), min_size=16, max_size=16))
    cells[:2] = [count - 2, count - 1]
    ids = draw(st.lists(_CELL_INTS, min_size=2 * count, max_size=2 * count))
    return sweep.PhaseScanResult(
        params=P,
        step=0.25,
        max_iter=1,
        tol=1e-9,
        grid=np.array(cells).reshape(4, 4),
        table=table,
        signature_ids=np.array(ids).reshape(2, count),
        signatures=(),
    )


def _csv_rows(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(line for line in fh if not line.startswith("#")))[1:]


def _record_dumps(result) -> tuple[bytes, bytes]:
    """A phase scan's CSV and JSON datasets as csv.writer and json.dumps
    write its records, cell by cell."""
    fmt, opt = sweep._fmt, sweep._opt
    out = io.StringIO()
    out.writelines(line + "\n" for line in dataset_header(result.config_dict()))
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["theta1", "theta2", "periodic", "transient_iters", "poincare_period", "orbit_period",
         "signature_id", "projection"]
    )
    writer.writerows(
        [fmt(r.theta1), fmt(r.theta2), int(r.periodic), opt(r.transient_iters),
         opt(r.poincare_period), opt(r.orbit_period), opt(r.signature_id),
         ";".join(f"{fmt(x)} {fmt(y)}" for x, y in r.projection)]
        for r in result.records
    )
    payload = {
        "version": __version__,
        "timestamp": None,
        "config": result.config_dict(),
        "seed": None,
        "signatures": result.signatures,
        "records": result.records,
    }
    return out.getvalue().encode(), (json.dumps(plain(payload), sort_keys=True, indent=1) + "\n").encode()


def _written(result, directory) -> tuple[bytes, bytes]:
    """The bytes write_phase_scan_csv and write_phase_scan_json write."""
    write_phase_scan_csv(result, directory / "scan.csv")
    write_phase_scan_json(result, directory / "scan.json")
    return (directory / "scan.csv").read_bytes(), (directory / "scan.json").read_bytes()


class TestDatasetWriters:
    def test_phase_scan_csv_is_byte_reproducible(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_phase_scan_csv(scan25(), first)
        write_phase_scan_csv(scan25(), second)
        assert first.read_bytes() == second.read_bytes()

    def test_phase_scan_csv_layout(self, tmp_path):
        path = tmp_path / "scan.csv"
        write_phase_scan_csv(scan25(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == f"# isochron {__version__}"
        assert lines[1].startswith("# config: ")
        config = json.loads(lines[1].removeprefix("# config: "))
        assert config["command"] == "phase_scan"
        assert config["step"] == 0.25
        assert lines[2] == (
            "theta1,theta2,periodic,transient_iters,poincare_period,"
            "orbit_period,signature_id,projection"
        )
        assert len(lines) == 3 + 16

    def test_phase_scan_csv_floats_use_17_significant_digits(self, tmp_path):
        path = tmp_path / "scan.csv"
        write_phase_scan_csv(scan25(), path)
        rows = [
            line.split(",")
            for line in path.read_text().splitlines()
            if not line.startswith("#")
        ][1:]
        for row, record in zip(rows, scan25().records):
            assert row[0] == format(record.theta1, ".17g")
            assert row[5] == format(record.orbit_period, ".17g")

    def test_phase_scan_csv_projection_cell_format(self, tmp_path):
        path = tmp_path / "scan.csv"
        write_phase_scan_csv(scan25(), path)
        point = r"-?[0-9.e+\-]+ -?[0-9.e+\-]+"
        pattern = re.compile(rf"^{point}(;{point})*$")
        rows = [
            line.split(",")
            for line in path.read_text().splitlines()
            if not line.startswith("#")
        ][1:]
        for row in rows:
            assert pattern.match(row[7])

    def test_timestamp_line_only_when_given(self, tmp_path):
        stamped = tmp_path / "stamped.csv"
        bare = tmp_path / "bare.csv"
        write_phase_scan_csv(
            scan25(), stamped, timestamp="2024-06-01T12:00:00"
        )
        write_phase_scan_csv(scan25(), bare)
        assert "# timestamp: 2024-06-01T12:00:00" in stamped.read_text()
        assert "timestamp" not in bare.read_text()

    def test_phase_scan_json_round_trips(self, tmp_path):
        path = tmp_path / "scan.json"
        write_phase_scan_json(scan25(), path)
        payload = json.loads(path.read_text())
        assert payload["version"] == __version__
        assert payload["seed"] is None
        assert payload["config"]["command"] == "phase_scan"
        assert len(payload["records"]) == 16
        assert len(payload["signatures"]) == len(scan25().signatures)
        write_phase_scan_json(scan25(), tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        st.floats(0.2, 8.0),
        st.floats(0.0, 0.95),
        st.floats(0.01, 1.2),
        st.sampled_from([0.1, 0.25]),
        st.sampled_from([3, 10_000]),
    )
    # Cells that find no cycle within three returns beside periodic ones.
    @example(1.5, 0.2, 0.9, 0.1, 3)
    def test_writers_agree_with_the_serializer(self, tmp_path_factory, b, eps, tau, step, max_iter):
        # The columnar writers write what csv.writer and the one Record
        # serializer make of the scan's records.
        params = ModelParams(b=b, eps=eps, n=3, tau=tau)
        result = phase_scan(params, step=step, max_iter=max_iter)
        assert _written(result, tmp_path_factory.getbasetemp()) == _record_dumps(result)

    def test_param_scan_writers(self, tmp_path):
        result = param_scan((0.45, 0.7), (0.45, 0.7), volume_kinds=("IR4",), seed=9)
        csv_path = tmp_path / "params.csv"
        write_param_scan_csv(result, csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == f"# isochron {__version__}"
        assert "# seed: 9" in lines
        assert lines[3] == (
            "eps,tau,exists_ir3,exists_ir4,exists_ir5,"
            "volume_ir3,volume_ir4,volume_ir5"
        )
        first = lines[4].split(",")
        assert first[2:5] == ["1", "1", "0"]
        assert first[5] == "" and first[7] == ""
        json_path = tmp_path / "params.json"
        write_param_scan_json(result, json_path)
        payload = json.loads(json_path.read_text())
        assert payload["seed"] == 9
        assert len(payload["records"]) == 4

    def test_projection_writers(self, tmp_path):
        report = projection_compare(P, n_samples=10, seed=2, step=0.2)
        csv_path = tmp_path / "projection.csv"
        write_projection_csv(report, csv_path)
        lines = [
            line for line in csv_path.read_text().splitlines()
            if not line.startswith("#")
        ]
        assert lines[0] == "set,theta1,theta2"
        labels = [line.split(",")[0] for line in lines[1:]]
        assert set(labels) <= {"analytic", "scan", "seeded"}
        assert labels.count("analytic") == len(report.analytic_points)
        assert labels.count("scan") == len(report.numeric_points)
        assert labels.count("seeded") == len(report.seeded_points)
        json_path = tmp_path / "projection.json"
        write_projection_json(report, json_path)
        payload = json.loads(json_path.read_text())
        assert payload["contained"] is True
        assert payload["version"] == __version__

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        result=_scan_results(),
        values=st.lists(st.tuples(_CELL_FLOATS, st.booleans(), st.none() | _CELL_FLOATS)),
    )
    def test_csv_cells_are_formatted_per_cell(self, tmp_path_factory, result, values):
        # Every cell holds the text _fmt or _opt gives its own value, however
        # often an equal value or one projection recurs.  A phase scan's
        # records read each cell's cycle, or its mirror below the diagonal.
        fmt, opt = sweep._fmt, sweep._opt
        records = result.records
        table, values4 = result.table, sweep._grid_values(0.25)
        starts = np.cumsum(table.periods) - table.periods
        for (i, j), r in zip(np.ndindex(4, 4), records):
            k = result.grid[i, j]
            assert (r.theta1, r.theta2, r.periodic) == (values4[i], values4[j], k >= 0)
            if k < 0:
                assert r == sweep.ScanRecord(values4[i], values4[j], False)
                continue
            points = table.phases[starts[k] : starts[k] + table.periods[k], :2]
            read = tuple(map(tuple, (points[:, ::-1] if j < i else points).tolist()))
            assert repr(r.projection) == repr(read)
            assert (r.transient_iters, r.poincare_period) == (table.transients[k], table.periods[k])
            assert repr(r.orbit_period) == repr(table.orbits[k].item())
            assert r.signature_id == result.signature_ids[int(j < i), k]
        assert _written(result, tmp_path_factory.getbasetemp()) == _record_dumps(result)
        path = tmp_path_factory.getbasetemp() / "cells.csv"
        values = [*values, (0.0, True, 0.0), (-0.0, False, -0.0), *values]
        params = [
            sweep.ParamScanRecord(
                x, -x, {k: flag for k in sweep.KINDS}, {k: v for k in sweep.KINDS}
            )
            for x, flag, v in values
        ]
        write_param_scan_csv(replace(param_grid_scan(), records=params), path)
        assert _csv_rows(path) == [
            [fmt(x), fmt(-x), *[str(int(flag))] * 3, *[opt(v)] * 3] for x, flag, v in values
        ]
        points = tuple((x, -x) for x, _, _ in values)
        report = replace(reference_overlay(), analytic_points=points, seeded_points=points)
        write_projection_csv(report, path)
        expected = [
            [label, fmt(x), fmt(y)]
            for label, group in (("analytic", points), ("scan", report.numeric_points),
                                 ("seeded", points))
            for x, y in group
        ]
        assert _csv_rows(path) == expected


class TestPlotEmitters:
    def test_phase_scan_plot_script(self):
        script = emit_phase_scan_plot("scan.csv", "scan.png")
        assert "set datafile separator ','" in script
        assert "'scan.csv'" in script
        assert "set output 'scan.png'" in script
        assert "using 1:2:5" in script

    @pytest.mark.parametrize("kind,column", [("IR3", 3), ("IR4", 4), ("IR5", 5)])
    def test_param_scan_plot_selects_kind_column(self, kind, column):
        script = emit_param_scan_plot("params.csv", kind=kind)
        assert f"using 1:2:{column}" in script

    def test_param_scan_plot_rejects_unknown_kind(self):
        with pytest.raises(KeyError):
            emit_param_scan_plot("params.csv", kind="IR6")

    def test_projection_plot_filters_all_three_sets(self):
        script = emit_projection_plot("projection.csv")
        for label in ("analytic", "scan", "seeded"):
            assert f"strcol(1) eq '{label}'" in script

    @pytest.mark.parametrize(
        "emit", [emit_phase_scan_plot, emit_param_scan_plot, emit_projection_plot]
    )
    def test_paths_with_quotes_round_trip(self, emit):
        # A gnuplot single-quoted string writes ' as ''; read back string
        # by string, the script holds both paths whole.
        csv_path, image_path = "it's.csv", "a''b'.png"
        script = emit(csv_path, image_path=image_path)
        strings = [s.replace("''", "'") for s in re.findall(r"'((?:[^']|'')*)'", script)]
        assert csv_path in strings
        assert image_path in strings

    @pytest.mark.parametrize("brk", ["\n", "\r"], ids=["lf", "cr"])
    @pytest.mark.parametrize("which", ["csv", "image"])
    @pytest.mark.parametrize(
        "emit", [emit_phase_scan_plot, emit_param_scan_plot, emit_projection_plot]
    )
    def test_paths_with_a_line_break_raise(self, emit, which, brk):
        # A gnuplot string cannot hold a line break, so no script is made.
        paths = {"csv": "scan.csv", "image": "scan.png"}
        paths[which] = f"a{brk}b"
        with pytest.raises(DomainError, match="cannot hold a line break"):
            emit(paths["csv"], image_path=paths["image"])
