"""Cycle-level DPU simulation: validating the analytic pipeline model.

The runtime prices kernels with two closed forms — the pipeline bound
``max(total_instructions, 11 * slowest_tasklet)`` and the DMA streaming
cost — combined as ``max(compute, dma)``. Those forms are standard, but
they are *models*; this module provides the ground truth they are
checked against: a cycle-exact simulation of one DPU executing
multiple tasklets, with

* a dispatcher issuing at most one instruction per cycle, round-robin
  among ready tasklets;
* the revolve constraint: a tasklet may issue again only ``revolve``
  cycles after its previous issue;
* a single shared DMA engine: a tasklet reaching a DMA phase enqueues
  its transfer (fixed cost + per-byte cost) and *blocks* until it
  completes, while other tasklets keep the pipeline busy.

The simulation is exact but does not walk every cycle. Between events
(a compute phase ending, a transfer completing) the dispatcher's
schedule is periodic — each of k ready tasklets issues once every
max(k, 11) cycles, the paper's pipeline finding — so
:class:`DPUSimulator` detects the period and advances whole periods in
closed form (see its docstring for why that is exact).

Kernels are simulated as **streaming programs**: alternating
(DMA-in, compute, DMA-out) phases over WRAM-sized blocks — the shape of
every real UPMEM streaming kernel. ``tests/pim/test_sim.py`` and the
``ext_sim_validation`` experiment assert the analytic model tracks the
simulation within a few percent across kernels and tasklet counts.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from repro.errors import ParameterError, TransientDeviceError
from repro.pim.config import UPMEMConfig

#: Phase kinds.
COMPUTE = "compute"
DMA = "dma"

#: Loop-top wait codes for a tasklet with nothing to issue (finished)
#: and for one blocked on its DMA transfer; a ready tasklet waits 0.
_IDLE = -2
_BLOCKED = -1


@dataclass(frozen=True)
class Phase:
    """One tasklet phase: either compute (instructions) or DMA (bytes)."""

    kind: str
    amount: int  # instructions for COMPUTE, bytes for DMA

    def __post_init__(self):
        if self.kind not in (COMPUTE, DMA):
            raise ParameterError(f"unknown phase kind {self.kind!r}")
        if self.amount < 0:
            raise ParameterError(f"phase amount must be >= 0: {self.amount}")


@dataclass(frozen=True)
class TaskletProgram:
    """A tasklet's life: an ordered list of phases."""

    phases: tuple

    @classmethod
    def streaming(
        cls,
        n_elements: int,
        instructions_per_element: float,
        in_bytes_per_element: int,
        out_bytes_per_element: int,
        block_elements: int,
    ) -> "TaskletProgram":
        """The canonical streaming kernel: per WRAM block, DMA the
        operands in, compute, DMA the results out."""
        if n_elements < 0 or block_elements <= 0:
            raise ParameterError("bad streaming program shape")
        phases = []
        remaining = n_elements
        while remaining > 0:
            block = min(block_elements, remaining)
            if in_bytes_per_element:
                phases.append(Phase(DMA, block * in_bytes_per_element))
            phases.append(
                Phase(COMPUTE, max(1, round(block * instructions_per_element)))
            )
            if out_bytes_per_element:
                phases.append(Phase(DMA, block * out_bytes_per_element))
            remaining -= block
        return cls(tuple(phases))

    @property
    def total_instructions(self) -> int:
        return sum(p.amount for p in self.phases if p.kind == COMPUTE)

    @property
    def total_dma_bytes(self) -> int:
        return sum(p.amount for p in self.phases if p.kind == DMA)


@dataclass
class SimTrace:
    """Optional per-cycle event trace of one simulated DPU run.

    Records every dispatcher issue (cycle, tasklet) and every DMA
    transfer (tasklet, request, start, completion, bytes) as they
    happen. ``request`` is when the tasklet reached its DMA phase and
    enqueued the transfer; ``start`` is when the shared engine actually
    began it, so ``start - request`` is the queue wait contention adds.
    Exportable two ways:

    * :meth:`events` — compacted dict records (consecutive issues by
      one tasklet merge into segments) suitable for
      :func:`repro.obs.export.write_jsonl`;
    * :meth:`to_chrome_trace` — a ``chrome://tracing`` / Perfetto
      document with one timeline row per tasklet plus a DMA-engine
      row. The time axis is **modelled cycles** (1 cycle rendered as
      1 µs), not wall time — this is the device's schedule, not the
      simulator's.

    :meth:`tasklet_activity` classifies every tasklet's cycles into
    issue / DMA-blocked / revolve-stall / dispatch-wait / idle — the
    occupancy story :mod:`repro.obs.profile` builds on.
    """

    issues: list = field(default_factory=list)  # (cycle, tasklet), clock order
    dmas: list = field(
        default_factory=list
    )  # (tasklet, request, start, end, bytes)

    def record_issue(self, cycle: int, tasklet: int) -> None:
        self.issues.append((cycle, tasklet))

    def record_dma(
        self,
        tasklet: int,
        request: float,
        start: float,
        end: float,
        n_bytes: int,
    ) -> None:
        self.dmas.append((tasklet, request, start, end, n_bytes))

    def queue_waits(self) -> list:
        """Per-transfer engine queue waits, in cycles (issue order)."""
        return [start - request for _, request, start, _, _ in self.dmas]

    def issue_segments(self) -> list:
        """Issue events compacted into (tasklet, first, last, count) runs.

        A segment covers consecutive cycles in which the dispatcher
        kept issuing for the same tasklet — the pipeline-occupancy
        picture at a glance.
        """
        segments = []
        for cycle, tasklet in sorted(self.issues):
            if (
                segments
                and segments[-1][0] == tasklet
                and segments[-1][2] == cycle - 1
            ):
                last = segments[-1]
                segments[-1] = (tasklet, last[1], cycle, last[3] + 1)
            else:
                segments.append((tasklet, cycle, cycle, 1))
        return segments

    def events(self) -> list:
        """All activity as JSON-able records (for JSONL export)."""
        records = [
            {
                "kind": "issue",
                "tasklet": tasklet,
                "start_cycle": first,
                "end_cycle": last,
                "instructions": count,
            }
            for tasklet, first, last, count in self.issue_segments()
        ]
        records.extend(
            {
                "kind": "dma",
                "tasklet": tasklet,
                "request_cycle": request,
                "start_cycle": start,
                "end_cycle": end,
                "queue_wait_cycles": start - request,
                "bytes": n_bytes,
            }
            for tasklet, request, start, end, n_bytes in self.dmas
        )
        return records

    def _coalesced_segments(self, coalesce_gap: float) -> list:
        """Issue segments merged across gaps of ``coalesce_gap`` cycles.

        In a saturated interleave every tasklet issues once per
        round-robin turn, so raw segments are one instruction each —
        per-instruction events at millions per run. Merging segments of
        one tasklet whose separation is at most ``coalesce_gap`` turns
        them into *activity bands* broken only by real pauses (DMA
        blocks, long starvation), which is what a timeline should show.
        """
        merged: dict = {}
        for tasklet, first, last, count in self.issue_segments():
            runs = merged.setdefault(tasklet, [])
            if runs and first - runs[-1][1] - 1 <= coalesce_gap:
                prev_first, _prev_last, prev_count = runs[-1]
                runs[-1] = (prev_first, last, prev_count + count)
            else:
                runs.append((first, last, count))
        return [
            (tasklet, first, last, count)
            for tasklet, runs in merged.items()
            for first, last, count in runs
        ]

    def to_chrome_trace(
        self,
        pid: int = 1,
        process_name: str = "DPU (modelled cycles)",
        coalesce_gap: float = 0.0,
    ) -> dict:
        """The run as a Chrome-trace document (cycles as microseconds).

        ``pid`` / ``process_name`` place the lanes in their own process
        group, so several simulated DPUs (or a host-span trace) can be
        merged into one document with
        :func:`repro.obs.export.merge_chrome_traces`.

        ``coalesce_gap`` merges a tasklet's issue segments separated by
        at most that many cycles into one band
        (:meth:`_coalesced_segments`); 0 keeps exact per-issue events.
        Saturated compute-bound runs need a gap of at least the tasklet
        count to band up — the profiler's exporter uses one comfortably
        above ``max_tasklets``.
        """
        events = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": process_name},
            },
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": "dma engine"},
            },
        ]
        seen_tasklets = set()
        segments = (
            self._coalesced_segments(coalesce_gap)
            if coalesce_gap > 0
            else self.issue_segments()
        )
        for tasklet, first, last, count in segments:
            seen_tasklets.add(tasklet)
            events.append(
                {
                    "name": "issue",
                    "cat": "pipeline",
                    "ph": "X",
                    "pid": pid,
                    "tid": tasklet + 1,
                    "ts": float(first),
                    "dur": float(last - first + 1),
                    "args": {"instructions": count},
                }
            )
        for tasklet, request, start, end, n_bytes in self.dmas:
            events.append(
                {
                    "name": f"dma t{tasklet}",
                    "cat": "dma",
                    "ph": "X",
                    "pid": pid,
                    "tid": 0,
                    "ts": float(start),
                    "dur": float(end - start),
                    "args": {
                        "tasklet": tasklet,
                        "bytes": n_bytes,
                        "queue_wait_cycles": start - request,
                    },
                }
            )
        for tasklet in sorted(seen_tasklets):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tasklet + 1,
                    "args": {"name": f"tasklet {tasklet}"},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def tasklet_activity(
        self, revolve_cycles: int, total_cycles: int
    ) -> dict:
        """Classify each tasklet's cycles from the recorded events.

        Returns ``{tasklet: {"issue", "dma_blocked", "revolve_stall",
        "dispatch_wait", "idle"}}`` partitioning ``[0, total_cycles)``:

        * **issue** — dispatcher slots this tasklet won;
        * **dma_blocked** — waiting on its own MRAM transfer, engine
          queue wait included;
        * **revolve_stall** — ineligible after its previous issue (at
          most ``revolve_cycles - 1`` per inter-issue gap is charged
          here);
        * **dispatch_wait** — eligible, but another tasklet won the
          slot (only possible with more tasklets than the revolve
          depth);
        * **idle** — before the program produced work or after it
          finished.

        Purely derived — calling this never changes the trace.
        """
        if revolve_cycles <= 0:
            raise ParameterError(
                f"revolve_cycles must be positive: {revolve_cycles}"
            )
        issues_by_tasklet: dict = defaultdict(list)
        for cycle, tasklet in self.issues:  # recorded in clock order
            issues_by_tasklet[tasklet].append(cycle)
        blocks_by_tasklet: dict = defaultdict(list)
        for tasklet, request, _start, end, _n in self.dmas:
            blocks_by_tasklet[tasklet].append((request, end))

        stall_cap = revolve_cycles - 1
        activity = {}
        for tasklet in sorted(set(issues_by_tasklet) | set(blocks_by_tasklet)):
            cycles = issues_by_tasklet[tasklet]
            dma_blocked = sum(
                end - request for request, end in blocks_by_tasklet[tasklet]
            )
            revolve_stall = dispatch_wait = idle = 0.0
            if cycles:
                # Attribute each DMA block to the inter-issue gap it
                # occupies (a blocked tasklet cannot issue, so every
                # block falls entirely inside one gap).
                gap_dma: dict = defaultdict(float)
                head_dma = tail_dma = 0.0
                for request, end in blocks_by_tasklet[tasklet]:
                    index = bisect.bisect_right(cycles, request)
                    if index == 0:
                        head_dma += end - request
                    elif index == len(cycles):
                        tail_dma += end - request
                    else:
                        gap_dma[index] += end - request
                # Head: no prior issue, so no revolve constraint — any
                # non-DMA wait is lost arbitration.
                dispatch_wait += max(0.0, cycles[0] - head_dma)
                for index, (before, after) in enumerate(
                    zip(cycles, cycles[1:]), 1
                ):
                    non_dma = after - before - 1
                    if index in gap_dma:
                        non_dma = max(0.0, non_dma - gap_dma[index])
                    stalled = min(non_dma, stall_cap)
                    revolve_stall += stalled
                    dispatch_wait += non_dma - stalled
                tail = total_cycles - cycles[-1] - 1
                idle = max(0.0, tail - tail_dma)
            else:
                idle = max(0.0, total_cycles - dma_blocked)
            activity[tasklet] = {
                "issue": len(cycles),
                "dma_blocked": dma_blocked,
                "revolve_stall": revolve_stall,
                "dispatch_wait": dispatch_wait,
                "idle": idle,
            }
        return activity


@dataclass(frozen=True)
class SimResult:
    """Outcome of one simulated DPU run."""

    cycles: int
    instructions_issued: int
    dma_busy_cycles: float
    tasklets: int

    @property
    def issue_utilization(self) -> float:
        """Fraction of cycles with an instruction dispatched."""
        return self.instructions_issued / self.cycles if self.cycles else 0.0

    @property
    def dma_utilization(self) -> float:
        return self.dma_busy_cycles / self.cycles if self.cycles else 0.0


@dataclass
class _TaskletState:
    program: TaskletProgram
    phase_index: int = 0
    remaining: int = 0
    next_issue: int = 0
    blocked_until: float = 0.0
    done: bool = False

    def current_phase(self):
        if self.phase_index >= len(self.program.phases):
            return None
        return self.program.phases[self.phase_index]


class DPUSimulator:
    """Single-DPU simulator that advances whole dispatch periods at once.

    At the top of each step the loop takes a *signature*: the last
    issuer, plus per tasklet whether it is done, blocked on DMA, or how
    many cycles its revolve still holds it back (0: ready). The
    signature says nothing about absolute time, yet it fixes who issues
    next and what the next signature is — unless a phase runs out of
    instructions or a blocked tasklet's transfer completes. So once a
    signature repeats P cycles later, with d_i issues by tasklet i in
    between, the following P cycles repeat those issues shifted by P.

    :meth:`run` then skips the largest whole number m of repeats that
    stays clear of every event that would end the pattern:

    * no phase runs out: ``m <= (remaining_i - 1) // d_i``;
    * no transfer completes inside the skipped cycles:
      ``clock + m * P <= blocked_until`` for each blocked tasklet;
    * the watchdog boundary is not crossed: ``clock + m * P <=
      max_cycles``.

    It moves the clock by m·P, the issue count by m times the period's
    issues, each tasklet's remaining work down by m·d_i and its next
    issue slot later by m·P, and with a :class:`SimTrace` replays the
    period's issues shifted by j·P for j = 1..m. Every skipped cycle is
    one the per-cycle loop would spend in the same state, so the
    result, the trace and any watchdog trip are exactly that loop's
    (``tests/pim/test_sim_differential.py`` checks it against a frozen
    copy). The signature history restarts at every phase end — the
    only place a transfer is enqueued or a tasklet finishes — so the
    loop walks single cycles only around events.
    """

    def __init__(self, config: UPMEMConfig | None = None):
        self.config = config if config is not None else UPMEMConfig()

    def run(
        self,
        programs,
        trace: SimTrace | None = None,
        max_cycles: int | None = None,
    ) -> SimResult:
        """Simulate the given tasklet programs to completion.

        Pass a :class:`SimTrace` to record per-cycle dispatcher and DMA
        activity; tracing is off by default and does not change the
        simulated outcome.

        ``max_cycles`` arms a watchdog: if the simulated clock passes
        it before every tasklet finishes, the run aborts with a
        :class:`~repro.errors.TransientDeviceError` — the cycle-level
        analogue of the stuck-tasklet timeout the fault layer
        (:mod:`repro.pim.faults`) models analytically.
        """
        programs = list(programs)
        if not programs:
            raise ParameterError("need at least one tasklet program")
        if len(programs) > self.config.max_tasklets:
            raise ParameterError(
                f"{len(programs)} tasklets exceed the hardware maximum "
                f"{self.config.max_tasklets}"
            )
        if max_cycles is not None and max_cycles <= 0:
            raise ParameterError(
                f"max_cycles must be positive: {max_cycles}"
            )
        revolve = self.config.pipeline_revolve_cycles
        n = len(programs)

        states = [_TaskletState(p) for p in programs]
        dma_free = [0.0]  # shared engine: time it becomes available
        dma_busy = 0.0
        issued = 0
        clock = 0
        last_issued = -1  # round-robin pointer
        for index, state in enumerate(states):
            dma_busy += self._advance_into_phase(
                state, 0.0, dma_free, index, trace
            )
        live = sum(not s.done for s in states)
        # Since the last event: the clock and issue count at which each
        # loop-top signature was last seen, and the issues made.
        seen: dict = {}
        issues: list = []

        while live:
            if max_cycles is not None and clock > max_cycles:
                stuck = [i for i, s in enumerate(states) if not s.done]
                raise TransientDeviceError(
                    f"watchdog: {len(stuck)} tasklet(s) still running "
                    f"past {max_cycles} cycles (first stuck: tasklet "
                    f"{stuck[0]})",
                    attempts=1,
                )
            # Per tasklet: _IDLE (nothing to issue), _BLOCKED (on DMA),
            # or the cycles until its revolve allows an issue (0: ready).
            waits = [
                _IDLE
                if s.done or s.remaining <= 0
                else _BLOCKED
                if s.blocked_until > clock
                else max(0, s.next_issue - clock)
                for s in states
            ]
            signature = (last_issued, *waits)
            previous = seen.get(signature)
            if previous is not None:
                skipped = self._skip_periods(
                    states, waits, clock, issued, previous, issues,
                    max_cycles, trace,
                )
                if skipped is not None:
                    clock, issued = skipped
                    seen.clear()
                    issues.clear()
                    continue
            seen[signature] = (clock, len(issues))

            # Round-robin: the first ready tasklet after the last issuer.
            if 0 in waits:
                after = last_issued + 1
                rotated = waits[after:] + waits[:after]
                choice = (after + rotated.index(0)) % n
                state = states[choice]
                state.remaining -= 1
                state.next_issue = clock + revolve
                issued += 1
                last_issued = choice
                issues.append((clock, choice))
                if trace is not None:
                    trace.record_issue(clock, choice)
                if state.remaining == 0:
                    state.phase_index += 1
                    dma_busy += self._advance_into_phase(
                        state, float(clock + 1), dma_free, choice, trace
                    )
                    if state.done:
                        live -= 1
                    seen.clear()
                    issues.clear()
                clock += 1
                continue
            # Nothing issuable: jump to the next event.
            candidates = [
                s.blocked_until if wait == _BLOCKED else s.next_issue
                for s, wait in zip(states, waits)
                if wait != _IDLE
            ]
            if not candidates:
                raise ParameterError(
                    f"simulator stalled at cycle {clock} with {live} "
                    "unfinished tasklet(s) and nothing left to issue"
                )
            clock = max(clock + 1, math.ceil(min(candidates)))

        # Account for a trailing DMA that finishes after the last issue.
        trailing = max(s.blocked_until for s in states)
        return SimResult(
            cycles=max(clock, math.ceil(trailing)),
            instructions_issued=issued,
            dma_busy_cycles=dma_busy,
            tasklets=n,
        )

    @staticmethod
    def _skip_periods(
        states, waits, clock, issued, previous, issues, max_cycles, trace
    ):
        """Skip whole repeats of the period that ends at ``clock``.

        ``previous`` is the (clock, issue index) at which the current
        signature was last seen, so ``issues`` from that index on are
        one period's issues. Skips as many repeats as stay clear of a
        phase running out, a transfer completing and the watchdog
        boundary, and returns the new ``(clock, issued)`` — or ``None``
        when not even one repeat is clear.
        """
        start, first_issue = previous
        length = clock - start
        period = issues[first_issue:]
        per_tasklet = Counter(t for _, t in period)
        limits = [
            (states[t].remaining - 1) // count
            for t, count in per_tasklet.items()
        ]
        limits.extend(
            int((s.blocked_until - clock) // length)
            for s, wait in zip(states, waits)
            if wait == _BLOCKED
        )
        if max_cycles is not None:
            limits.append((max_cycles - clock) // length)
        repeats = min(limits, default=0)
        if repeats <= 0:
            return None
        shift = repeats * length
        for t, count in per_tasklet.items():
            states[t].remaining -= repeats * count
            states[t].next_issue += shift
        if trace is not None:
            trace.issues.extend(
                (cycle + offset, t)
                for offset in range(length, shift + 1, length)
                for cycle, t in period
            )
        return clock + shift, issued + repeats * len(period)

    def _advance_into_phase(
        self,
        state: _TaskletState,
        now: float,
        dma_free: list,
        tasklet: int = 0,
        trace: SimTrace | None = None,
    ) -> float:
        """Move a tasklet into its next runnable phase.

        Consumes consecutive DMA phases (enqueueing them on the shared
        engine and blocking the tasklet) and empty compute phases until
        a non-empty compute phase or the program's end is reached.
        Returns the DMA busy time added.
        """
        busy_added = 0.0
        while True:
            phase = state.current_phase()
            if phase is None:
                state.done = True
                state.remaining = 0
                return busy_added
            if phase.kind == COMPUTE:
                if phase.amount:
                    state.remaining = phase.amount
                    return busy_added
                state.phase_index += 1  # nothing to issue: skip it
                continue
            # DMA phase: serialize on the shared engine. The tasklet
            # requests the transfer as soon as it is unblocked; the
            # engine starts it when free — the difference is queue wait.
            cost = (
                self.config.dma_fixed_cycles
                + phase.amount * self.config.dma_cycles_per_byte
            )
            request = max(now, state.blocked_until)
            start = max(request, dma_free[0])
            completion = start + cost
            dma_free[0] = completion
            state.blocked_until = completion
            busy_added += cost
            if trace is not None:
                trace.record_dma(
                    tasklet, request, start, completion, phase.amount
                )
            state.phase_index += 1
            now = completion


def simulate_kernel(
    kernel,
    n_elements: int,
    tasklets: int,
    config: UPMEMConfig | None = None,
    block_elements: int = 64,
    trace: SimTrace | None = None,
) -> SimResult:
    """Simulate a device kernel's streaming execution on one DPU.

    Elements are split evenly across tasklets; each tasklet streams its
    share through WRAM blocks. Uses the kernel's measured
    ``cycles_per_element`` and memory layout — the same inputs the
    analytic model uses, so differences isolate the *combination* step
    (max-of-rooflines vs real interleaving).
    """
    from repro.pim.tasklet import split_evenly

    if tasklets <= 0:
        raise ParameterError(f"tasklets must be positive: {tasklets}")
    cpe = kernel.cycles_per_element()
    out_bytes = _kernel_out_bytes(kernel)
    in_bytes = kernel.mram_bytes_per_element() - out_bytes
    programs = [
        TaskletProgram.streaming(
            share, cpe, in_bytes, out_bytes, block_elements
        )
        for share in split_evenly(n_elements, tasklets)
        if share > 0
    ]
    return DPUSimulator(config).run(programs, trace=trace)


def _kernel_out_bytes(kernel) -> int:
    from repro.pim.runtime import _output_bytes

    return min(_output_bytes(kernel), kernel.mram_bytes_per_element())
