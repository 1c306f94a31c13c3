"""Frozen test oracle: the per-cycle DPU simulator loop.

:func:`run` is the loop that simulated every DPU run before the
period-skipping loop replaced it: one Python iteration per issued
instruction or idle jump, each rebuilding the ready list and picking
the next tasklet round-robin. It is kept as it was, with one fix that
the fast loop shares — an empty compute phase is skipped instead of
leaving its tasklet stuck with nothing to issue. :func:`tasklet_activity`
is ``SimTrace.tasklet_activity`` as it was before its single-pass
rewrite. The differential tests check the fast paths against both.
Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ParameterError, TransientDeviceError
from repro.pim.config import UPMEMConfig
from repro.pim.sim import COMPUTE, SimResult, SimTrace, TaskletProgram


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


def run(
    programs,
    config: UPMEMConfig | None = None,
    trace: SimTrace | None = None,
    max_cycles: int | None = None,
) -> SimResult:
    """Simulate the given tasklet programs one cycle at a time."""
    config = config if config is not None else UPMEMConfig()
    programs = list(programs)
    if not programs:
        raise ParameterError("need at least one tasklet program")
    if len(programs) > config.max_tasklets:
        raise ParameterError(
            f"{len(programs)} tasklets exceed the hardware maximum "
            f"{config.max_tasklets}"
        )
    if max_cycles is not None and max_cycles <= 0:
        raise ParameterError(f"max_cycles must be positive: {max_cycles}")
    revolve = config.pipeline_revolve_cycles

    states = [_TaskletState(p) for p in programs]
    dma_free = [0.0]  # shared engine: time it becomes available
    dma_busy = 0.0
    issued = 0
    clock = 0
    last_issued = -1  # round-robin pointer
    for index, state in enumerate(states):
        dma_busy += _advance_into_phase(
            config, state, 0.0, dma_free, index, trace
        )

    while any(not s.done for s in states):
        if max_cycles is not None and clock > max_cycles:
            stuck = [i for i, s in enumerate(states) if not s.done]
            raise TransientDeviceError(
                f"watchdog: {len(stuck)} tasklet(s) still running "
                f"past {max_cycles} cycles (first stuck: tasklet "
                f"{stuck[0]})",
                attempts=1,
            )
        # Find ready tasklets: in a compute phase, revolve satisfied,
        # not blocked on DMA.
        ready = [
            i
            for i, s in enumerate(states)
            if not s.done
            and s.remaining > 0
            and s.next_issue <= clock
            and s.blocked_until <= clock
        ]
        if ready:
            # Round-robin starting after the last issuer.
            choice = min(
                ready,
                key=lambda i: ((i - last_issued - 1) % len(states)),
            )
            state = states[choice]
            state.remaining -= 1
            state.next_issue = clock + revolve
            issued += 1
            last_issued = choice
            if trace is not None:
                trace.record_issue(clock, choice)
            if state.remaining == 0:
                state.phase_index += 1
                dma_busy += _advance_into_phase(
                    config, state, float(clock + 1), dma_free, choice, trace
                )
            clock += 1
            continue
        # Nothing issuable: jump to the next event.
        candidates = []
        for s in states:
            if s.done:
                continue
            if s.remaining > 0 and s.blocked_until <= clock:
                candidates.append(s.next_issue)
            elif s.blocked_until > clock:
                candidates.append(s.blocked_until)
        if not candidates:
            break  # all done
        clock = max(clock + 1, int(-(-min(candidates) // 1)))

    total_cycles = clock
    # Account for a trailing DMA that finishes after the last issue.
    trailing = max((s.blocked_until for s in states), default=0.0)
    total_cycles = max(total_cycles, int(-(-trailing // 1)))
    return SimResult(
        cycles=total_cycles,
        instructions_issued=issued,
        dma_busy_cycles=dma_busy,
        tasklets=len(programs),
    )


def _advance_into_phase(
    config: UPMEMConfig,
    state: _TaskletState,
    now: float,
    dma_free: list,
    tasklet: int = 0,
    trace: SimTrace | None = None,
) -> float:
    """Move a tasklet into its next runnable phase.

    Consumes consecutive DMA phases (enqueueing them on the shared
    engine and blocking the tasklet) and empty compute phases until a
    non-empty compute phase or the program's end is reached. Returns
    the DMA busy time added.
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
            state.phase_index += 1
            continue
        # DMA phase: serialize on the shared engine. The tasklet
        # requests the transfer as soon as it is unblocked; the
        # engine starts it when free — the difference is queue wait.
        cost = config.dma_fixed_cycles + phase.amount * config.dma_cycles_per_byte
        request = max(now, state.blocked_until)
        start = max(request, dma_free[0])
        completion = start + cost
        dma_free[0] = completion
        state.blocked_until = completion
        busy_added += cost
        if trace is not None:
            trace.record_dma(tasklet, request, start, completion, phase.amount)
        state.phase_index += 1
        now = completion


def tasklet_activity(
    trace: SimTrace, revolve_cycles: int, total_cycles: int
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
    import bisect
    from collections import defaultdict

    issues_by_tasklet: dict = defaultdict(list)
    for cycle, tasklet in trace.issues:
        issues_by_tasklet[tasklet].append(cycle)
    blocks_by_tasklet: dict = defaultdict(list)
    for tasklet, request, _start, end, _n in trace.dmas:
        blocks_by_tasklet[tasklet].append((request, end))

    activity = {}
    for tasklet in sorted(set(issues_by_tasklet) | set(blocks_by_tasklet)):
        cycles = sorted(issues_by_tasklet[tasklet])
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
            for index in range(1, len(cycles)):
                gap = cycles[index] - cycles[index - 1] - 1
                non_dma = max(0.0, gap - gap_dma.get(index, 0.0))
                stalled = min(non_dma, float(revolve_cycles - 1))
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
