"""Seeded open-loop arrivals on the modelled clock.

An **open-loop** arrival process issues requests at its own rate
regardless of how the server is doing — the standard discipline for
capacity questions ("what QPS can this node sustain?"), because a
closed loop would throttle itself exactly when the queue is the story.

Draws follow the :mod:`repro.pim.faults` determinism discipline:
SHA-256 over ``(channel, seed, class, index)`` scaled to the unit
interval, never :mod:`random` state — so a spec + seed yields
bit-identical arrival times across processes, machines, and Python
versions. Interarrivals are exponential (inverse-CDF transform), i.e.
the process is Poisson with the class's configured rate.

The hash key carries no rate, so the unit-rate gap ``-log(1 - u)`` of
draw ``index`` is the same at every offered rate. :func:`draw_stream`
memoises those per-stream values process-wide and every caller divides
by its own rate, which is the float arithmetic of hashing afresh.
"""

from __future__ import annotations

import math
from array import array

from repro.errors import ParameterError
from repro.pim.faults import _unit_hash

__all__ = ["OpenLoopArrivals", "draw_stream"]

#: ``(tag, str(seed), str(class_key))`` -> the stream's memoised draws.
#: Keys are the string forms :func:`~repro.pim.faults._unit_hash` hashes,
#: so seeds ``1``, ``1.0`` and ``True`` keep distinct streams.
_STREAMS: dict = {}


def _unit_gap(u: float) -> float:
    # u is in [0, 1); 1-u is in (0, 1], so log never sees zero.
    return -math.log(1.0 - u)


#: Per-channel transform of the unit draw stored in the memo.
_TRANSFORMS = {"serve.arrival": _unit_gap, "serve.place": None}


def draw_stream(tag: str, seed, class_key, count: int) -> array:
    """The memoised draws of one ``(tag, seed, class)`` stream.

    Returns the process-wide ``array('d')`` holding at least ``count``
    values: for ``serve.arrival`` the unit-rate exponential gaps, for
    ``serve.place`` the raw unit draws. The array only ever grows, to
    the longest prefix any caller has asked for; callers may index
    ``[0, count)`` but must not modify it.
    """
    key = (tag, str(seed), str(class_key))
    stream = _STREAMS.get(key)
    if stream is None:
        stream = _STREAMS[key] = array("d")
    transform = _TRANSFORMS[tag]
    for index in range(len(stream), count):
        u = _unit_hash(tag, seed, class_key, index)
        stream.append(u if transform is None else transform(u))
    return stream


class OpenLoopArrivals:
    """Deterministic Poisson arrivals for one request class.

    ``rate_qps`` requests per modelled second on average, starting at
    modelled time zero, for ``duration_s`` seconds. ``class_key`` salts
    the hash stream so concurrent classes draw independently under one
    seed.
    """

    def __init__(self, class_key: str, rate_qps: float, seed: int = 0):
        if rate_qps <= 0:
            raise ParameterError(f"rate_qps must be positive: {rate_qps}")
        self.class_key = class_key
        self.rate_qps = rate_qps
        self.seed = seed

    def times_until(self, duration_s: float) -> list:
        """All arrival times in ``[0, duration_s)``, strictly ordered."""
        if duration_s <= 0:
            raise ParameterError(
                f"duration must be positive: {duration_s}"
            )
        rate = self.rate_qps
        gaps = draw_stream("serve.arrival", self.seed, self.class_key, 0)
        times = []
        t = 0.0
        while True:
            # Walk the memoised prefix, then draw one gap at a time past it.
            for index in range(len(times), len(gaps)):
                t += gaps[index] / rate
                if t >= duration_s:
                    return times
                times.append(t)
            draw_stream(
                "serve.arrival", self.seed, self.class_key, len(gaps) + 1
            )
