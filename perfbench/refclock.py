"""A reference clock that takes the host's speed out of timings.

The benchmark runs on a few cores of a shared host whose speed changes
by up to about 40 % over tens of seconds: the same op, repeated in one
process, takes 160 ms in one minute and 300 ms in the next, and process
CPU time moves with wall time. No statistic inside one run removes that.

So the loop times a fixed reference kernel between ops and reports every
time at reference speed: ``raw * REFERENCE_MS / kernel_ms``, where
``kernel_ms`` is the median of the kernel samples taken around that op.
The kernel is pure Python, like the program, and does what the program
does most: dict lookups, set membership, list building and small strings
(a graph search), and integer arithmetic. The host's two speeds favour
the two halves differently, and so they do the extract and the evaluate
ops; the mix tracks both. It shares no code with ``rxnscope``, so no
change to the program can move it. On a 2 vCPU VM, CPython 3.11.7, over
five minutes in which raw op times moved by 40 %, an op's time divided by
the adjacent kernel time moved by at most 4 % between the two speeds.

On that VM the median kernel sample of a run ranged from 3.5 ms, when
the host ran fast, to 5.9 ms; ``REFERENCE_MS`` is about its usual, slower
time, so reported times read as milliseconds on that VM at its usual
speed. The loop also counts its ``--seconds`` at reference speed, so
every run does about the same work whatever the host's speed.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

REFERENCE_MS = 5.5
# Samples on each side of an op that make up its speed estimate.
WINDOW = 3

_NODES = 997
_GRAPH = {i: [(7 * i + 1) % _NODES, (13 * i + 5) % _NODES, (i + 1) % _NODES] for i in range(_NODES)}


def _kernel() -> int:
    total = 0
    for source in range(0, _NODES, 200):
        seen = {source}
        frontier = [source]
        while frontier:
            nxt = []
            for u in frontier:
                for v in _GRAPH[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        total += len(seen)
        names = {}
        for k in range(300):
            names[str(k)] = (k, "x" * (k % 5))
        total += len("".join(sorted(names)))
    for i in range(30000):
        total += i * i % 7
    return total


def sample_ms() -> float:
    """One timing of the reference kernel, with the collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _kernel()
        return 1000.0 * (perf_counter() - start)
    finally:
        if enabled:
            gc.enable()


def factors(samples: list[float], count: int) -> list[float]:
    """Per-op scale factors from kernel samples taken around ``count`` ops.

    ``samples[i]`` is taken just before op ``i`` and ``samples[count]``
    after the last op. Op ``i``'s factor is ``REFERENCE_MS`` over the
    median of the samples within ``WINDOW`` places of it.
    """
    if len(samples) != count + 1:
        raise ValueError(f"{len(samples)} kernel samples for {count} ops")
    return [
        REFERENCE_MS / statistics.median(samples[max(0, i - WINDOW + 1) : i + WINDOW + 1])
        for i in range(count)
    ]
