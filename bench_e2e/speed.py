"""Machine-speed correction: a fixed probe and a clock that scales by it.

The host this benchmark runs on changes speed within seconds (shared
cores, frequency and cache pressure from neighbours). A probe that runs
once per run, or concurrently with it, cannot follow such drift. Here
the probe runs in the same interpreter, immediately before and after
every timed segment. A segment ends at the first cut after ``SEGMENT_S``
of host time, so it outlasts ``SEGMENT_S`` only by the one call the
clock cannot interrupt (a simulation event, or ``import repro.cli``).
Each segment's host time is multiplied by
``REF_PROBE_S / mean(probe before, probe after)``, which converts it to
seconds on a reference machine whose probe takes ``REF_PROBE_S``. The
probe's own time, and the clock's bookkeeping around it, is excluded.

This module imports only ``gc`` and ``time`` (both built in) and is
imported by the iteration child before ``repro``.
"""

import gc
import time

#: Host seconds after which the clock cuts the current segment at the
#: next opportunity (the next simulation event, or the next explicit
#: cut). A few tenths of a second: short enough to follow the drift,
#: long enough that probes cost about 4 % of the host time (which is
#: excluded from every measurement).
SEGMENT_S = 0.2

#: Probe time of the reference machine, in seconds (one probe call, the
#: median of ``PROBE_REPEATS``). Scaled times are "seconds on a machine
#: whose probe takes exactly this long". The value is a fixed constant
#: near the probe's typical time on a 2-core x86-64 VM under CPython
#: 3.11; it is not re-measured.
REF_PROBE_S = 0.0025

#: Inner rounds of one probe call.
PROBE_ROUNDS = 2000

#: Probe calls per measurement; the median is kept, so one call that
#: the host pre-empts does not decide a segment's factor.
PROBE_REPEATS = 3

_SIDE = 64


class _Cell:
    __slots__ = ("key", "weight")

    def __init__(self, key, weight):
        self.key = key
        self.weight = weight


def probe_work(rounds=PROBE_ROUNDS):
    """Fixed pure-Python work: tuple-keyed dict, small objects, keyed sort.

    Uses builtins only and never touches ``repro``. Returns a checksum
    that depends only on ``rounds``, so a self-test can confirm the work
    is the same every call. Holds at most ``_SIDE ** 2`` cells, well
    under 1 MB.
    """
    table = {}
    x = 1
    for _ in range(rounds):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x % _SIDE, (x >> 9) % _SIDE)
        cell = table.get(key)
        if cell is None:
            table[key] = _Cell(key, x & 255)
        else:
            cell.weight += x & 7
    ranked = sorted(table.values(), key=lambda c: (-c.weight, c.key))
    return ranked[0].weight * 1000003 + ranked[-1].weight + len(ranked)


def timed_probe(timer=time.perf_counter):
    """Median host seconds of ``PROBE_REPEATS`` :func:`probe_work` calls.

    The garbage collector is paused so that a collection of the
    simulation's heap, triggered by the probe's allocations, is never
    billed to the probe.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(PROBE_REPEATS):
            start = timer()
            probe_work()
            times.append(timer() - start)
    finally:
        if enabled:
            gc.enable()
    times.sort()
    return times[len(times) // 2]


def segment_factor(probe_before, probe_after, ref=REF_PROBE_S):
    """Reference seconds per host second for a segment between two probes."""
    return ref / ((probe_before + probe_after) / 2.0)


class SegmentClock:
    """Probe-bracketed, reference-scaled time, split by layer.

    ``origin`` is the host time the measured interval starts at (for the
    iteration child: just before the parent spawned it). The first
    segment, from ``origin`` to the first probe, has no probe before it
    and is scaled by the first probe alone.

    Time is attributed to the innermost open layer (:meth:`enter` /
    :meth:`leave`), or to ``None`` when no layer is open. Totals are in
    reference seconds and only change at a cut, when the closing
    segment's factor becomes known.
    """

    def __init__(self, origin=None, timer=time.perf_counter, probe=timed_probe,
                 ref=REF_PROBE_S, segment_s=SEGMENT_S, warmup=2):
        self._timer = timer
        self._probe = probe
        self._ref = ref
        self._segment_s = segment_s
        self.total = 0.0          # reference seconds, through the last cut
        self.raw_total = 0.0      # host seconds, probes excluded
        self.probe_total = 0.0    # host seconds spent in probes and cuts
        self.probes = []          # every probe time, in order
        self.max_segment = 0.0    # longest segment, host seconds
        self.self_time = {}       # layer -> reference seconds
        self._pending = {}        # layer -> host seconds in the open segment
        self._stack = []
        self._excluded = 0.0
        self._p_before = None
        start = timer()
        # Warm-up calls let the interpreter specialise the probe's code;
        # the first cut below excludes them with the first probe.
        for _ in range(warmup):
            probe(timer)
        self._seg_start = self._last = start if origin is None else origin
        self._close(start)

    def now(self):
        """Host time with every probe and cut removed."""
        return self._timer() - self._excluded

    def _attribute(self, vnow):
        layer = self._stack[-1] if self._stack else None
        self._pending[layer] = self._pending.get(layer, 0.0) + (vnow - self._last)
        self._last = vnow

    def enter(self, layer):
        """Open ``layer``: time from now on is its self time."""
        self._attribute(self.now())
        self._stack.append(layer)

    def leave(self):
        """Close the innermost layer."""
        self._attribute(self.now())
        self._stack.pop()

    def cut(self):
        """Close the open segment, probe, and open the next one."""
        self._close(self.now())

    def _close(self, vend):
        self._attribute(vend)
        probe = self._probe(self._timer)
        self.probes.append(probe)
        before = probe if self._p_before is None else self._p_before
        factor = segment_factor(before, probe, self._ref)
        raw = vend - self._seg_start
        self.max_segment = max(self.max_segment, raw)
        self.raw_total += raw
        self.total += raw * factor
        for layer, seconds in self._pending.items():
            self.self_time[layer] = self.self_time.get(layer, 0.0) + seconds * factor
        self._pending = {}
        self._p_before = probe
        self._seg_start = vend
        end = self._timer()
        # From here on now() resumes at vend: the probe is excluded.
        excluded = end - vend
        self.probe_total += excluded - self._excluded
        self._excluded = excluded
        self._seg_host_start = end

    def maybe_cut(self):
        """Cut if the open segment has run for ``segment_s`` host seconds."""
        if self._timer() - self._seg_host_start >= self._segment_s:
            self.cut()

    @property
    def speed_scale(self):
        """Reference seconds per host second over everything measured."""
        return self.total / self.raw_total if self.raw_total > 0 else 1.0
