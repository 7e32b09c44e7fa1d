"""CPU-speed probe: how fast the current process's CPU runs right now.

The benchmark runs on a few cores of a shared host. There the same
pure-Python code runs up to 40% faster or slower for tens of seconds at a
time. A longer run does not average this out. Over ten minutes of
eval-long-vanilla repetitions, the median rate of 60-second windows
spread 0.14 of its median (quartile distance), against 0.18 for
15-second windows.

A timer signal runs a small fixed piece of pure-Python work every
``PERIOD_S`` seconds in the main thread and records how long it took. The
work tokenises a fixed text with a regular expression and counts the
words in a dict. That is the same kind of work as qasum's scoring, and
its speed tracks qasum's through the host's slow and fast spells: per
repetition, the correlation with the unscaled rate was 0.95 on
eval-long-vanilla, 0.97 on eval-warm-paper and 0.90 on rank-http-cold,
where it sees only the client's CPU and not the server's. The
benchmark reads the median speed over a repetition and scales that
repetition's rate to ``REFERENCE_HZ``. So a rate reads as on a machine
where the probe runs at ``REFERENCE_HZ``, and the host's drift mostly
cancels.

The probe takes about 0.3 ms per sample, about 1% of the time it
watches. It is independent of qasum, so no change to the package changes
what the probe measures.
"""

from __future__ import annotations

import re
import signal
import statistics
import time

PERIOD_S = 0.025
# About the probe's speed on the 2-core machine the benchmark was defined
# on, so scaled figures stay close to raw ones there.
REFERENCE_HZ = 3500.0

_TEXT = " ".join(f"Word{(i * 7919) % 301}" for i in range(300))
_WORD = re.compile(r"\w+")


def _unit() -> list[tuple[str, int]]:
    counts: dict[str, int] = {}
    for token in _WORD.findall(_TEXT.lower()):
        counts[token] = counts.get(token, 0) + 1
    return sorted(counts.items())


class SpeedProbe:
    """Samples the probe on SIGALRM between ``start`` and ``stop``. Only the
    main thread may start it; the samples are taken there."""

    def __init__(self):
        self._samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        _unit()
        self._samples.append(time.perf_counter() - started)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def take(self) -> float:
        """Median probe speed (runs per second) since the last take; the
        samples are then cleared. Runs the probe a few times itself if
        the interval was too short for the timer."""
        samples, self._samples = self._samples, []
        while len(samples) < 5:
            started = time.perf_counter()
            _unit()
            samples.append(time.perf_counter() - started)
        return 1 / statistics.median(samples)

    def scale(self, speed: float) -> float:
        """Factor that takes a rate measured at ``speed`` to ``REFERENCE_HZ``."""
        return REFERENCE_HZ / speed
