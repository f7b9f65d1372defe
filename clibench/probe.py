"""Probe-normalised timing and in-process CLI calls.

The host this benchmark was built on switches between speed states about
1.6x apart, each lasting from a tenth of a second to many seconds.  Every
timed step therefore sits between two probes of a fixed pure-Python reference
loop, and a SIGALRM timer also runs one tenth of that loop every
SAMPLE_INTERVAL_S inside the step, so a step that spans several speed states
is normalised by all of them.  The raw wall time (samples excluded) is scaled
by the mean of nominal over measured loop time across the probes and the
samples.  A normalised second is a second on a host where one probe chunk
takes exactly NOMINAL_CHUNK_S.

Stdlib only: the set-up child imports this module before it times the
package import.
"""

from __future__ import annotations

import io
import signal
import statistics
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

PROBE_CHUNKS = 5
MICROS_PER_CHUNK = 10
NOMINAL_CHUNK_S = 0.001
SAMPLE_INTERVAL_S = 0.01


def _micro() -> float:
    # Float powers in a flat loop, then a small nested loop over a list: the
    # shape of the package's hot paths, which track the host's speed states
    # more closely than an integer-only loop does.  Never touches the package.
    acc = 0.0
    for k in range(1, 400):
        acc += (k * 1.37 + 0.5) ** -2.3
    row = [1.0 + q * 0.01 for q in range(20)]
    for p in range(1, 19):
        g = p * 0.5
        for q in range(1, 19):
            acc += g * row[q] * (p + q) * ((p * q + 3.0) * 0.25) ** -2.2
    return acc


def probe() -> float:
    """Median wall time of PROBE_CHUNKS reference chunks, in seconds."""
    times = []
    for _ in range(PROBE_CHUNKS):
        t0 = perf_counter()
        for _ in range(MICROS_PER_CHUNK):
            _micro()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class _Sampler:
    """SIGALRM handler: times one micro-chunk every SAMPLE_INTERVAL_S."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def __call__(self, signum, frame) -> None:
        t0 = perf_counter()
        _micro()
        self.samples.append(perf_counter() - t0)


@dataclass(frozen=True)
class Timing:
    raw_s: float  # wall time of the step, less the samples taken inside it
    norm_s: float  # probe-normalised time of the step
    elapsed_s: float  # wall time including the samples

    @property
    def factor(self) -> float:
        """Scale from wall time measured inside the step to normalised time."""
        return self.norm_s / self.elapsed_s if self.elapsed_s > 0 else 1.0


def timed(fn: Callable[[], object]) -> tuple[object, Timing]:
    """Run ``fn`` between two probes, sampling the reference loop inside it.

    The raw time excludes the samples.  The normalised time is the raw time
    times the mean of nominal/measured over the two probes and every sample:
    the time-average of the host's relative speed while ``fn`` ran.
    """
    before = probe()
    sampler = _Sampler()
    previous = signal.signal(signal.SIGALRM, sampler)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    t0 = perf_counter()
    try:
        result = fn()
    finally:
        elapsed = perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
    after = probe()
    raw = elapsed - sum(sampler.samples)
    micro_nominal = NOMINAL_CHUNK_S / MICROS_PER_CHUNK
    speeds = [NOMINAL_CHUNK_S / before, NOMINAL_CHUNK_S / after]
    speeds += [micro_nominal / x for x in sampler.samples]
    return result, Timing(raw, raw * statistics.fmean(speeds), elapsed)


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


def call_cli(cli_module, argv: list[str]) -> CliResult:
    """One CLI request through ``cli.main(argv)`` with stdout/stderr captured.

    Exceptions other than SystemExit propagate: they are failed solves.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli_module.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return CliResult(int(code or 0), out.getvalue(), err.getvalue())
