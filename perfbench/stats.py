"""Percentiles with their sample-support rule, and the machine-speed scaling
applied to every time the benchmark reports."""

import math
import subprocess
import sys
from time import perf_counter

import numpy as np

MIN_BEYOND = 10


def percentile(samples, q):
    """Harrell-Davis estimate of the q-th percentile (0 < q < 100).

    A Beta-weighted mean of all order statistics.  Op times of a workload
    fall into clusters (one per level or cardinality), and a percentile
    read off one or two order statistics jumps between clusters from run
    to run; this estimate moves smoothly.
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    n = len(xs)
    if n == 0:
        raise ValueError("percentile of no samples")
    if n == 1:
        return float(xs[0])
    p = q / 100.0
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    grid = np.linspace(0.0, 1.0, 20001)[1:-1]
    logpdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(logpdf - logpdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(pdf[1:] + pdf[:-1])))
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, grid[1:], cdf[1:], left=0.0)
    return float(np.dot(np.diff(edges), xs))


def ranked_beyond(n, q):
    """How many of n samples rank strictly above the q-th percentile."""
    return n - 1 - math.floor((n - 1) * q / 100.0)


def supported(n, q, min_beyond=MIN_BEYOND):
    """A percentile is reported as supported only with min_beyond samples past it."""
    return n > 0 and ranked_beyond(n, q) >= min_beyond


# Mean time of reference_kernel() on the 2-core machine the baseline was
# taken on.  That machine's speed drifts by a third between minutes and
# swings from one second to the next, with identical inputs.  The
# benchmark times the kernel between measurements; see SpeedProbe.  The
# kernel does not touch ulbkit.
REF_NOMINAL_S = 4.0e-3
TAU_S = 0.5


def reference_kernel():
    """Fixed numpy work of the two kinds ulbkit does: scalar recurrences and
    small-matrix products."""
    t = np.asarray(0.5)
    prev, cur = np.zeros_like(t), np.ones_like(t)
    for _ in range(2000):
        prev, cur = cur, (t - 0.25) * cur - 0.0625 * prev
    x = np.linspace(-1.0, 1.0, 21).reshape(7, 3)
    for _ in range(60):
        g = np.clip(x @ x.T, -0.99, 0.99)
        x = x - 1e-3 * ((2.0 - 2.0 * g) ** -1.5) @ x
        x /= np.linalg.norm(x, axis=1)[:, None]
    return float(cur) + float(x[0, 0])


def reference_time():
    t0 = perf_counter()
    reference_kernel()
    return perf_counter() - t0


class SpeedProbe:
    """Kernel times taken between measurements, and the scale factors they give.

    The mean kernel time over the run corrects every measurement for the
    machine's speed during the run; the mean, since kernel times are
    bimodal.  For a measurement in this process, the two kernel times
    right around it refine that, weighted by TAU_S / (TAU_S + its
    duration): a kernel sample stands for the speed over about TAU_S,
    and an op of several seconds averages the swings itself.  A
    measurement outside this process gets the run factor only; child
    processes are scaled by ProcessProbe instead.
    """

    def __init__(self):
        self.times = [reference_time()]

    def sample(self):
        self.times.append(reference_time())

    def factors(self, measured):
        """Factors for [(seconds, in_process)], measured between consecutive samples."""
        run = float(np.mean(self.times))
        out = []
        for i, (seconds, in_process) in enumerate(measured):
            factor = REF_NOMINAL_S / run
            if in_process:
                near = 0.5 * (self.times[i] + self.times[i + 1])
                factor *= (run / near) ** (TAU_S / (TAU_S + seconds))
            out.append(factor)
        return out


# Mean time of reference_process_time() on the same machine as REF_NOMINAL_S.
REF_PROCESS_NOMINAL_S = 0.17
REFERENCE_PROCESS = (sys.executable, "-c", "import numpy")


def reference_process_time():
    """Wall time of a fixed child process that starts Python and imports numpy."""
    t0 = perf_counter()
    subprocess.run(REFERENCE_PROCESS, check=True, capture_output=True, timeout=60)
    return perf_counter() - t0


class ProcessProbe:
    """Reference child-process times taken between child-process measurements.

    A child process spends its time starting the interpreter and importing,
    and the speed of that does not follow the in-process kernel: on the
    baseline machine the kernel's run factor moved CLI times by up to a
    quarter while the raw times stayed put.  Child processes are scaled by
    REF_PROCESS_NOMINAL_S over the mean reference-process time of the run,
    or of the given samples.
    """

    def __init__(self):
        self.times = []

    def sample(self):
        self.times.append(reference_process_time())

    def factor(self, times=None):
        return REF_PROCESS_NOMINAL_S / float(np.mean(self.times if times is None else times))
