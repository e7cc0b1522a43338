"""The machine's speed, read from a fixed reference calculation.

The cores this benchmark runs on are shared with other guests.  Their
speed drifts by up to about 1.4x, over seconds within a run and over
hours between runs, and the drift moves every timing of the program
together.  A run therefore interleaves short reference chunks with the
program's work: one after every STEPS_PER_CHUNK training steps, and a
few after every set-up and every scoring pair.  A chunk is a fixed
numpy and Python calculation shaped like the program's own work: a
small dense forward and backward pass on a 128-row batch, plus parsing
CSV text.  It imports nothing from uqtrain, so no change to the program
changes it.

A phase's speed factor is the mean chunk time over NOMINAL_S.  Dividing
a time by it gives seconds at the speed at which one chunk takes
NOMINAL_S.  A training step is divided by the factor of the chunks
nearest to it instead, so that the steps a slow spell held come out
like the rest, and their median does not jump with the share of the
run that spell took.  Chunks run outside every timed interval, or their time is
taken out of it.  Each burst of chunks starts with an untimed one.
"""

import time

import numpy as np

# mean chunk time on the 2-vCPU machine of the README's figures
NOMINAL_S = 0.0021

# one chunk per this many train_step calls: about one per epoch at the
# benchmark's 2000 rows and batch 128
STEPS_PER_CHUNK = 16

# chunks that set one step's factor: half before it, half after
NEAREST = 4

# a chunk counts as at most this many times the run's median chunk
CLIP = 2.0

_LINE = ",".join(f"{0.1 * k - 0.37:.17g}" for k in range(10)) + ",3"


class Speed:
    """Reference chunks run so far, in order; see the module docstring."""

    def __init__(self):
        rng = np.random.default_rng(20230329)
        self.x = rng.standard_normal((128, 10))
        self.w1 = rng.standard_normal((10, 64)) * 0.3
        self.w2 = rng.standard_normal((64, 64)) * 0.1
        self.w3 = rng.standard_normal((64, 4)) * 0.1
        self.times = []        # seconds of each chunk
        self.total = 0.0       # sum of self.times

    def _chunk(self):
        """One chunk; its results are dropped, the work is what counts."""
        x, w1, w2, w3 = self.x, self.w1, self.w2, self.w3
        for _ in range(12):
            h = np.maximum(x @ w1, 0.0)
            h2 = np.maximum(h @ w2, 0.0) * 0.5 + h
            o = h2 @ w3
            o = o - o.max(axis=1, keepdims=True)
            p = np.exp(o)
            p /= p.sum(axis=1, keepdims=True)
            g = ((p - 0.25) @ w3.T) * (h2 > 0)
            h.T @ g
        for _ in range(40):
            cells = _LINE.split(",")
            [float(c) for c in cells[:-1]], int(cells[-1])

    def sample(self, chunks=1):
        """One untimed warm-up chunk, so that what the program left in
        the caches does not reach the figures, then `chunks` timed ones."""
        self._chunk()
        for _ in range(chunks):
            t0 = time.perf_counter()
            self._chunk()
            elapsed = time.perf_counter() - t0
            self.times.append(elapsed)
            self.total += elapsed

    def mark(self):
        """Index of the next chunk, to bound a phase for factor()."""
        return len(self.times)

    def clipped(self):
        """Chunk times capped at CLIP times their median.  A pause of the
        whole guest, tens of ms, now and then lands in a 2 ms chunk; the
        program's long timings share such pauses out evenly, but a few
        hundred short chunks would carry them as noise."""
        times = np.asarray(self.times)
        if not times.size:
            raise ValueError("no reference chunk ran")
        return np.minimum(times, CLIP * np.median(times))

    def factor(self, start=0, stop=None):
        """Mean clipped time of chunks [start, stop) over NOMINAL_S."""
        times = self.clipped()[start:stop]
        if not times.size:
            raise ValueError("no reference chunk ran in this phase")
        return float(times.mean()) / NOMINAL_S

    def local_factors(self, marks):
        """For each mark() taken between chunks, the factor of the
        NEAREST chunks around it, half on either side."""
        cum = np.concatenate([[0.0], np.cumsum(self.clipped())])
        marks = np.asarray(marks)
        lo = np.clip(marks - NEAREST // 2, 0, None)
        hi = np.clip(marks + NEAREST // 2, None, len(self.times))
        return (cum[hi] - cum[lo]) / (hi - lo) / NOMINAL_S
