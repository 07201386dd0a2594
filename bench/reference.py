"""A fixed CPU kernel that tells how fast this machine runs right now.

    python3 bench/reference.py    # prints the kernel's CPU seconds

On a shared virtual machine the speed a process gets changes by up to 2x
from one minute to the next (neighbours contend for the core, its caches
and memory bandwidth), and CPU time moves with it. The benchmark runs this
kernel right before and after every command and scales the command's CPU
time by REF_SECONDS / (the kernel's CPU time around it): a command that took
twice as long because the machine ran at half speed reads the same.

The kernel does a bit of each kind of work the `spc` commands do: a Python
loop of small NumPy ops (training steps), larger matrix products, hashing
and string handling (ingest and featurization), and array passes over a few
megabytes (metrics). It depends on nothing in `src/`, so a change to the
program never changes it.
"""

from __future__ import annotations

import hashlib
import json
import time

# the kernel's CPU time on an idle core of the machine the benchmark was
# tuned on (2-vCPU Xeon VM, Python 3.11, NumPy 2.4, OpenBLAS 0.3.31)
REF_SECONDS = 0.2


def kernel() -> float:
    import numpy as np  # here, so that importing REF_SECONDS stays cheap

    rng = np.random.default_rng(0)
    x = rng.standard_normal((128, 32))
    w = rng.standard_normal((32, 64)) * 0.1
    v = rng.standard_normal((64, 4)) * 0.1
    for _ in range(600):
        h = np.tanh(x @ w)
        o = h @ v
        e = np.exp(o - o.max(axis=1, keepdims=True))
        g = e / e.sum(axis=1, keepdims=True) - 0.25
        v -= 1e-4 * (h.T @ g)
        w -= 1e-4 * (x.T @ ((g @ v.T) * (1.0 - h * h)))
    a = rng.standard_normal((128, 256))
    b = rng.standard_normal((256, 256))
    for _ in range(40):
        a = np.tanh(a @ b * 0.05)
    buckets = [0] * 256
    for i in range(15000):
        digest = hashlib.blake2b(f"tok{i % 997} tok{i % 991}".encode(), digest_size=8).digest()
        buckets[int.from_bytes(digest, "little") % 256] += 1
    text = json.dumps({"features": a[0].tolist(), "label": "c"})
    for _ in range(150):
        json.loads(text)
    big = rng.standard_normal((400, 400, 4))
    for _ in range(3):
        big = np.sqrt(np.abs(big - big.mean(axis=0)))
    return float(w.sum() + v.sum() + a.sum() + big.sum() + sum(buckets))


def measure() -> float:
    """CPU seconds this process spends in one run of the kernel."""
    start = time.process_time()
    kernel()
    return time.process_time() - start


if __name__ == "__main__":
    print(repr(measure()))
