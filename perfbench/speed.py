"""CPU time of a pass, rescaled to a reference speed of the vCPU it runs on.

On a shared virtual machine a vCPU's speed is not constant.  On the
2-vCPU KVM guest this benchmark was built on (Intel Xeon, model 207,
Python 3.11), each vCPU switches every few seconds between two speeds
about 1.45x apart, nearly independently of the other vCPU.  A pass's raw
wall time then moves by 20-30% from one pass to the next, and the median
over a 25-second run by 7-30% from run to run: more than any useful
regression bound.

``SpeedSampler`` pins the pass to the vCPU it is running on and starts a
second thread.  Every ``PERIOD_S`` that thread times one of three short
probes with its own CPU clock.  The probes are scalar bytecode, dict
inserts on tuple keys, and a numpy gather over an L2-sized array, taken
in turn, because the workloads mix all three kinds of work.  Both threads
share the vCPU, so the probes follow its speed through the pass.

``speed`` is the mean of ``REF_S[probe] / probe time``: 1.0 at the
reference speed, 2.0 on a vCPU twice as fast.  ``cpu_s`` is the CPU time
of the block (all threads and children, minus the sampler's own), so
time the vCPU spends on other processes does not count.  ``cpu_s * speed``
estimates the time the block takes on an unshared vCPU at the reference
speed.  A pass is single-threaded and never waits, so on such a vCPU its
CPU time and wall time are the same.  The set-up of each interpreter is
measured the same way, from process start to ready.
"""
from __future__ import annotations

import os
import resource
import threading
import time

import numpy as np

PERIOD_S = 0.02
_KEYS = [(i, i * 7 % 1000, i % 13) for i in range(2000)]
_TABLE = np.random.default_rng(0).random(200_000)
_GATHER = np.random.default_rng(1).integers(0, _TABLE.size, 20_000)


def _scalar():
    acc = 0
    for i in range(3000):
        acc += i * i


def _dict():
    d = {}
    for k in _KEYS:
        d[k] = d.get(k, 0.0) + 1.0


def _gather():
    for _ in range(2):
        _TABLE[_GATHER].sum()


PROBES = (_scalar, _dict, _gather)
# median probe times on the machine above; they only set the scale
REF_S = (2.4e-4, 3.3e-4, 1.9e-4)


def _current_cpu() -> int:
    try:
        with open("/proc/self/stat") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return max(os.sched_getaffinity(0))


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class SpeedSampler:
    """Context manager: ``cpu_s`` and ``speed`` of the code inside it.

    With ``from_process_start`` the CPU time counts from the start of the
    process, so interpreter start-up before the block is included.
    """

    def __init__(self, from_process_start: bool = False):
        self.from_process_start = from_process_start
        self.ratios: list[float] = []
        self._own_cpu = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        k = 0
        while not self._stop.wait(PERIOD_S):
            c0 = time.thread_time()
            PROBES[k % len(PROBES)]()
            dt = time.thread_time() - c0
            if dt > 0.0:
                self.ratios.append(REF_S[k % len(PROBES)] / dt)
            k += 1
        self._own_cpu = time.thread_time()

    def __enter__(self):
        # the affinity of the calling thread is inherited by the sampler thread
        self.cpu = _current_cpu()
        os.sched_setaffinity(0, {self.cpu})
        self._thread.start()
        self._cpu0 = 0.0 if self.from_process_start else time.process_time() + _children_cpu()
        return self

    def __exit__(self, *exc):
        cpu1 = time.process_time() + _children_cpu()
        self._stop.set()
        self._thread.join()
        self.cpu_s = cpu1 - self._cpu0 - self._own_cpu
        return False

    @property
    def speed(self) -> float:
        return sum(self.ratios) / len(self.ratios) if self.ratios else 1.0
