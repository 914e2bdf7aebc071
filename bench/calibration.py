"""Host-speed calibration for the benchmark's timings.

The shared host's speed drifts by tens of percent over seconds to minutes,
and not evenly: interpreter-bound work, in-cache numpy work and
memory-bound numpy work drift apart. Three small fixed kernels, one per kind
of work and sharing no code with the package, run before every timed call.
A call's time is multiplied by ``sum_k w_k * REF_S[k] / t_k``, where ``t_k``
is the median time of kernel ``k`` over the calls around it and ``w_k`` the
share of that kind of work in the workload (its ``PROFILE``). Scaled times
are seconds on a host where the kernels take ``REF_S``. A change to the
package does not change the kernels, so it shows in the scaled times in
full.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REF_S = {"python": 1.2e-3, "numpy": 0.9e-3, "memory": 1.2e-3}
WINDOW = 2  # calls on either side whose calibrations scale a call


class Calibration:
    def __init__(self):
        self.large = np.random.default_rng(0).standard_normal(500_000)  # 4 MB, past a 2 MB L2
        self.texts = [repr(v) for v in self.large[:2000].tolist()]
        self.kernels = {"python": self._python, "numpy": self._numpy, "memory": self._memory}

    def __call__(self) -> dict:
        """Seconds per kernel on a second pass; the first absorbs the cache state the last call left."""
        for kernel in self.kernels.values():
            kernel()
        seconds = {}
        for name, kernel in self.kernels.items():
            start = perf_counter()
            kernel()
            seconds[name] = perf_counter() - start
        return seconds

    def _python(self) -> None:
        values = []
        for text in self.texts:
            values.append(float(text))
        total = 0.0
        for value in values:
            total += value * value

    @staticmethod
    def _numpy() -> None:
        np.cumsum(np.sort(np.random.Generator(np.random.Philox(7)).standard_normal(20_000)))

    def _memory(self) -> None:
        np.abs(self.large).sum()


def factor(nearby: list, profile: dict) -> float:
    """Scale for a time measured among the calibrations ``nearby``, for work of the given profile."""
    return sum(share * REF_S[kind] / statistics.median(cal[kind] for cal in nearby)
               for kind, share in profile.items())


def scaled(times: list, cals: list, profile: dict) -> list:
    """Each time scaled by the calibrations of the ``WINDOW`` calls on either side of it."""
    return [seconds * factor(cals[max(0, j - WINDOW): j + WINDOW + 1], profile)
            for j, seconds in enumerate(times)]
