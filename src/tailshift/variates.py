"""Random variates and path simulation for heavy-tailed designs.

Burr and Student-t innovation laws and i.i.d./MA(1)/AR(1) path generation
with an optional single switch of the innovation law; i.i.d. samples of a law
are ``simulate(ModelSpec("iid", params), n, seed)``. Everything is
reproducible: public entry points accept either an integer seed or a
``numpy.random.Generator``, and replication harnesses derive independent
streams with :func:`replication_rng`. Paths are simulated as the rows of a
block, one generator per row: only the draws run per row, and a single path is
the block of one.
"""
from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._checks import as_int, require_real
from .tail_core import _finite_rows

__all__ = [
    "AR_BURNIN",
    "BurrParams",
    "ChangeSpec",
    "ModelSpec",
    "TDistParams",
    "as_generator",
    "burr_quantile",
    "replication_rng",
    "simulate",
]

# Presample steps discarded when starting the AR recursion from zero.
AR_BURNIN = 1000

# Smallest uniform accepted by the inverse transform; guards the u = 0.0
# endpoint of numpy's half-open uniform without biasing any realistic draw.
_MIN_UNIFORM = 1e-300


def _require(name: str, value, sign: int) -> None:
    """Reject a parameter that is not a finite real of sign ``sign`` (1 or -1), naming the field."""
    require_real(name, value)
    if not (sign * value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and {'positive' if sign > 0 else 'negative'}, got {value}")


def as_generator(seed) -> np.random.Generator:
    """``seed`` itself if it is a Generator, else a Philox stream from an integer seed or None."""
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is not None:
        seed = as_int(seed, "seed", 0)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def replication_rng(seed: int, index: int) -> np.random.Generator:
    """Independent generator for replication ``index`` of a run seeded with ``seed``.

    Streams are split as ``SeedSequence((seed, index))`` feeding a counter-based
    Philox generator, so replication ``index`` sees the same stream whether the
    harness runs serially or fans replications out to workers. Both arguments
    must be integers; a bool or a float is a ``TypeError``, never truncated.
    """
    seq = np.random.SeedSequence((as_int(seed, "seed", 0), as_int(index, "index", 0)))
    return np.random.Generator(np.random.Philox(seq))


# numpy's SeedSequence (numpy/random/bit_generator.pyx): the pool's and the output's hash multipliers, and mix's
_INIT_A, _MULT_A, _INIT_B, _MULT_B, _MIX_L, _MIX_R = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED, 0xCA01F9DD, 0x4973F715


def _stream_keys(seed: int, start: int, stop: int) -> np.ndarray:
    """The Philox keys ``SeedSequence((seed, r)).generate_state(2, np.uint64)`` of the rows ``r`` in ``start..stop-1``.

    numpy's mixing, in uint32 array arithmetic over the rows. A row's entropy is the little-endian 32-bit words of
    ``seed``, then of ``r`` (one word 0 for 0). The first 4 words, 0 where a row has fewer, are hashed into a pool of 4,
    every pool word is mixed into every other, and each further word into every pool word. The pool is hashed out into
    4 state words, read as 2 little-endian uint64. A row's missing words are its last ones, so the hash constants, one
    per ``hashmix``, are the same for every row."""
    r = np.arange(start, stop, dtype=object)
    # (value, shift, the rows that have the word): every row has each word of seed, and word s of r where r >= 2**s
    words = [(seed, s, True) for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [(r, s, s == 0 or r >> s > 0) for s in range(0, max(stop - 1, 1).bit_length(), 32)]
    entropy = [np.full(r.shape, (value >> s) % 2**32, np.uint32) for value, s, _ in words]
    entropy += [np.zeros(r.shape, np.uint32)] * (4 - len(entropy))

    def hashmix(value, consts, j, m):  # hashes j..j+m-1 of the column consts, one per row of value
        value = (value ^ consts[j:j + m]) * consts[j + 1:j + m + 1]
        return value ^ value >> 16

    def mix(x, y):
        return (z := _MIX_L * x - _MIX_R * y) ^ z >> 16

    # the successive hash constants: each is the last times the multiplier (uint32 products wrap, as in numpy)
    hash_a = (_INIT_A * np.cumprod([1] + [_MULT_A] * (16 + 4 * len(words[4:])), dtype=np.uint32))[:, None]
    pool = hashmix(np.stack(entropy[:4]), hash_a, 0, 4)
    # each other pool word reads pool[src] and itself, so the three are one step
    for src, dst in enumerate(([1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2])):
        pool[dst] = mix(pool[dst], hashmix(pool[src], hash_a, 4 + 3 * src, 3))
    for i, (word, (_, _, has)) in enumerate(zip(entropy[4:], words[4:])):
        pool = np.where(has, mix(pool, hashmix(word, hash_a, 16 + 4 * i, 4)), pool)
    hash_b = (_INIT_B * np.cumprod([1] + [_MULT_B] * 4, dtype=np.uint32))[:, None]
    # as numpy: the 4 state words of a row viewed as 2 little-endian uint64, then made native
    return hashmix(pool, hash_b, 0, 4).T.astype("<u4", order="C").view("<u8").astype(np.uint64)


class _streams:
    """The generators of the rows ``r`` in ``start..stop-1``, each ``replication_rng(seed, r)`` bit for bit.

    Iterating yields one ``Generator(Philox)``, re-keyed for each row in turn from :func:`_stream_keys` by
    assigning its whole state: that of a fresh Philox (counter 0, ``buffer_pos`` 4, ``has_uint32`` 0) with the
    row's key. ``len`` is the row count."""

    def __init__(self, seed: int, start: int, stop: int):
        self.keys = _stream_keys(seed, start, stop)

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, rows: slice) -> "_streams":
        """The streams of ``rows``, the same keys with a generator of their own."""
        part = object.__new__(_streams)
        part.keys = self.keys[rows]
        return part

    def __iter__(self):
        rng = np.random.Generator(np.random.Philox(0))
        fresh = rng.bit_generator.state
        for key in self.keys:
            rng.bit_generator.state = fresh | {"state": {"counter": fresh["state"]["counter"], "key": key}}
            yield rng


def _worker_count() -> int:
    """Cores this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _fan(count: int, run) -> list:
    """The results, in order, of ``run(a, b)`` over one contiguous run ``a..b-1`` of ``range(count)`` per usable core.

    The first run goes on the calling thread and each other on a thread of its own. Once every thread has
    ended, the exception of the earliest run that raised, if any did, is raised here. numpy keeps
    ``np.errstate`` per thread, so ``run`` sets its own."""
    workers = min(_worker_count(), count)
    results, errors = [None] * workers, [None] * workers

    def work(i: int) -> None:
        try:
            results[i] = run(count * i // workers, count * (i + 1) // workers)
        except BaseException as exc:  # raised below, once every run has ended
            errors[i] = exc

    threads = [threading.Thread(target=work, args=(i,)) for i in range(1, workers)]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    for exc in filter(None, errors):  # the earliest run's first
        raise exc
    return results


@dataclass(frozen=True)
class BurrParams:
    """Burr law with survival function ``(beta / (beta + x**(-gamma)))**lam``.

    ``lam`` and ``beta`` must be finite, positive reals and ``gamma`` a finite,
    negative real (a bool is not a real); the tail exponent is ``alpha = -gamma * lam``.
    """

    lam: float
    beta: float = 1.0
    gamma: float = -1.0

    def __post_init__(self):
        _require("lam", self.lam, 1)
        _require("beta", self.beta, 1)
        _require("gamma", self.gamma, -1)

    @property
    def alpha(self) -> float:
        return -self.gamma * self.lam

    @classmethod
    def from_alpha(cls, alpha: float, gamma: float, beta: float = 1.0) -> "BurrParams":
        """Parameters with tail exponent ``alpha`` and second-order exponent ``gamma``."""
        _require("alpha", alpha, 1)
        _require("gamma", gamma, -1)
        return cls(lam=-alpha / gamma, beta=beta, gamma=gamma)


@dataclass(frozen=True)
class TDistParams:
    """Student-t law with ``nu`` finite, positive, real degrees of freedom (tail exponent ``alpha = nu``)."""

    nu: float

    def __post_init__(self):
        _require("nu", self.nu, 1)

    @property
    def alpha(self) -> float:
        return self.nu


InnovationParams = BurrParams | TDistParams

_MODEL_KINDS = ("iid", "ma1", "ar1")


def _require_law(name: str, value) -> None:
    """Reject an innovation law that is not a ``BurrParams`` or ``TDistParams``, naming the field."""
    if not isinstance(value, InnovationParams):
        raise TypeError(f"{name} must be a BurrParams or TDistParams, got {type(value).__name__}")


@dataclass(frozen=True)
class ModelSpec:
    """Data-generating model: i.i.d. draws, MA(1), or AR(1) over an innovation law.

    ``innovation`` must be a :class:`BurrParams` or :class:`TDistParams`.
    ``coef`` is the single finite, real lag-1 coefficient: the moving-average weight
    for ``kind="ma1"``, the autoregressive weight for ``kind="ar1"`` (must
    satisfy ``|coef| < 1`` for stationarity), unused for ``kind="iid"``.
    """

    kind: str
    innovation: InnovationParams
    coef: float | None = None

    def __post_init__(self):
        if self.kind not in _MODEL_KINDS:
            raise ValueError(f"kind must be one of {_MODEL_KINDS}, got {self.kind!r}")
        _require_law("innovation", self.innovation)
        if self.kind == "iid":
            if self.coef is not None:
                raise ValueError("iid model takes no coefficient")
        else:
            if self.coef is None:
                raise ValueError(f"{self.kind} model requires a coefficient")
            require_real("coef", self.coef)
            if not math.isfinite(self.coef):
                raise ValueError(f"coef must be finite, got {self.coef}")
            if self.kind == "ar1" and not abs(self.coef) < 1:
                raise ValueError(f"ar1 requires |coef| < 1, got {self.coef}")


@dataclass(frozen=True)
class ChangeSpec:
    """Single abrupt switch of the innovation law after index ``floor(n * tau)``, ``tau`` a real in (0, 1).

    ``pre`` and ``post`` must each be a :class:`BurrParams` or :class:`TDistParams`.
    """

    tau: float
    pre: InnovationParams
    post: InnovationParams

    def __post_init__(self):
        require_real("tau", self.tau)
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")
        _require_law("pre", self.pre)
        _require_law("post", self.post)


def _require_change(change) -> None:
    """Reject a ``change`` that is neither a ``ChangeSpec`` nor None, naming the field."""
    if not isinstance(change, (ChangeSpec, type(None))):
        raise TypeError(f"change must be a ChangeSpec or None, got {type(change).__name__}")


def burr_quantile(u, params: BurrParams):
    """Value ``x`` whose survival probability is ``u``, i.e. ``sf(x) = u``.

    Accepts a scalar or array of probabilities in the open interval (0, 1).
    """
    u_arr = np.asarray(u, dtype=float)
    if np.any((u_arr <= 0.0) | (u_arr >= 1.0)):
        raise ValueError("u must lie strictly inside (0, 1)")
    x = (params.beta * (u_arr ** (-1.0 / params.lam) - 1.0)) ** (-1.0 / params.gamma)
    return float(x) if u_arr.ndim == 0 else x


def simulate(model: ModelSpec, n: int, seed=None, change: ChangeSpec | None = None) -> np.ndarray:
    """Simulate a length-``n`` path of ``model``, optionally with a change.

    Under a :class:`ChangeSpec`, innovations ``1..floor(n*tau)`` follow
    ``change.pre`` and later ones ``change.post`` (``model.innovation`` is
    ignored). The MA(1) presample innovation and the AR(1) burn-in (``AR_BURNIN``
    steps from zero, discarded) use the pre-change law. Where ``floor(n*tau)``
    is 0, every observation comes after the change: only that presample and
    burn-in then draw from ``change.pre``. Draw order is fixed --
    presample/burn-in and pre-change innovations first, then post-change --
    so a given ``(model, n, seed, change)`` always yields the same path.
    A path that overflows is a ``ValueError`` naming the model and its laws.
    """
    _require_change(change)
    return _simulate_rows(model, as_int(n, "n", 1), [as_generator(seed)], change)[0]


def _simulate_rows(model: ModelSpec, n: int, rngs, change: ChangeSpec | None) -> np.ndarray:
    """Paths of :func:`simulate` as the rows of a block, row ``i`` drawn from ``rngs[i]`` alone.

    Only the draws run per row; the laws, the model's filter and the finiteness check
    run once over the block, and each row is its generator's path, bit for bit."""
    if change is not None:
        # floor(n * tau) of tau's shortest decimal: n * 0.7 in floats can land below 7
        n_pre = math.floor(Fraction(repr(float(change.tau))) * n)
        pre_law, post_law = change.pre, change.post
    else:
        n_pre = n
        pre_law = post_law = model.innovation

    # draws before observation 1: the MA(1) presample lag or the AR(1) burn-in
    lead = {"iid": 0, "ma1": 1, "ar1": AR_BURNIN}[model.kind]
    cut = lead + n_pre
    segments = [(law, slice(a, b)) for law, a, b in ((pre_law, 0, cut), (post_law, cut, lead + n)) if a < b]
    # uniforms (Burr) or normals (t) in xi, the t law's chi-squares in w
    xi, w = np.empty((len(rngs), lead + n)), np.empty((len(rngs), lead + n))
    for i, rng in enumerate(rngs):
        for law, cols in segments:
            if isinstance(law, BurrParams):
                rng.random(out=xi[i, cols])
            else:
                rng.standard_normal(out=xi[i, cols])
                w[i, cols] = rng.chisquare(law.nu, cols.stop - cols.start)
    # an overflow is reported below, as a path that is not finite
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for law, cols in segments:
            if isinstance(law, BurrParams):
                xi[:, cols] = burr_quantile(np.fmax(xi[:, cols], _MIN_UNIFORM), law)
            else:  # exact t law: standard normal over sqrt(chi-square / nu)
                xi[:, cols] /= np.sqrt(w[:, cols] / law.nu)
        if model.kind == "iid":
            x = xi
        elif model.kind == "ma1":
            x = xi[:, 1:] + model.coef * xi[:, :-1]
        else:  # ar1: recursion x_i = coef * x_{i-1} + xi_i from zero, burn-in discarded
            from scipy.signal import lfilter  # ~1 s to import, so only where an AR(1) path is drawn

            x = lfilter([1.0], [1.0, -model.coef], xi, axis=-1)[:, AR_BURNIN:]
    try:
        return _finite_rows(x)
    except ValueError as exc:
        laws = repr(pre_law) if change is None else f"{pre_law!r} then {post_law!r}"
        raise ValueError(f"{model.kind} path of {laws} is not finite: {exc}") from None
