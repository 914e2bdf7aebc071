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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .tail_core import _finite_rows, as_int, require_real

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
