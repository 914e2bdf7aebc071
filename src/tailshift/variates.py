"""Random variates and path simulation for heavy-tailed designs.

Burr and Student-t innovation laws and i.i.d./MA(1)/AR(1) path generation
with an optional single switch of the innovation law; i.i.d. samples of a law
are ``simulate(ModelSpec("iid", params), n, seed)``. Everything is
reproducible: public entry points accept either an integer seed or a
``numpy.random.Generator``, and replication harnesses derive independent
streams with :func:`replication_rng`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .tail_core import as_int, finite_series

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


def _require(name: str, value, ok: bool, rule: str) -> None:
    """Reject a parameter that breaks ``rule`` or is not finite, naming the field."""
    if not (ok and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and {rule}, got {value}")


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

    ``lam`` and ``beta`` must be finite and positive and ``gamma`` finite and
    negative; the tail exponent is ``alpha = -gamma * lam``.
    """

    lam: float
    beta: float = 1.0
    gamma: float = -1.0

    def __post_init__(self):
        _require("lam", self.lam, self.lam > 0, "positive")
        _require("beta", self.beta, self.beta > 0, "positive")
        _require("gamma", self.gamma, self.gamma < 0, "negative")

    @property
    def alpha(self) -> float:
        return -self.gamma * self.lam

    @classmethod
    def from_alpha(cls, alpha: float, gamma: float, beta: float = 1.0) -> "BurrParams":
        """Parameters with tail exponent ``alpha`` and second-order exponent ``gamma``."""
        _require("alpha", alpha, alpha > 0, "positive")
        return cls(lam=-alpha / gamma, beta=beta, gamma=gamma)


@dataclass(frozen=True)
class TDistParams:
    """Student-t law with ``nu`` finite, positive degrees of freedom (tail exponent ``alpha = nu``)."""

    nu: float

    def __post_init__(self):
        _require("nu", self.nu, self.nu > 0, "positive")

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
    ``coef`` is the single finite lag-1 coefficient: the moving-average weight
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
            if not math.isfinite(self.coef):
                raise ValueError(f"coef must be finite, got {self.coef}")
            if self.kind == "ar1" and not abs(self.coef) < 1:
                raise ValueError(f"ar1 requires |coef| < 1, got {self.coef}")


@dataclass(frozen=True)
class ChangeSpec:
    """Single abrupt switch of the innovation law after index ``floor(n * tau)``.

    ``pre`` and ``post`` must each be a :class:`BurrParams` or :class:`TDistParams`.
    """

    tau: float
    pre: InnovationParams
    post: InnovationParams

    def __post_init__(self):
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


def _draw(params: InnovationParams, size: int, rng: np.random.Generator) -> np.ndarray:
    if size == 0:
        return np.empty(0)
    if isinstance(params, BurrParams):
        u = np.fmax(rng.random(size), _MIN_UNIFORM)
        return burr_quantile(u, params)
    # Exact t law: standard normal over sqrt(chi-square / nu).
    z = rng.standard_normal(size)
    w = rng.chisquare(params.nu, size)
    return z / np.sqrt(w / params.nu)


def simulate(model: ModelSpec, n: int, seed=None, change: ChangeSpec | None = None) -> np.ndarray:
    """Simulate a length-``n`` path of ``model``, optionally with a change.

    Under a :class:`ChangeSpec`, innovations ``1..floor(n*tau)`` follow
    ``change.pre`` and later ones ``change.post`` (``model.innovation`` is
    ignored). The MA(1) presample innovation and the AR(1) burn-in (``AR_BURNIN``
    steps from zero, discarded) use the pre-change law. Draw order is fixed --
    presample/burn-in and pre-change innovations first, then post-change --
    so a given ``(model, n, seed, change)`` always yields the same path.
    A path that overflows is a ``ValueError`` naming the model and its laws.
    """
    n = as_int(n, "n", 1)
    rng = as_generator(seed)
    if change is not None:
        # the epsilon keeps floor(10 * 0.7) = 7: n*tau lands a few ulps below
        # an integer whenever tau's decimal is not a binary fraction
        n_pre = math.floor(n * change.tau + 1e-9)
        pre_law, post_law = change.pre, change.post
    else:
        n_pre = n
        pre_law = post_law = model.innovation

    # draws before observation 1: the MA(1) presample lag or the AR(1) burn-in
    lead = {"iid": 0, "ma1": 1, "ar1": AR_BURNIN}[model.kind]
    # an overflow is reported below, as a path that is not finite
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        xi = np.concatenate([_draw(pre_law, lead + n_pre, rng), _draw(post_law, n - n_pre, rng)])
        if model.kind == "iid":
            x = xi
        elif model.kind == "ma1":
            x = xi[1:] + model.coef * xi[:-1]
        else:  # ar1: recursion x_i = coef * x_{i-1} + xi_i from zero, burn-in discarded
            x = lfilter([1.0], [1.0, -model.coef], xi)[AR_BURNIN:]
    try:
        return finite_series(x)
    except ValueError as exc:
        laws = repr(pre_law) if change is None else f"{pre_law!r} then {post_law!r}"
        raise ValueError(f"{model.kind} path of {laws} is not finite: {exc}") from None
