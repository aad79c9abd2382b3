"""Two-layer networks: representation, evaluation, total weight, and the
generic residual-boosting driver.

A network computes ``x -> sum_l a_l * psi(w_l . x + b_l)`` and its total
weight is ``sum_l |a_l| * sqrt(||w_l||^2 + b_l^2)``.  The boosting driver
consumes a user-supplied one-step constructor that proposes a small network
correlating with the current residual, and accumulates scaled copies of the
proposals until the residual is small.  With a finite trimming threshold
(harmonic construction) it drops points whose residual grew too large from
an active set, which only shrinks, and fits the residual on that set.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import astuple, dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .data import Dataset
from .errors import ConvergenceError, InvariantError, ParameterError


def relu(t):
    return np.maximum(t, 0.0)


def threshold(t):
    # Boundary t = 0 maps to 1.
    return np.where(t >= 0.0, 1.0, 0.0)


def get_activation(name: str) -> Callable[[np.ndarray], np.ndarray]:
    """Resolve an activation by name: 'relu' or 'threshold'."""
    if name == "relu":
        return relu
    if name == "threshold":
        return threshold
    raise ParameterError(f"unknown activation {name!r}")


@dataclass(frozen=True)
class Neuron:
    """One neuron ``a * psi(w . x + b)``."""

    a: float
    w: np.ndarray
    b: float

    def __post_init__(self):
        w = np.array(self.w, dtype=np.float64)  # a copy: the caller's array stays writable
        if not (math.isfinite(self.a) and math.isfinite(self.b) and np.isfinite(w).all()):
            raise ParameterError("neuron parameters must be finite")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    @property
    def weight(self) -> float:
        try:
            with np.errstate(over="ignore"):
                out = abs(self.a) * math.sqrt(float(self.w @ self.w) + self.b ** 2)
        except OverflowError:  # b ** 2 past the float range
            out = math.inf
        # w . w or b ** 2 past the float range (inf, or nan when a = 0)
        return out if math.isfinite(out) else abs(self.a) * math.hypot(*self.w, self.b)

    def scaled(self, c: float) -> "Neuron":
        """a * c, sharing this neuron's checked read-only w: only a * c is checked."""
        out = object.__new__(Neuron)
        out.__dict__.update(a=self.a * c, w=self.w, b=self.b)
        if not math.isfinite(out.a):
            raise ParameterError("neuron parameters must be finite")
        return out


@dataclass(frozen=True)
class TwoLayerNetwork:
    neurons: tuple
    activation: str = "relu"

    def __post_init__(self):
        object.__setattr__(self, "neurons", tuple(self.neurons))
        get_activation(self.activation)  # validate name eagerly
        if self.neurons:
            d = self.neurons[0].w.shape[0]
            if any(nr.w.shape != (d,) for nr in self.neurons):
                raise ParameterError("all neurons must share the input dimension")

    @property
    def k(self) -> int:
        return len(self.neurons)

    @property
    def d(self):
        return self.neurons[0].w.shape[0] if self.neurons else None

    def to_json(self) -> str:
        return json.dumps({
            "activation": self.activation,
            "neurons": [{"a": nr.a, "w": nr.w.tolist(), "b": nr.b} for nr in self.neurons],
        })


def evaluate(net: TwoLayerNetwork, ds: Dataset) -> np.ndarray:
    """Network values on the points of ``ds``."""
    if not net.neurons:
        return np.zeros(ds.n)
    if ds.d != net.d:
        raise ParameterError(f"dimension mismatch: network d={net.d}, points d={ds.d}")
    psi = get_activation(net.activation)
    W = np.stack([nr.w for nr in net.neurons])          # (k, d)
    a = np.array([nr.a for nr in net.neurons])
    b = np.array([nr.b for nr in net.neurons])
    return (psi(ds.points @ W.T + b) @ a)


def total_weight(net: TwoLayerNetwork) -> float:
    return float(sum(nr.weight for nr in net.neurons))


@dataclass(frozen=True)
class StepProposal:
    """One boosting step: a few neurons plus their values on the data."""

    neurons: Sequence[Neuron]
    values: np.ndarray


# A step builder maps (residual, zero off the active set; attempt_seed) to a
# proposal, or None to signal a degenerate draw that the driver should retry.
StepBuilder = Callable[[np.ndarray, int], StepProposal | None]


@dataclass
class IterationRecord:
    residual_sq: float
    step_correlation_alpha: float
    step_norm_beta: float
    eta: float
    neurons_added: int
    active_set_size: int


@dataclass
class FitTrace:
    iterations: list = field(default_factory=list)
    final_error_ratio: float = math.nan
    notes: dict = field(default_factory=dict)

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", *(f.name for f in fields(IterationRecord))])
            writer.writerows((i, *astuple(rec)) for i, rec in enumerate(self.iterations))


def boost_fit(step_builder: StepBuilder, ds: Dataset, epsilon: float,
              max_iters: int, seed: int = 0, retry_budget: int = 50,
              trim_sq: float = math.inf
              ) -> tuple[TwoLayerNetwork, FitTrace, np.ndarray]:
    """Greedy residual fitting: r <- r - eta * f for proposals f.

    Returns the network, its trace and the active-set mask.  A point whose
    r_i^2 exceeds ``trim_sq`` at the start of an iteration leaves the active
    set A for good.  The builder, the line search eta = (r_A . f_A)/||f_A||^2
    (which never increases ||r_A||^2) and the stop at ||r_A||^2 <=
    epsilon ||y||^2 all use the residual restricted to A.  Steps with
    nonpositive correlation are resampled up to ``retry_budget`` times;
    exhausting them, or ``max_iters``, raises ConvergenceError with the trace.
    ``trace.notes["stop_reason"]`` is "epsilon reached" or the error's reason.
    """
    if not (0.0 < epsilon < 1.0):
        raise ParameterError("epsilon must lie in (0, 1)")
    y = ds.labels
    y_sq = float(y @ y)
    trace = FitTrace()
    neurons: list[Neuron] = []
    active = np.ones(len(y), dtype=bool)
    r = y.copy()
    seed_root = np.random.SeedSequence(seed)
    for it in range(max_iters + 1):
        active &= r * r <= trim_sq * (1 + 1e-12)
        r_act = np.where(active, r, 0.0)
        r_sq = float(r_act @ r_act)
        if r_sq <= epsilon * y_sq:
            break
        proposal = None
        # the pass after the last iteration only checks the stopping rule
        for attempt in range(retry_budget if it < max_iters else 0):
            attempt_seed = int(np.random.SeedSequence(entropy=seed_root.entropy,
                                                      spawn_key=(it, attempt)).generate_state(1)[0])
            cand = step_builder(r_act, attempt_seed)
            if cand is None:
                continue
            f_act = np.where(active, cand.values, 0.0)
            corr = float(r_act @ f_act)
            norm_sq = float(f_act @ f_act)
            if corr > 0.0 and norm_sq > 0.0:
                proposal = cand
                break
        if proposal is None:
            trace.final_error_ratio = r_sq / y_sq
            reason = ("step retry budget exhausted" if it < max_iters
                      else "iteration cap reached")
            trace.notes["stop_reason"] = reason
            raise ConvergenceError(f"{reason} at iteration {it} with error ratio "
                                   f"{trace.final_error_ratio:.3g}", trace=trace)

        eta = corr / norm_sq
        neurons.extend(nr.scaled(eta) for nr in proposal.neurons)
        r = r - eta * proposal.values
        trace.iterations.append(IterationRecord(
            residual_sq=r_sq,
            step_correlation_alpha=corr / r_sq,
            step_norm_beta=norm_sq / r_sq,
            eta=eta,
            neurons_added=len(proposal.neurons),
            active_set_size=int(active.sum()),
        ))
        r_next = np.where(active, r, 0.0)
        if float(r_next @ r_next) > r_sq * (1 + 1e-12):
            raise InvariantError("line-search step increased the residual")

    trace.notes["stop_reason"] = "epsilon reached"
    trace.final_error_ratio = r_sq / y_sq if y_sq > 0 else 0.0
    return TwoLayerNetwork(tuple(neurons)), trace, active
