"""Two-layer networks: representation, evaluation, total weight, and the
generic residual-boosting driver.

A network ``x -> sum_l a_l psi(w_l . x + b_l)`` is three frozen arrays a, W and b, stacked
from its rows (``Neuron``) and checked once when built; its total weight
``sum_l |a_l| ||(w_l, b_l)||`` takes the row norms of [W | b] by ``data.row_norms``.  The
boosting driver consumes a one-step constructor that proposes a small network correlating
with the current residual, and accumulates scaled copies of the proposals until the
residual is small.  With a finite trimming threshold (harmonic construction) it drops points
whose residual grew too large from an active set, which only shrinks, and fits on that set.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import astuple, dataclass, field, fields
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .data import Dataset, row_norms
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


class Neuron(NamedTuple):
    """One neuron ``a * psi(w . x + b)``: a row of a network."""

    a: float
    w: np.ndarray
    b: float


@dataclass(frozen=True, init=False, eq=False)
class TwoLayerNetwork:
    """The rows ``neurons`` stacked once into read-only float64 copies a (k,), W (k, d)
    ((0, 0) when k = 0) and b (k,), and checked there: finite, with one input dimension."""

    a: np.ndarray
    W: np.ndarray
    b: np.ndarray
    activation: str

    def __init__(self, neurons: Iterable[Neuron], activation: str = "relu"):
        get_activation(activation)  # validate name eagerly
        try:
            a, W, b = ([np.array(col, dtype=np.float64) for col in zip(*neurons)]
                       or (np.empty(0), np.empty((0, 0)), np.empty(0)))
        except ValueError:
            raise ParameterError("all neurons must share the input dimension") from None
        if (a.ndim, W.ndim, b.ndim) != (1, 2, 1):
            raise ParameterError("all neurons must share the input dimension")
        if not (np.isfinite(a).all() and np.isfinite(W).all() and np.isfinite(b).all()):
            raise ParameterError("neuron parameters must be finite")
        for arr in (a, W, b):
            arr.setflags(write=False)
        self.__dict__.update(a=a, W=W, b=b, activation=activation)

    @property
    def neurons(self) -> tuple:
        """The rows as ``Neuron``s of views into a, W and b."""
        return tuple(map(Neuron, self.a, self.W, self.b))

    @property
    def k(self) -> int:
        return len(self.a)

    @property
    def d(self):
        return self.W.shape[1] if self.k else None

    def to_json(self) -> str:
        return json.dumps({
            "activation": self.activation,
            "neurons": [{"a": a, "w": w, "b": b}
                        for a, w, b in zip(self.a.tolist(), self.W.tolist(), self.b.tolist())],
        })


def evaluate(net: TwoLayerNetwork, ds: Dataset) -> np.ndarray:
    """Network values on the points of ``ds``."""
    if not net.k:
        return np.zeros(ds.n)
    if ds.d != net.d:
        raise ParameterError(f"dimension mismatch: network d={net.d}, points d={ds.d}")
    return get_activation(net.activation)(ds.points @ net.W.T + net.b) @ net.a


def from_unit_frame(net: TwoLayerNetwork, k: int) -> TwoLayerNetwork:
    """``net``, fitted on ``data.unit_frame``'s points of exponent k, for the points
    themselves: hidden weights W 2^-k by ``np.ldexp``; ``net`` itself when k = 0."""
    return net if k == 0 else TwoLayerNetwork(zip(net.a, np.ldexp(net.W, -k), net.b),
                                              net.activation)


def total_weight(net: TwoLayerNetwork) -> float:
    """W(f) = sum_l |a_l| ||(w_l, b_l)||, the norms by ``data.row_norms``."""
    return float(np.abs(net.a) @ row_norms(np.column_stack([net.W, net.b])))


@dataclass(frozen=True)
class StepProposal:
    """One boosting step: a few neurons plus their values on the data."""

    neurons: Sequence[Neuron]
    values: np.ndarray


# A step builder maps (residual, zero off the active set; attempt_seed) to a
# proposal, or None to signal a degenerate draw that the driver should retry.
StepBuilder = Callable[[np.ndarray, int], StepProposal | None]

# Attempts per boosting step: the only redraw of both steps.  An ntk step returns None
# when v = 0 or u ties a point, a harmonic step when its sampler misses the floor.
STEP_ATTEMPTS = 20


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
              max_iters: int, seed: int = 0, trim_sq: float = math.inf
              ) -> tuple[TwoLayerNetwork, FitTrace, np.ndarray]:
    """Greedy residual fitting: r <- r - eta * f for proposals f.

    Returns the network, its trace and the active-set mask.  A point whose
    r_i^2 exceeds ``trim_sq`` at the start of an iteration leaves the active
    set A for good.  The builder, the line search eta = (r_A . f_A)/||f_A||^2
    (which never increases ||r_A||^2) and the stop at ||r_A||^2 <=
    epsilon ||y||^2 all use the residual restricted to A.  A step gets ``STEP_ATTEMPTS`` =
    20 attempts at a proposal with positive correlation; exhausting them, or
    ``max_iters``, raises ConvergenceError with the trace.
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
        for attempt in range(STEP_ATTEMPTS if it < max_iters else 0):
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
        neurons.extend(Neuron(nr.a * eta, nr.w, nr.b) for nr in proposal.neurons)
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
    return TwoLayerNetwork(neurons), trace, active
