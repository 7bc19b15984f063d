"""Variational fit of latent trajectories to an interaction history.

The posterior over critical points is mean-field Gaussian: one mean vector
and one isotropic scale per (node, cut-point), plus the global rate bias.
Training minimizes the single-sample reparameterized negative ELBO

    loss = NLL(z = mu + sigma * eps) + KL(q || prior)

with exact gradients: the NLL part differentiates through the closed-form
cumulative rates, the KL part is analytic, and the reparameterization maps
d/dz onto d/dmu and d/dlog_sigma. Scales are optimized through log sigma so
positivity holds by construction.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import orjson

from .events import (
    EdgeSplit,
    EventList,
    IntervalPartition,
    distinct_sorted,
    float_text,
    in_sorted,
    pair_codes,
    pair_rows,
    write_csv_columns,
)
from .model import (
    EUCLIDEAN,
    SamplingPlan,
    _KINDS,
    draw_terms,
    fixed_terms,
    nll_value_grad,
    realize_plan,
)
from .prior import PriorConfig, kl_gradients, kl_to_prior

INIT_MU_SCALE = 0.1
INIT_SIGMA = 0.1

MODEL_FORMAT = "tgne-model-v1"
_RETIRED_HYPERPARAMS = ("batch_size", "mc_samples")


class FitDivergedError(RuntimeError):
    """Raised when the training loss, or the state an Adam step leaves,
    stops being finite; ``what`` names which."""

    def __init__(self, epoch: int, nll: float, kl: float, what: str = "loss"):
        self.epoch = epoch
        self.nll = float(nll)
        self.kl = float(kl)
        super().__init__(
            f"non-finite {what} at epoch {epoch}: nll={self.nll!r}, kl={self.kl!r}"
        )


@dataclass(eq=False)
class VariationalState:
    """Mean-field parameters: mu (n, K+1, d), log_sigma (n, K+1), beta."""

    mu: np.ndarray
    log_sigma: np.ndarray
    beta: float

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.log_sigma = np.asarray(self.log_sigma, dtype=np.float64)
        if self.mu.ndim != 3 or self.log_sigma.shape != self.mu.shape[:2]:
            raise ValueError("mu must be (n, K+1, d) and log_sigma (n, K+1)")

    @property
    def sigma(self) -> np.ndarray:
        return np.exp(self.log_sigma)

    @property
    def n(self) -> int:
        return self.mu.shape[0]

    @property
    def d(self) -> int:
        return self.mu.shape[2]


@dataclass
class Hyperparams:
    """Fit configuration; defaults follow the artifact-wide conventions."""

    d: int = 2
    K: int = 15
    tau: float = 1.0
    tau0: Optional[float] = None
    epochs: int = 500
    lr_phi: float = 0.01
    lr_beta: float = 1e-5
    # ignored: both rate kinds are integrated exactly; kept so that model
    # files that store it still load
    riemann_r: int = 10
    rate_model: str = EUCLIDEAN
    negatives_per_node: Optional[int] = None
    seed: int = 0
    # None = empirical log mean event count per active pair. The bias barely
    # moves under its tiny learning rate, so its start value sets the rate
    # scale the model can express; 0 caps every rate at exp(0) and flattens
    # the scores on any data with more than ~1 event per pair.
    beta_init: Optional[float] = None

    def __post_init__(self):
        if self.tau0 is None:
            self.tau0 = self.tau
        for name in ("d", "K", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.negatives_per_node is not None and self.negatives_per_node < 1:
            raise ValueError(f"negatives_per_node must be >= 1, got {self.negatives_per_node}")
        for name in ("tau", "tau0", "lr_phi", "lr_beta", "beta_init"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("tau", "tau0", "lr_phi"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.lr_beta < 0:
            raise ValueError(f"lr_beta must be >= 0, got {self.lr_beta}")
        if self.rate_model not in _KINDS:
            raise ValueError(f"rate_model must be one of {_KINDS}, got {self.rate_model!r}")


@dataclass(eq=False)
class FittedModel:
    """Fit result: final state plus everything needed to reuse it."""

    state: VariationalState
    hyper: Hyperparams
    part: IntervalPartition
    loss_trace: np.ndarray
    node_labels: list[str]
    time_range: Optional[tuple[float, float]] = None
    directed: bool = False


def _finite_state(vs: VariationalState) -> bool:
    """Whether beta, mu and sigma are finite: the prior's check, and the
    next epoch's draw needs them too."""
    with np.errstate(over="ignore"):
        sigma = vs.sigma
    return bool(np.isfinite(vs.beta) and np.isfinite(vs.mu).all() and np.isfinite(sigma).all())


def init_state(n: int, hp: Hyperparams, seed) -> VariationalState:
    """Small random means, sigma = 0.1 everywhere, beta = 0."""
    rng = np.random.default_rng(seed)
    mu = INIT_MU_SCALE * rng.standard_normal((n, hp.K + 1, hp.d))
    log_sigma = np.full((n, hp.K + 1), np.log(INIT_SIGMA))
    return VariationalState(mu=mu, log_sigma=log_sigma, beta=0.0)


def _elbo_value_grad(vs, part, pc, rm_kind, terms, eps, want_grad):
    sigma = vs.sigma
    z = vs.mu + sigma[:, :, None] * eps
    nll, dz, dbeta = nll_value_grad(z, vs.beta, rm_kind, part, terms, want_grad=want_grad)
    kl = kl_to_prior(vs, pc)
    loss = nll + kl
    if not want_grad:
        return loss, nll, kl, None, None, None
    d_mu = dz.copy()
    d_log_sigma = sigma * np.einsum("nkd,nkd->nk", dz, eps)
    kl_dmu, kl_dsigma = kl_gradients(vs, pc)
    d_mu += kl_dmu
    d_log_sigma += sigma * kl_dsigma
    return loss, nll, kl, d_mu, d_log_sigma, dbeta


def elbo_loss(
    vs: VariationalState,
    ev: EventList,
    part: IntervalPartition,
    pc: PriorConfig,
    rm_kind: str,
    plan: SamplingPlan,
    eps: np.ndarray,
) -> float:
    """Single-sample negative ELBO: reconstruction NLL at z(eps) plus KL."""
    terms = realize_plan(ev, part, plan)
    loss, _, _, _, _, _ = _elbo_value_grad(
        vs, part, pc, rm_kind, terms, np.asarray(eps), want_grad=False
    )
    return loss


def loss_gradient(
    vs: VariationalState,
    ev: EventList,
    part: IntervalPartition,
    pc: PriorConfig,
    rm_kind: str,
    plan: SamplingPlan,
    eps: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Exact gradient of elbo_loss at the given eps: (d_mu, d_log_sigma, d_beta)."""
    terms = realize_plan(ev, part, plan)
    _, _, _, d_mu, d_log_sigma, d_beta = _elbo_value_grad(
        vs, part, pc, rm_kind, terms, np.asarray(eps), want_grad=True
    )
    return d_mu, d_log_sigma, d_beta


ADAM_BETA1 = 0.9  # decay rate of the first moment
ADAM_BETA2 = 0.999  # decay rate of the second moment
ADAM_EPS = 1e-8


class Adam:
    """Adaptive-moment optimizer over (mu, log_sigma) and the scalar beta.

    Decay rates ``ADAM_BETA1`` / ``ADAM_BETA2``, epsilon ``ADAM_EPS``,
    bias-corrected; phi parameters use lr_phi and beta uses lr_beta.
    """

    def __init__(self, shape_mu, shape_sigma, lr_phi: float, lr_beta: float):
        self.lr_phi = lr_phi
        self.lr_beta = lr_beta
        self.t = 0
        self.m_mu = np.zeros(shape_mu)
        self.v_mu = np.zeros(shape_mu)
        self.m_ls = np.zeros(shape_sigma)
        self.v_ls = np.zeros(shape_sigma)
        self.m_beta = 0.0
        self.v_beta = 0.0

    @staticmethod
    def _update(m, v, g, lr, bc1, bc2):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        return lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)

    def step(self, vs: VariationalState, d_mu, d_log_sigma, d_beta) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        vs.mu -= self._update(self.m_mu, self.v_mu, d_mu, self.lr_phi, bc1, bc2)
        vs.log_sigma -= self._update(self.m_ls, self.v_ls, d_log_sigma, self.lr_phi, bc1, bc2)
        self.m_beta = ADAM_BETA1 * self.m_beta + (1.0 - ADAM_BETA1) * d_beta
        self.v_beta = ADAM_BETA2 * self.v_beta + (1.0 - ADAM_BETA2) * d_beta * d_beta
        vs.beta -= self.lr_beta * (self.m_beta / bc1) / (np.sqrt(self.v_beta / bc2) + ADAM_EPS)


def empirical_beta(ev: EventList, excluded_pairs=frozenset()) -> float:
    """log of the mean event count per interacting pair over the window.

    Held-out pairs (and their events) are left out of the estimate, as
    ``fixed_terms`` leaves them out of the likelihood; ``excluded_pairs`` is
    read by ``pair_codes``.
    """
    held = pair_codes(excluded_pairs, ev.n, ev.directed)
    if ev.m == 0:
        return 0.0
    codes = np.sort(ev.src * ev.n + ev.dst)
    pairs = distinct_sorted(codes)
    held = held[in_sorted(held, pairs)]
    # a held-out pair's events are one run of the sorted codes; finding the
    # runs, not testing each event, keeps this to the one sort
    m = codes.size - int((np.searchsorted(codes, held, side="right")
                          - np.searchsorted(codes, held)).sum())
    if m == 0:
        return 0.0
    return float(np.log(m / (pairs.size - held.size)))


def fit(
    ev: EventList,
    hp: Hyperparams,
    split: Optional[EdgeSplit] = None,
) -> FittedModel:
    """Run the variational fit; deterministic under hp.seed.

    With a split, the likelihood is restricted to training pairs: held-out
    pairs contribute no terms and are excluded from negative pools. The bias
    starts at hp.beta_init (empirical rate scale when None) and then trains
    at its own learning rate. A RuntimeWarning names the first and the last
    loss when the last is above the first.
    """
    n = ev.n
    part = IntervalPartition.uniform(hp.K)
    pc = PriorConfig(tau=hp.tau, part=part, d=hp.d, tau0=hp.tau0)
    # a child's stream depends only on its index, so these three are the
    # first three of any larger spawn (the benchmark's replica spawns four)
    seq_init, seq_eps, seq_plan = np.random.SeedSequence(hp.seed).spawn(3)
    state = init_state(n, hp, seed=seq_init)
    excluded = pair_rows(split.held_out_codes, n) if split is not None else frozenset()
    state.beta = float(hp.beta_init) if hp.beta_init is not None else empirical_beta(ev, excluded)
    rng_eps = np.random.default_rng(seq_eps)
    rng_plan = np.random.default_rng(seq_plan)
    fixed = fixed_terms(ev, part, SamplingPlan(negatives_per_node=hp.negatives_per_node,
                                               excluded_pairs=excluded))

    opt = Adam(state.mu.shape, state.log_sigma.shape, hp.lr_phi, hp.lr_beta)
    trace = np.empty(hp.epochs)
    for epoch in range(hp.epochs):
        # only a negatives plan's draw reads the seed; rng_plan feeds nothing else
        terms = draw_terms(fixed, int(rng_plan.integers(2**63)))
        eps = rng_eps.standard_normal(state.mu.shape)
        loss, nll, kl, d_mu, d_ls, d_beta = _elbo_value_grad(
            state, part, pc, hp.rate_model, terms, eps, want_grad=True
        )
        if not np.isfinite(loss):
            raise FitDivergedError(epoch, nll, kl)
        opt.step(state, d_mu, d_ls, d_beta)
        if not _finite_state(state):
            raise FitDivergedError(epoch, nll, kl, what="state after the Adam step")
        trace[epoch] = loss
    if trace[-1] > trace[0]:
        warnings.warn(
            f"the loss ended above where it started: {trace[0]:.6g} at epoch 1, "
            f"{trace[-1]:.6g} at epoch {hp.epochs}; try smaller learning rates",
            RuntimeWarning,
        )

    return FittedModel(
        state=state,
        hyper=hp,
        part=part,
        loss_trace=trace,
        node_labels=list(ev.node_labels),
        time_range=ev.time_range,
        directed=ev.directed,
    )


def mean_frame_displacement(vs: VariationalState) -> float:
    """(1/(n K)) * sum_{i,k} ||mu_i^(k+1) - mu_i^(k)||."""
    dmu = np.diff(vs.mu, axis=1)
    n, K = dmu.shape[0], dmu.shape[1]
    return float(np.linalg.norm(dmu, axis=2).sum() / (n * K))


# json.dumps's text for the floats that repr writes otherwise
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_array(x: np.ndarray) -> str:
    """``json.dumps(x.tolist())`` of a float array whose axes after the first are non-empty.

    json.dumps writes a float as its ``repr``, which ``float_text`` gives
    several times faster, and nests the values with ", ".
    """
    flat = x.ravel()
    text = float_text(flat)
    for at in np.flatnonzero(~np.isfinite(flat)).tolist():
        text[at] = _JSON_NON_FINITE[text[at]]
    for size in reversed(x.shape[1:]):
        rows = [iter(text)] * size  # zip takes `size` values at a time
        text = ["[" + ", ".join(row) + "]" for row in zip(*rows)]
    return "[" + ", ".join(text) + "]"


def save_model(fm: FittedModel, path: str | Path) -> None:
    """Serialize state + hyperparameters as one JSON document.

    Arrays are nested lists in row-major node -> cut-point -> dimension order.
    The file holds the bytes of ``json.dumps`` of the whole document; ``mu``
    and ``log_sigma`` are rendered by ``_json_array``, every other value by
    ``json.dumps``.
    """
    doc = {
        "format": MODEL_FORMAT,
        "n": fm.state.n,
        "d": fm.state.d,
        "K": fm.part.K,
        "cut_points": fm.part.cut_points.tolist(),
        "mu": _json_array(fm.state.mu),
        "log_sigma": _json_array(fm.state.log_sigma),
        "beta": fm.state.beta,
        "hyperparams": asdict(fm.hyper),
        "node_labels": fm.node_labels,
        "time_range": list(fm.time_range) if fm.time_range else None,
        "directed": fm.directed,
    }
    fields = (
        f"{json.dumps(key)}: {value if key in ('mu', 'log_sigma') else json.dumps(value)}"
        for key, value in doc.items()
    )
    Path(path).write_text("{" + ", ".join(fields) + "}", encoding="utf-8")


def load_model(path: str | Path) -> FittedModel:
    """Read a save_model file; ValueError naming the field if its shapes
    disagree, a value of mu, log_sigma or beta is not finite, or directed
    is not a bool.

    One ``orjson.loads`` parses it; orjson rounds each float as ``float``
    does, and refuses NaN, Infinity and numbers that overflow a double.
    """
    doc = orjson.loads(Path(path).read_bytes())
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"unrecognized model format {doc.get('format')!r}")
    part = IntervalPartition(np.asarray(doc["cut_points"]))
    n, K, d = doc["n"], doc["K"], doc["d"]
    if K != part.K:
        raise ValueError(f"K is {K} but cut_points has {part.K + 1} entries")
    mu = np.asarray(doc["mu"], dtype=np.float64)
    log_sigma = np.asarray(doc["log_sigma"], dtype=np.float64)
    # an n = 0 model's arrays are written as [], which keeps no trailing axes
    if mu.shape == (0,):
        mu = mu.reshape(0, K + 1, d)
    if log_sigma.shape == (0,):
        log_sigma = log_sigma.reshape(0, K + 1)
    beta = float(doc["beta"])
    if mu.shape != (n, K + 1, d):
        raise ValueError(f"mu has shape {mu.shape}, expected (n, K+1, d) = {(n, K + 1, d)}")
    if log_sigma.shape != (n, K + 1):
        raise ValueError(
            f"log_sigma has shape {log_sigma.shape}, expected (n, K+1) = {(n, K + 1)}"
        )
    for name, value in (("mu", mu), ("log_sigma", log_sigma), ("beta", beta)):
        if not np.isfinite(value).all():
            raise ValueError(f"{name} holds a value that is not finite")
    directed = doc["directed"]
    if not isinstance(directed, bool):
        raise ValueError(f"directed is {directed!r}, expected true or false")
    if len(doc["node_labels"]) != n:
        raise ValueError(f"node_labels has {len(doc['node_labels'])} entries, expected n = {n}")
    state = VariationalState(mu=mu, log_sigma=log_sigma, beta=beta)
    # keys of deleted options, which older files store at their defaults
    hyper = {k: v for k, v in doc["hyperparams"].items() if k not in _RETIRED_HYPERPARAMS}
    hp = Hyperparams(**hyper)
    if (hp.K, hp.d) != (K, d):
        raise ValueError(f"hyperparams has (K, d) = {(hp.K, hp.d)} but the arrays have {(K, d)}")
    return FittedModel(
        state=state,
        hyper=hp,
        part=part,
        loss_trace=np.empty(0),
        node_labels=list(doc["node_labels"]),
        time_range=tuple(doc["time_range"]) if doc["time_range"] else None,
        directed=directed,
    )


def write_loss_csv(fm: FittedModel, path: str | Path) -> None:
    """One row per epoch: epoch (1-based), loss."""
    epochs = np.arange(1, fm.loss_trace.size + 1)
    write_csv_columns(path, ["epoch", "loss"], [epochs, fm.loss_trace])


def write_embeddings_csv(fm: FittedModel, path: str | Path) -> None:
    """Per (node, cut-point) means and scales: node,k,eta,mu_0..mu_{d-1},sigma."""
    n, kp1, d = fm.state.mu.shape
    header = ["node", "k", "eta"] + [f"mu_{a}" for a in range(d)] + ["sigma"]
    columns = [
        np.repeat(np.arange(n), kp1),
        np.tile(np.arange(kp1), n),
        np.tile(fm.part.cut_points, n),
        *(fm.state.mu[:, :, a].ravel() for a in range(d)),
        fm.state.sigma.ravel(),
    ]
    write_csv_columns(path, header, columns)
