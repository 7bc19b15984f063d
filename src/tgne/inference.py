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
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np
import orjson

from .events import (
    EdgeSplit,
    EventList,
    IntervalPartition,
    float_text,
    pair_rows,
    unique_codes,
    write_csv_columns,
)
from .model import (
    EUCLIDEAN,
    SamplingPlan,
    _KINDS,
    _pair_array,
    _pair_codes,
    draw_terms,
    fixed_terms,
    nll_value_grad,
    realize_plan,
)
from .prior import PriorConfig, kl_gradients, kl_to_prior

INIT_MU_SCALE = 0.1
INIT_SIGMA = 0.1

MODEL_FORMAT = "tgne-model-v1"


class FitDivergedError(RuntimeError):
    """Raised when the training loss stops being finite."""

    def __init__(self, epoch: int, nll: float, kl: float):
        self.epoch = epoch
        self.nll = nll
        self.kl = kl
        super().__init__(
            f"non-finite loss at epoch {epoch}: nll={nll!r}, kl={kl!r}"
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

    def copy(self) -> "VariationalState":
        return VariationalState(self.mu.copy(), self.log_sigma.copy(), self.beta)


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
    batch_size: Optional[int] = None
    mc_samples: int = 1
    seed: int = 0
    # None = empirical log mean event count per active pair. The bias barely
    # moves under its tiny learning rate, so its start value sets the rate
    # scale the model can express; 0 caps every rate at exp(0) and flattens
    # the scores on any data with more than ~1 event per pair.
    beta_init: Optional[float] = None

    def __post_init__(self):
        if self.tau0 is None:
            self.tau0 = self.tau
        for name in ("d", "K", "epochs", "mc_samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.negatives_per_node is not None and self.negatives_per_node < 1:
            raise ValueError(f"negatives_per_node must be >= 1, got {self.negatives_per_node}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
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


def init_state(n: int, hp: Hyperparams, seed) -> VariationalState:
    """Small random means, sigma = 0.1 everywhere, beta = 0."""
    rng = np.random.default_rng(seed)
    mu = INIT_MU_SCALE * rng.standard_normal((n, hp.K + 1, hp.d))
    log_sigma = np.full((n, hp.K + 1), np.log(INIT_SIGMA))
    return VariationalState(mu=mu, log_sigma=log_sigma, beta=0.0)


def _elbo_value_grad(vs, ev, part, pc, rm_kind, terms, eps, want_grad):
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
        vs, ev, part, pc, rm_kind, terms, np.asarray(eps), want_grad=False
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
        vs, ev, part, pc, rm_kind, terms, np.asarray(eps), want_grad=True
    )
    return d_mu, d_log_sigma, d_beta


class Adam:
    """Adaptive-moment optimizer over (mu, log_sigma) and the scalar beta.

    Decay rates 0.9 / 0.999, epsilon 1e-8, bias-corrected; phi parameters
    use lr_phi and beta uses lr_beta.
    """

    def __init__(self, shape_mu, shape_sigma, lr_phi: float, lr_beta: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr_phi = lr_phi
        self.lr_beta = lr_beta
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m_mu = np.zeros(shape_mu)
        self.v_mu = np.zeros(shape_mu)
        self.m_ls = np.zeros(shape_sigma)
        self.v_ls = np.zeros(shape_sigma)
        self.m_beta = 0.0
        self.v_beta = 0.0

    def _update(self, m, v, g, lr, bc1, bc2):
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * (g * g)
        return lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def step(self, vs: VariationalState, d_mu, d_log_sigma, d_beta) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        vs.mu -= self._update(self.m_mu, self.v_mu, d_mu, self.lr_phi, bc1, bc2)
        vs.log_sigma -= self._update(self.m_ls, self.v_ls, d_log_sigma, self.lr_phi, bc1, bc2)
        self.m_beta = self.beta1 * self.m_beta + (1.0 - self.beta1) * d_beta
        self.v_beta = self.beta2 * self.v_beta + (1.0 - self.beta2) * d_beta * d_beta
        vs.beta -= self.lr_beta * (self.m_beta / bc1) / (
            np.sqrt(self.v_beta / bc2) + self.eps
        )


def empirical_beta(ev: EventList, excluded_pairs=frozenset()) -> float:
    """log of the mean event count per interacting pair over the window.

    Held-out pairs (and their events) are left out of the estimate; they are
    any iterable of (i, j) pairs or an (m, 2) integer array.
    """
    if ev.m == 0:
        return 0.0
    n = ev.n
    codes = _pair_codes(ev.src, ev.dst, n)
    # held-out pairs match events in stored orientation only
    ex = _pair_array(excluded_pairs, n)
    if ex.size:
        codes = codes[~np.isin(codes, _pair_codes(ex[:, 0], ex[:, 1], n))]
    m = int(codes.size)
    pairs = int(unique_codes(codes).size)
    if m == 0 or pairs == 0:
        return 0.0
    return float(np.log(m / pairs))


def fit(
    ev: EventList,
    hp: Hyperparams,
    split: Optional[EdgeSplit] = None,
) -> FittedModel:
    """Run the variational fit; deterministic under hp.seed.

    With a split, the likelihood is restricted to training pairs: held-out
    pairs contribute no terms and are excluded from negative pools. The bias
    starts at hp.beta_init (empirical rate scale when None) and then trains
    at its own learning rate.
    """
    n = ev.n
    part = IntervalPartition.uniform(hp.K)
    pc = PriorConfig(tau=hp.tau, part=part, d=hp.d, tau0=hp.tau0)
    root = np.random.SeedSequence(hp.seed)
    seq_init, seq_eps, seq_plan, seq_batch = root.spawn(4)
    state = init_state(n, hp, seed=seq_init)
    excluded = split.held_out() if split is not None else frozenset()
    if hp.beta_init is not None:
        state.beta = float(hp.beta_init)
    elif split is not None:
        state.beta = empirical_beta(ev, pair_rows(split.held_out_codes, n))
    else:
        state.beta = empirical_beta(ev)
    rng_eps = np.random.default_rng(seq_eps)
    rng_plan = np.random.default_rng(seq_plan)
    rng_batch = np.random.default_rng(seq_batch)
    plan = SamplingPlan(negatives_per_node=hp.negatives_per_node, excluded_pairs=excluded)
    static_plan = hp.negatives_per_node is None and hp.batch_size is None
    terms = fixed = None
    if static_plan:
        terms = realize_plan(ev, part, plan)
    elif hp.batch_size is None:
        # only the draw depends on the epoch's seed
        fixed = fixed_terms(ev, part, plan)

    opt = Adam(state.mu.shape, state.log_sigma.shape, hp.lr_phi, hp.lr_beta)
    trace = np.empty(hp.epochs)
    for epoch in range(hp.epochs):
        if not static_plan:
            if hp.batch_size is not None:
                # the batch sets the weights, so the fixed part changes too
                size = min(hp.batch_size, n)
                batch = tuple(sorted(rng_batch.choice(n, size=size, replace=False).tolist()))
                fixed = fixed_terms(ev, part, replace(plan, node_batch=batch))
            terms = draw_terms(fixed, int(rng_plan.integers(2**63)))

        loss = 0.0
        nll = kl = 0.0
        d_mu = np.zeros_like(state.mu)
        d_ls = np.zeros_like(state.log_sigma)
        d_beta = 0.0
        for _ in range(hp.mc_samples):
            eps = rng_eps.standard_normal(state.mu.shape)
            out = _elbo_value_grad(state, ev, part, pc, hp.rate_model, terms, eps, want_grad=True)
            loss += out[0]
            nll += out[1]
            kl += out[2]
            d_mu += out[3]
            d_ls += out[4]
            d_beta += out[5]
        inv = 1.0 / hp.mc_samples
        loss *= inv
        if not np.isfinite(loss):
            raise FitDivergedError(epoch, nll * inv, kl * inv)
        opt.step(state, d_mu * inv, d_ls * inv, d_beta * inv)
        trace[epoch] = loss

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
    disagree or a value of mu, log_sigma or beta is not finite.

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
    if len(doc["node_labels"]) != n:
        raise ValueError(f"node_labels has {len(doc['node_labels'])} entries, expected n = {n}")
    state = VariationalState(mu=mu, log_sigma=log_sigma, beta=beta)
    hp = Hyperparams(**doc["hyperparams"])
    if (hp.K, hp.d) != (K, d):
        raise ValueError(f"hyperparams has (K, d) = {(hp.K, hp.d)} but the arrays have {(K, d)}")
    return FittedModel(
        state=state,
        hyper=hp,
        part=part,
        loss_trace=np.empty(0),
        node_labels=list(doc["node_labels"]),
        time_range=tuple(doc["time_range"]) if doc["time_range"] else None,
        directed=bool(doc["directed"]),
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
