"""Dense one-hidden-layer networks with exact derivatives.

A model is a plain dataclass: the hidden weight matrix, the activation,
a fixed read-out vector and an optional output wrap. Every operation
that differentiates takes the flat parameter vector explicitly, so
optimizers can move through parameter space without rebuilding models.
Gradients and Hessian-vector products are exact (reverse mode, and
forward-over-reverse for curvature), which is what makes the flatness
measurements downstream trustworthy: wide networks are expected to look
nearly linear around a random init, and that effect is quantified here
by spectral curvature norms, gradient norms, and tangent-kernel drift
over a parameter ball.

hessian_norm gives the curvature norm in closed form. The tests check it
against the general method: the spectral norm of the dense Hessian,
built one column per hvp.
"""

from dataclasses import dataclass

import numpy as np

from . import numlin
from .errors import InvalidSpec, ShapeMismatch
from .rng import substream

ACTIVATIONS = ("identity", "tanh", "softplus")
OUTPUT_WRAPS = ("none", "softplus")


def _identity(z):
    return np.asarray(z, dtype=float)


def _identity_d(z):
    return np.ones_like(np.asarray(z, dtype=float))


def _identity_dd(z):
    return np.zeros_like(np.asarray(z, dtype=float))


def _tanh_d(z):
    t = np.tanh(z)
    return 1.0 - t * t


def _tanh_dd(z):
    t = np.tanh(z)
    return -2.0 * t * (1.0 - t * t)


def _softplus(z):
    return np.logaddexp(0.0, z)


def _softplus_d(z):
    with np.errstate(over="ignore"):    # exp(-z) = inf gives the logistic's limit 0
        return 1.0 / (1.0 + np.exp(-z))


def _softplus_dd(z):
    s = _softplus_d(z)
    return s * (1.0 - s)


_ACT = {
    "identity": (_identity, _identity_d, _identity_dd),
    "tanh": (np.tanh, _tanh_d, _tanh_dd),
    "softplus": (_softplus, _softplus_d, _softplus_dd),
}

_WRAP = {"none": _ACT["identity"], "softplus": _ACT["softplus"]}


@dataclass(frozen=True)
class MLPModel:
    """One hidden layer, then a fixed scalar linear read-out.

    W (width x input_dim) holds the trainable parameters; out_weights is
    the read-out vector, which stays fixed, and the read-out is divided
    by sqrt(width). output_wrap optionally passes the scalar output
    through a smooth nonlinearity, which is the standard way to destroy
    the width-induced flatness without touching anything else.
    """

    W: np.ndarray
    activation: str
    out_weights: np.ndarray
    output_wrap: str = "none"

    @property
    def input_dim(self) -> int:
        return int(self.W.shape[1])

    @property
    def scale(self) -> float:
        return 1.0 / np.sqrt(float(self.W.shape[0]))


def init_mlp(input_dim: int, width: int, activation: str, seed: int,
             output_wrap: str = "none") -> MLPModel:
    """Standard-normal hidden weights and a read-out of random signs."""
    input_dim, width = int(input_dim), int(width)
    if input_dim < 1 or width < 1:
        raise InvalidSpec(f"input dim and width must be at least 1, got "
                          f"{input_dim} and {width}")
    if activation not in _ACT:
        raise InvalidSpec(f"unknown activation {activation!r}")
    if output_wrap not in _WRAP:
        raise InvalidSpec(f"unknown output wrap {output_wrap!r}")
    W = substream(seed, "mlp-init", 1).standard_normal((width, input_dim))
    v = substream(seed, "mlp-out").choice(np.array([-1.0, 1.0]), size=width)
    return MLPModel(W=W, activation=activation, out_weights=v, output_wrap=output_wrap)


def param_count(model: MLPModel) -> int:
    return model.W.size


def flatten_params(model: MLPModel) -> np.ndarray:
    """The hidden weights, row-major, as a fresh vector."""
    return model.W.flatten()


def _unflatten(model: MLPModel, w) -> np.ndarray:
    """The weight matrix at flat vector w; w=None gives the stored point."""
    if w is None:
        return model.W
    w = np.asarray(w, dtype=float)
    if w.shape != (model.W.size,):
        raise ShapeMismatch(
            f"parameter vector has shape {w.shape}, expected ({model.W.size},)")
    return w.reshape(model.W.shape)


def _as_batch(model: MLPModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ShapeMismatch(f"inputs {X.shape} do not match input dim {model.input_dim}")
    if not np.all(np.isfinite(X)):
        raise InvalidSpec("inputs must be finite")
    return X


def _as_point(model: MLPModel, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (model.input_dim,):
        raise ShapeMismatch(f"input {x.shape} does not match input dim {model.input_dim}")
    return x


def forward_batch(model: MLPModel, w, X) -> np.ndarray:
    """Scalar outputs at every row of X; w=None evaluates the stored point."""
    W = _unflatten(model, w)
    X = _as_batch(model, X)
    s = model.scale * (_ACT[model.activation][0](X @ W.T) @ model.out_weights)
    return _WRAP[model.output_wrap][0](s)


def jacobian(model: MLPModel, w, X) -> np.ndarray:
    """Per-row gradient of the scalar output, one flat row per input."""
    W = _unflatten(model, w)
    X = _as_batch(model, X)
    act, actd, _ = _ACT[model.activation]
    Z = X @ W.T
    s = model.scale * (act(Z) @ model.out_weights)
    wrapd = _WRAP[model.output_wrap][1](s)
    E = wrapd[:, None] * (model.scale * model.out_weights)[None, :]
    return np.einsum("ni,nj->nij", E * actd(Z), X).reshape(X.shape[0], -1)


def grad(model: MLPModel, w, x) -> np.ndarray:
    """Exact gradient of the scalar output in the trainable parameters."""
    return jacobian(model, w, _as_point(model, x)[None, :])[0]


def hvp(model: MLPModel, w, x, vec) -> np.ndarray:
    """Exact Hessian-vector product at one input.

    The forward tangent zdot = U x (U the direction vec as a matrix)
    rides along the evaluation, then the backward pass d = e act'(z),
    e = g'(s) c v, is differentiated in the tangent direction; cost is a
    small constant times one gradient.
    """
    W, U, v = _unflatten(model, w), _unflatten(model, vec), model.out_weights
    x = _as_point(model, x)
    act, actd, actdd = _ACT[model.activation]
    wrap_d, wrap_dd = _WRAP[model.output_wrap][1], _WRAP[model.output_wrap][2]
    c = model.scale
    z = W @ x
    zdot = U @ x
    s = c * float(v @ act(z))
    sdot = c * float(v @ (actd(z) * zdot))
    e = float(wrap_d(s)) * c * v
    edot = float(wrap_dd(s)) * sdot * c * v
    ddot = edot * actd(z) + e * actdd(z) * zdot
    return np.outer(ddot, x).ravel()


def _diag_rank_one_extremes(d, u, rho: float):
    """Smallest and largest eigenvalue of diag(d) + rho u u^T, rho >= 0.

    Both lie in [min d, max d + rho |u|^2]. Each is found by bisecting on
    the count of eigenvalues below lambda, which the inertia of the
    bordered matrix [[diag(d) - lambda, u], [u^T, -1/rho]] gives as
    #(d_k < lambda) + [1 + rho sum u_k^2 / (d_k - lambda) > 0] - 1, exact
    for tied d and zero u alike. 64 halvings reach full precision.
    """
    u2 = u * u
    lo = np.full(2, d.min())
    hi = np.full(2, d.max() + rho * u2.sum())
    for _ in range(64):
        lam = 0.5 * (lo + hi)
        gap = d[None, :] - lam[:, None]
        # a pole d_k = lambda counts as its left limit: +inf, or 0 if u_k = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            secular = 1.0 + rho * np.where(u2 > 0.0, u2 / gap, 0.0).sum(axis=1)
        above = np.sum(gap < 0.0, axis=1) + (secular > 0.0) - 1 > [0, d.size - 1]
        lo, hi = np.where(above, lo, lam), np.where(above, lam, hi)
    return float(lo[0]), float(hi[1])


def hessian_norm(model: MLPModel, w, x) -> float:
    """Exact spectral norm of the output Hessian, in closed form.

    The Hessian is A kron x x^T with A = g'(s) c diag(v act''(z)) +
    g''(s) c^2 u u^T, u = v act'(z), z = W x and g the output wrap, so the
    norm is |x|^2 max |eig(A)|: a maximum over the diagonal for a plain
    output, and a diagonal-plus-rank-one bisection with the wrap. O(m).
    """
    W, v = _unflatten(model, w), model.out_weights
    x = _as_point(model, x)
    act, actd, actdd = _ACT[model.activation]
    _, wrap_d, wrap_dd = _WRAP[model.output_wrap]
    c = model.scale
    z = W @ x
    s = c * float(v @ act(z))
    d = float(wrap_d(s)) * c * v * actdd(z)
    rho = float(wrap_dd(s)) * c * c
    if rho == 0.0:
        return float(x @ x) * float(np.max(np.abs(d)))
    lo, hi = _diag_rank_one_extremes(d, v * actd(z), rho)
    return float(x @ x) * max(abs(lo), abs(hi))


def tangent_kernel(model: MLPModel, w, X) -> np.ndarray:
    """Gram matrix of parameter gradients across the rows of X."""
    G = jacobian(model, w, X)
    K = G @ G.T
    return 0.5 * (K + K.T)


# --- transition-to-linearity scan ---

@dataclass(frozen=True)
class LinearityReport:
    widths: np.ndarray
    grad_norms: np.ndarray   # at the init point
    hess_norms: np.ndarray   # max over ball probes
    ntk_drifts: np.ndarray   # max over ball probes, relative spectral change
    hess_slope: float        # log-log fit against width
    grad_slope: float
    drift_slope: float


def _loglog_slope(widths, values) -> float:
    values = np.asarray(values, dtype=float)
    if np.any(values <= 0.0):
        return float("nan")
    x = np.log(np.asarray(widths, dtype=float))
    return float(np.polyfit(x, np.log(values), 1)[0])


def linearity_scan(input_dim: int, activation: str, output_wrap: str, width_grid,
                   ball_radius: float = 1.0, probes: int = 32, seed: int = 0,
                   kernel_points: int = 8) -> LinearityReport:
    """Measure how flat the one-hidden-layer family gets as the width grows.

    Per width: a standard-normal init w0, then `probes` points drawn
    uniformly on the sphere of radius ball_radius around w0. Records the
    largest curvature norm seen over those points, the gradient norm at
    w0, and the worst relative tangent-kernel drift between w0 and a
    probe; fits log-log slopes of each against the width. Curvature and
    gradient are probed at the first scan input; the curvature of every
    probe is the exact hessian_norm, so the report is deterministic.
    """
    widths = np.asarray(sorted(set(int(m) for m in np.asarray(width_grid).ravel())))
    if widths.size < 2 or widths[0] < 1:
        raise InvalidSpec("need at least two positive widths")
    if not 0.0 < ball_radius < np.inf or probes < 1:
        raise InvalidSpec("ball_radius must be positive and finite, and probes "
                          "at least 1")
    if kernel_points < 1 or input_dim < 1:
        raise InvalidSpec("kernel_points and input_dim must be at least 1")
    X = substream(seed, "scan-inputs", input_dim).standard_normal(
        (kernel_points, input_dim))
    x = X[0]
    gnorms, hnorms, drifts = [], [], []
    for m in widths:
        model = init_mlp(input_dim, m, activation, seed, output_wrap=output_wrap)
        w0 = flatten_params(model)
        gnorms.append(float(np.linalg.norm(grad(model, w0, x))))
        K0 = tangent_kernel(model, w0, X)
        K0_norm = numlin.spectral_norm(K0)
        ball = substream(seed, "scan-ball", int(m))
        worst_h, worst_drift = 0.0, 0.0
        for _ in range(probes):
            u = ball.standard_normal(w0.size)
            wp = w0 + ball_radius * (u / np.linalg.norm(u))
            worst_h = max(worst_h, hessian_norm(model, wp, x))
            drift = numlin.spectral_norm(tangent_kernel(model, wp, X) - K0) / K0_norm
            worst_drift = max(worst_drift, drift)
        hnorms.append(worst_h)
        drifts.append(worst_drift)
    return LinearityReport(
        widths=widths,
        grad_norms=np.array(gnorms),
        hess_norms=np.array(hnorms),
        ntk_drifts=np.array(drifts),
        hess_slope=_loglog_slope(widths, hnorms),
        grad_slope=_loglog_slope(widths, gnorms),
        drift_slope=_loglog_slope(widths, drifts),
    )

