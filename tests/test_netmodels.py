"""Exact derivatives, curvature norms, and the width-flatness scan."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from interplab import netmodels as nm, numlin
from interplab.errors import InvalidSpec, ShapeMismatch
from interplab.rng import substream

from oracles import hessian


def _scalar_act(name, z):
    if name == "identity":
        return z
    if name == "tanh":
        return math.tanh(z)
    return math.log1p(math.exp(-abs(z))) + max(z, 0.0)  # stable softplus


def _straight_line_eval(model, x):
    # deliberately dumb reference: explicit loops, no shared code paths
    z = []
    for i in range(model.W.shape[0]):
        acc = 0.0
        for j in range(model.W.shape[1]):
            acc += model.W[i, j] * float(x[j])
        z.append(acc)
    a = [_scalar_act(model.activation, t) for t in z]
    s = model.scale * sum(v * t for v, t in zip(model.out_weights, a))
    if model.output_wrap == "softplus":
        return _scalar_act("softplus", s)
    return s


def _forward(model, w, x):
    """The scalar output at one input, as forward_batch gives it for one row."""
    return nm.forward_batch(model, w, np.asarray(x)[None, :])[0]


_MATRIX = [
    dict(input_dim=2, width=7, activation="tanh"),
    dict(input_dim=3, width=5, activation="softplus", output_wrap="softplus"),
    dict(input_dim=2, width=4, activation="identity"),
    dict(input_dim=1, width=6, activation="tanh", output_wrap="softplus"),
]


# --- forward ---

def test_identity_one_layer_collapses_to_matrix_product():
    model = nm.init_mlp(3, 8, "identity", seed=0)
    x = np.array([0.2, -1.0, 0.7])
    want = (model.out_weights @ (model.W @ x)) / math.sqrt(8.0)
    assert abs(_forward(model, None, x) - want) < 1e-14


def test_zero_weights_tanh_gives_zero():
    model = nm.init_mlp(2, 5, "tanh", seed=1)
    w = np.zeros(nm.param_count(model))
    assert _forward(model, w, np.array([3.0, -2.0])) == 0.0


def test_forward_matches_straight_line_evaluator():
    for cfg in _MATRIX:
        model = nm.init_mlp(seed=7, **cfg)
        rng = substream(8, "fwd-ref", cfg["input_dim"])
        for _ in range(3):
            x = rng.standard_normal(model.input_dim)
            assert abs(_forward(model, None, x) - _straight_line_eval(model, x)) < 1e-12


def test_forward_batch_matches_pointwise():
    model = nm.init_mlp(2, 6, "softplus", seed=2)
    X = substream(3, "fwd-batch").standard_normal((5, 2))
    out = nm.forward_batch(model, None, X)
    for i in range(5):
        assert abs(out[i] - _forward(model, None, X[i])) < 1e-14


def test_shape_errors():
    model = nm.init_mlp(2, 4, "tanh", seed=0)
    with pytest.raises(ShapeMismatch):
        _forward(model, None, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ShapeMismatch):
        _forward(model, np.zeros(3), np.array([1.0, 2.0]))
    with pytest.raises(InvalidSpec):
        nm.init_mlp(2, 0, "tanh", seed=0)
    with pytest.raises(InvalidSpec):
        nm.init_mlp(0, 4, "tanh", seed=0)
    with pytest.raises(InvalidSpec):
        nm.init_mlp(2, 4, "relu", seed=0)
    with pytest.raises(InvalidSpec):
        nm.init_mlp(2, 4, "tanh", seed=0, output_wrap="relu")


# --- parameter vector layout ---

def test_flatten_round_trip():
    for cfg in _MATRIX:
        model = nm.init_mlp(seed=11, **cfg)
        w = nm.flatten_params(model)
        assert w.shape == (nm.param_count(model),)
        rebuilt = dataclasses.replace(model, W=nm._unflatten(model, w))
        assert np.array_equal(rebuilt.W, model.W)
        assert np.array_equal(rebuilt.out_weights, model.out_weights)
        w2 = substream(12, "flat").standard_normal(w.size)
        moved = dataclasses.replace(model, W=nm._unflatten(model, w2))
        assert np.array_equal(nm.flatten_params(moved), w2)
        # the flat vector is a copy: writing to it leaves the model alone
        before = model.W.copy()
        nm.flatten_params(model)[:] = 0.0
        assert np.array_equal(model.W, before)


def test_init_draws_its_named_streams():
    # loss-compare's init_hash and the linearity CSVs rest on these draws
    for d, m, act, seed in ((1, 6, "tanh", 0), (3, 5, "softplus", 17), (8, 64, "tanh", 123)):
        model = nm.init_mlp(d, m, act, seed)
        assert np.array_equal(model.W, substream(seed, "mlp-init", 1).standard_normal((m, d)))
        signs = substream(seed, "mlp-out").choice(np.array([-1.0, 1.0]), size=m)
        assert np.array_equal(model.out_weights, signs)


def test_fixed_readout_not_in_param_vector():
    model = nm.init_mlp(2, 5, "tanh", seed=4)
    assert nm.param_count(model) == 10


# --- gradients ---

def test_linear_model_gradient_is_input():
    model = nm.MLPModel(W=np.zeros((1, 3)), activation="identity",
                        out_weights=np.array([1.0]))
    x = np.array([0.4, -2.0, 1.1])
    g = nm.grad(model, np.zeros(3), x)
    assert np.allclose(g, x, atol=1e-15)


def test_two_layer_gradient_closed_form():
    m = 40
    model = nm.init_mlp(1, m, "tanh", seed=5)
    w = nm.flatten_params(model)
    x = np.array([0.9])
    g = nm.grad(model, w, x)
    t = np.tanh(w * x[0])
    want = (1.0 / math.sqrt(m)) * model.out_weights * x[0] * (1.0 - t * t)
    assert np.abs(g - want).max() < 1e-14
    norm_want = math.sqrt(np.mean(x[0] ** 2 * (1.0 - t * t) ** 2))
    assert abs(np.linalg.norm(g) - norm_want) < 1e-12


def test_gradient_matches_finite_differences():
    h = 1e-5
    for cfg in _MATRIX:
        model = nm.init_mlp(seed=13, **cfg)
        w = nm.flatten_params(model)
        x = substream(14, "fd-x", cfg["input_dim"]).standard_normal(model.input_dim)
        g = nm.grad(model, w, x)
        for j in range(w.size):
            e = np.zeros_like(w)
            e[j] = h
            fd = (_forward(model, w + e, x) - _forward(model, w - e, x)) / (2 * h)
            assert abs(fd - g[j]) <= 1e-6 * (1.0 + abs(g[j]))


def test_jacobian_rows_are_gradients():
    model = nm.init_mlp(2, 5, "softplus", seed=6)
    w = nm.flatten_params(model)
    X = substream(15, "jac").standard_normal((4, 2))
    G = nm.jacobian(model, w, X)
    assert G.shape == (4, nm.param_count(model))
    for i in range(4):
        assert np.abs(G[i] - nm.grad(model, w, X[i])).max() < 1e-13


# --- Hessians ---

def test_hessian_matches_fd_of_gradient():
    h = 1e-5
    for cfg in _MATRIX:
        model = nm.init_mlp(seed=16, **cfg)
        w = nm.flatten_params(model)
        x = substream(17, "fd2-x", cfg["input_dim"]).standard_normal(model.input_dim)
        H = hessian(model, w, x)
        assert np.abs(H - H.T).max() < 1e-12
        rng = substream(18, "fd2-dir", cfg["input_dim"])
        for _ in range(3):
            u = rng.standard_normal(w.size)
            fd = (nm.grad(model, w + h * u, x) - nm.grad(model, w - h * u, x)) / (2 * h)
            hv = H @ u
            assert np.abs(hv - fd).max() <= 1e-5 * (1.0 + np.abs(fd).max())


def test_hvp_matches_dense_hessian():
    model = nm.init_mlp(2, 6, "tanh", seed=19, output_wrap="softplus")
    w = nm.flatten_params(model)
    x = np.array([0.5, -0.3])
    H = hessian(model, w, x)
    rng = substream(20, "hvp-dir")
    for _ in range(4):
        u = rng.standard_normal(w.size)
        assert np.abs(nm.hvp(model, w, x, u) - H @ u).max() < 1e-10


def test_two_layer_fixed_readout_hessian_is_diagonal():
    m = 30
    model = nm.init_mlp(1, m, "tanh", seed=21)
    w = nm.flatten_params(model)
    x = np.array([1.2])
    H = hessian(model, w, x)
    off = H - np.diag(np.diag(H))
    assert np.abs(off).max() <= 1e-12
    t = np.tanh(w * x[0])
    want = (1.0 / math.sqrt(m)) * model.out_weights * x[0] ** 2 * (-2 * t * (1 - t * t))
    assert np.abs(np.diag(H) - want).max() < 1e-14


def test_two_layer_tanh_zero_point_has_zero_hessian():
    model = nm.init_mlp(1, 12, "tanh", seed=22)
    H = hessian(model, np.zeros(12), np.array([0.8]))
    assert np.abs(H).max() == 0.0


def test_curvature_norm_matches_closed_form():
    m = 500
    model = nm.init_mlp(1, m, "tanh", seed=24)
    w = nm.flatten_params(model)
    x = np.array([1.3])
    t = np.tanh(w * x[0])
    closed = np.max(np.abs((1.0 / math.sqrt(m)) * model.out_weights
                           * x[0] ** 2 * (-2 * t * (1 - t * t))))
    assert abs(nm.hessian_norm(model, w, x) - closed) <= 1e-8 * closed
    dense = numlin.spectral_norm(hessian(model, w, x))
    assert abs(dense - closed) <= 1e-8 * closed


def test_hessian_norm_matches_dense_oracle():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for trial in range(120):
            rng = substream(40, "hn-oracle", trial)
            activation = nm.ACTIVATIONS[trial % 3]
            wrap = nm.OUTPUT_WRAPS[(trial // 3) % 2]
            m, d = int(rng.integers(1, 41)), int(rng.integers(1, 5))
            model = nm.init_mlp(d, m, activation, seed=trial, output_wrap=wrap)
            w = nm.flatten_params(model) + rng.uniform(0.0, 2.0) * rng.standard_normal(m * d)
            x = rng.standard_normal(d)
            got = nm.hessian_norm(model, w, x)
            want = numlin.spectral_norm(hessian(model, w, x))
            assert abs(got - want) <= 1e-12 * want, (activation, wrap, m, d)


def test_diag_rank_one_extremes_match_eigvalsh():
    rng = substream(41, "dpr1")
    d = np.repeat(rng.standard_normal(250), 2)   # every diagonal entry tied
    u = rng.standard_normal(500)
    u[::7] = 0.0
    for rho in (0.3, 1e-6, 50.0):
        want = np.linalg.eigvalsh(np.diag(d) + rho * np.outer(u, u))
        lo, hi = nm._diag_rank_one_extremes(d, u, rho)
        scale = np.abs(want).max()
        assert abs(lo - want[0]) <= 1e-12 * scale
        assert abs(hi - want[-1]) <= 1e-12 * scale
    # lambda lands on the poles: all of d equal, and the same with u = 0 there
    assert nm._diag_rank_one_extremes(np.zeros(5), np.ones(5), 1.0) == (0.0, 5.0)
    assert nm._diag_rank_one_extremes(np.ones(3), np.array([0.0, 1.0, 0.0]),
                                      2.0) == (1.0, 3.0)


# --- tangent kernel ---

def test_tangent_kernel_diagonal_and_psd():
    model = nm.init_mlp(3, 7, "tanh", seed=25)
    w = nm.flatten_params(model)
    X = substream(26, "tk").standard_normal((6, 3))
    K = nm.tangent_kernel(model, w, X)
    assert np.allclose(K, K.T, atol=1e-14)
    for i in range(6):
        assert abs(K[i, i] - np.linalg.norm(nm.grad(model, w, X[i])) ** 2) < 1e-12
    vals = np.linalg.eigvalsh(K)
    assert vals.min() >= -1e-8 * max(vals.max(), 1e-30)


def test_linear_model_kernel_is_input_gram():
    model = nm.MLPModel(W=np.zeros((1, 2)), activation="identity",
                        out_weights=np.array([1.0]))
    X = substream(27, "tk-lin").standard_normal((5, 2))
    K = nm.tangent_kernel(model, np.array([0.3, -0.8]), X)
    assert np.abs(K - X @ X.T).max() < 1e-14


def test_two_layer_identity_kernel_reduces_to_products():
    # random signs square to one, so K(x, z) = x z exactly at every w
    m = 9
    model = nm.init_mlp(1, m, "identity", seed=28)
    X = np.array([[0.5], [-1.5], [2.0]])
    for trial in range(2):
        w = substream(29, "tk-id", trial).standard_normal(m)
        K = nm.tangent_kernel(model, w, X)
        assert np.abs(K - X @ X.T).max() < 1e-14


# --- flatness scan ---

def test_scan_identity_family_is_exactly_linear():
    rep = nm.linearity_scan(1, "identity", "none", [16, 32], probes=3, seed=2)
    assert np.all(rep.hess_norms == 0.0)
    assert np.all(rep.ntk_drifts == 0.0)
    assert math.isnan(rep.hess_slope)


def test_scan_report_shape_and_csv():
    rep = nm.linearity_scan(1, "tanh", "none", [16, 32, 64], probes=2, seed=3,
                            kernel_points=4)
    assert list(rep.widths) == [16, 32, 64]
    assert np.all(rep.hess_norms > 0) and np.all(rep.grad_norms > 0)
    assert np.all(rep.ntk_drifts >= 0)


def test_scan_curvature_falls_and_gradient_does_not():
    grid = [32, 64, 128, 256, 512]
    rep = nm.linearity_scan(1, "tanh", "none", grid, probes=6, seed=4)
    assert rep.hess_norms[-1] < rep.hess_norms[0]
    assert -0.75 < rep.hess_slope < -0.25
    assert -0.2 < rep.grad_slope < 0.2
    # kernel drift over the unit ball shrinks along with the curvature
    assert rep.ntk_drifts[-1] < rep.ntk_drifts[0]


def test_scan_wrapped_output_keeps_curvature():
    grid = [32, 64, 128, 256, 512]
    rep = nm.linearity_scan(1, "tanh", "softplus", grid, probes=6, seed=4)
    assert -0.2 < rep.hess_slope < 0.2


def test_wrap_decomposition_of_hessian():
    # wrapped curvature splits into a scaled plain term plus a gradient
    # outer product; the wrapped Hessian is computed in one pass, so this
    # is a genuine cross-check
    model = nm.init_mlp(2, 20, "tanh", seed=30)
    wrapped = nm.init_mlp(2, 20, "tanh", seed=30, output_wrap="softplus")
    assert np.array_equal(model.W, wrapped.W)
    w = nm.flatten_params(model)
    x = np.array([0.7, -0.4])
    s = _forward(model, w, x)
    g = nm.grad(model, w, x)
    H = hessian(model, w, x)
    Hg = hessian(wrapped, w, x)
    sig = 1.0 / (1.0 + math.exp(-s))
    want = sig * H + sig * (1.0 - sig) * np.outer(g, g)
    denom = max(np.abs(Hg).max(), 1e-30)
    assert np.abs(Hg - want).max() <= 1e-6 * denom


def test_scan_input_validation():
    with pytest.raises(InvalidSpec):
        nm.linearity_scan(1, "tanh", "none", [32], seed=0)
    with pytest.raises(InvalidSpec):
        nm.linearity_scan(1, "tanh", "none", [16, 32], ball_radius=0.0, seed=0)
    with pytest.raises(InvalidSpec):
        nm.linearity_scan(1, "tanh", "none", [16, 32], probes=0, seed=0)
    with pytest.raises(InvalidSpec):
        nm.linearity_scan(0, "tanh", "none", [16, 32], seed=0)
