"""train_lm's per-training Jacobian buffer, and residual_jacobian's ``out``.

Each training allocates one C-contiguous float64 (n, P) array and passes it
as ``out`` to all of its ``residual_jacobian`` calls; no buffer outlives a
training or is shared between trainings. Results must equal those of
``reference_train_lm``, which allocates a new J for every step.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import gaselect.mlp as mlp_mod
from gaselect.mlp import TrainConfig, train_lm
from tests.test_lm_core import _sine, init_weights, reference_train_lm


def assert_same_model(got, want):
    assert np.array_equal(got.params.w1, want.params.w1)
    assert np.array_equal(got.params.w2, want.params.w2)
    assert got.train_sse == want.train_sse
    assert got.iterations_used == want.iterations_used
    assert got.converged == want.converged


class OutSpy:
    """Wraps residual_jacobian, recording each call's thread and ``out``."""

    def __init__(self):
        self.outs = []  # (thread ident, out); holding out keeps its buffer alive
        self._original = mlp_mod.residual_jacobian

    def __call__(self, p, X, y, **kwargs):
        out = kwargs.get("out")
        self.outs.append((threading.get_ident(), out))
        r, J = self._original(p, X, y, **kwargs)
        # hand back a copy and spoil the buffer: train_lm must use the J it
        # gets back, not the one it passed
        r, J = r.copy(), J.copy()
        if out is not None:
            out.fill(np.nan)
        return r, J


# (n, d, h): P = h * (d + 1) + h + 1
LARGE, SMALL = (300, 6, 4), (40, 2, 2)


def _train(shape, seed, max_iterations=15, train=train_lm):
    n, d, h = shape
    X, y = _sine(n, d, seed)
    return train(X, y, TrainConfig(h, max_iterations), weight_seed=seed)


def _n_params(shape):
    _, d, h = shape
    return h * (d + 2) + 1


def _trainings(outs):
    """The spied ``out`` arrays grouped by training: a training's first call
    is the one whose ``out`` is a new array."""
    groups = []
    for out in outs:
        if groups and out is groups[-1][0]:
            groups[-1].append(out)
        else:
            groups.append([out])
    return groups


def test_one_buffer_across_shapes_on_one_thread(monkeypatch):
    spy = OutSpy()
    monkeypatch.setattr(mlp_mod, "residual_jacobian", spy)
    shapes = [LARGE, SMALL, LARGE]
    got = [_train(s, seed) for seed, s in enumerate(shapes)]

    trainings = _trainings([out for _, out in spy.outs])
    assert len(trainings) == len(shapes)
    for shape, outs in zip(shapes, trainings):
        assert len(outs) >= 2  # the start and an accepted step
        out = outs[0]
        assert out.shape == (shape[0], _n_params(shape))
        assert out.flags.c_contiguous and out.dtype == np.float64
    firsts = [outs[0] for outs in trainings]
    for i, a in enumerate(firsts):
        for b in firsts[i + 1:]:
            assert not np.shares_memory(a, b)

    for seed, shape in enumerate(shapes):
        assert_same_model(got[seed], _train(shape, seed, train=reference_train_lm))


def test_threads_never_share_a_buffer(monkeypatch):
    jobs = [(LARGE if seed % 3 else SMALL, seed) for seed in range(12)]
    serial = [_train(*job, max_iterations=10) for job in jobs]
    spy = OutSpy()
    monkeypatch.setattr(mlp_mod, "residual_jacobian", spy)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        # more workers than cores, so the trainings interleave
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(_train, *job, max_iterations=10) for job in jobs]
            threaded = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)

    for got, want in zip(threaded, serial):
        assert_same_model(got, want)
    assert len({ident for ident, _ in spy.outs}) >= 2
    for ident_a, out_a in spy.outs:
        for ident_b, out_b in spy.outs:
            if ident_a != ident_b:
                assert not np.shares_memory(out_a, out_b)


def test_workspace_never_leaves_train_lm(monkeypatch):
    spy = OutSpy()
    monkeypatch.setattr(mlp_mod, "residual_jacobian", spy)
    X, y = _sine(50, 3, seed=2)
    model = train_lm(X, y, TrainConfig(hidden_units=3), weight_seed=2)
    assert spy.outs
    for _, out in spy.outs:
        for field in (model.params.w1, model.params.w2):
            assert not np.shares_memory(field, out)


@pytest.mark.parametrize("n", [1, 40])
def test_jacobian_into_out_is_out(n):
    p = init_weights(3, 2, seed=n)
    rng = np.random.default_rng(n)
    X, y = rng.normal(size=(n, 3)), rng.normal(size=n)
    r_new, J_new = mlp_mod.residual_jacobian(p, X, y)
    buf = np.full((n, p.n_params), np.nan)
    r_out, J_out = mlp_mod.residual_jacobian(p, X, y, out=buf)
    assert J_out is buf
    assert np.array_equal(J_out, J_new) and np.array_equal(r_out, r_new)


# (n, P) -> an out array residual_jacobian must refuse
UNFIT_OUTS = [
    lambda n, P: np.empty((n, P + 1)),
    lambda n, P: np.empty((n, P), order="F"),
    lambda n, P: np.empty((n, P), dtype=np.float32),
    lambda n, P: np.empty((n, 2 * P))[:, ::2],
]
UNFIT_OUT_IDS = ["shape", "fortran", "float32", "strided"]


@pytest.mark.parametrize("make", UNFIT_OUTS, ids=UNFIT_OUT_IDS)
def test_jacobian_rejects_unfit_out(make):
    p = init_weights(3, 2, seed=0)
    X, y = np.ones((5, 3)), np.zeros(5)
    with pytest.raises(ValueError, match="out must be a C-contiguous float64"):
        mlp_mod.residual_jacobian(p, X, y, out=make(5, p.n_params))


def _forward(p, X, y):
    """The forward pass a trainer hands residual_jacobian, as (Xb, A, r)."""
    Xb = np.hstack([X, np.ones((X.shape[0], 1))])
    A = np.tanh(Xb @ p.w1.T)
    return Xb, A, A @ p.w2[:-1] + p.w2[-1] - y


@pytest.mark.parametrize("n, d, h", [(1, 3, 2), (40, 3, 2), (200, 6, 2), (57, 12, 5)])
def test_jacobian_from_forward_matches_recomputed(n, d, h):
    p = init_weights(d, h, seed=n)
    rng = np.random.default_rng(n)
    X, y = rng.normal(size=(n, d)), rng.normal(size=n)
    r_want, J_want = mlp_mod.residual_jacobian(p, X, y)
    buf = np.full((n, p.n_params), np.nan)
    r, J = mlp_mod.residual_jacobian(p, X, y, forward=_forward(p, X, y), out=buf)
    assert J is buf
    assert np.array_equal(r, r_want) and np.array_equal(J, J_want)


@pytest.mark.parametrize("make", UNFIT_OUTS, ids=UNFIT_OUT_IDS)
def test_jacobian_from_forward_rejects_unfit_out(make):
    p = init_weights(3, 2, seed=0)
    X, y = np.ones((5, 3)), np.zeros(5)
    with pytest.raises(ValueError, match="out must be a C-contiguous float64"):
        mlp_mod.residual_jacobian(
            p, X, y, forward=_forward(p, X, y), out=make(5, p.n_params)
        )
