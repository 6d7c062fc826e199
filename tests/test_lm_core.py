"""The lean Levenberg-Marquardt loop against the straightforward one it replaced.

``reference_train_lm`` is the earlier ``train_lm`` loop, kept as it was but
for reading the damping schedule and tolerance from the ``gaselect.mlp``
constants, as ``train_lm`` does, and for taking its weights from this file's
``init_weights`` and ``unflatten``: it rebuilds J'J and J'r on every iteration,
validates an ``MlpParams`` for every candidate and calls
``scipy.linalg.cho_factor``/``cho_solve`` with their input checks.
``gaselect.mlp.train_lm`` does the same arithmetic with less work, so its
results must be equal bit for bit on any machine; pinned hashes of the
weights would depend on the BLAS kernel instead.

The benchmark tracer (bench/spans.py) derives accepted and rejected LM steps
from the call counts of ``gaselect.mlp.cho_factor``, ``cho_solve`` and
``residual_jacobian``; the contract tests pin those counts.
"""

import sys

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import LinAlgError, cho_factor, cho_solve

import gaselect.mlp as mlp_mod
from gaselect.errors import SolveFailure
from gaselect.mlp import (
    MlpParams,
    TrainConfig,
    TrainedModel,
    _initial_theta,
    predict,
    residual_jacobian,
    train_lm,
)


def unflatten(theta, d, h):
    """The checked MlpParams of a flat vector: w1 row-major, then w2."""
    return MlpParams(theta[: h * (d + 1)].reshape(h, d + 1), theta[h * (d + 1):])


def init_weights(d, h, seed):
    """The starting weights train_lm draws for ``seed``, checked."""
    return unflatten(_initial_theta(d, h, seed), d, h)


def reference_train_lm(
    X: np.ndarray, y: np.ndarray, cfg: TrainConfig, weight_seed: int = 0
) -> TrainedModel:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError(f"X must be a nonempty matrix, got shape {X.shape}")
    d, h = X.shape[1], cfg.hidden_units

    theta = _initial_theta(d, h, weight_seed)
    params = unflatten(theta, d, h)
    r, J = residual_jacobian(params, X, y)
    best_sse = float(r @ r)
    lam = mlp_mod.LAMBDA_INIT
    eye = np.eye(theta.size)
    iterations = 0
    converged = best_sse == 0.0

    while not converged and iterations < cfg.max_iterations:
        iterations += 1
        try:
            factor = cho_factor(J.T @ J + lam * eye, lower=True)
        except LinAlgError:
            lam *= mlp_mod.LAMBDA_UP
            if lam > mlp_mod.LAMBDA_MAX:
                raise SolveFailure(
                    f"normal equations singular at lambda={lam:.3g}"
                ) from None
            continue
        delta = cho_solve(factor, -(J.T @ r))
        theta_new = theta + delta
        if not np.isfinite(theta_new).all():
            lam *= mlp_mod.LAMBDA_UP
            if lam > mlp_mod.LAMBDA_MAX:
                break
            continue
        candidate = unflatten(theta_new, d, h)
        r_new = predict(candidate, X) - y
        new_sse = float(r_new @ r_new)

        if np.isfinite(new_sse) and new_sse < best_sse:
            improvement = (best_sse - new_sse) / best_sse
            theta, params = theta_new, candidate
            best_sse = new_sse
            r, J = residual_jacobian(params, X, y)
            lam *= mlp_mod.LAMBDA_DOWN
            if improvement < mlp_mod.TOL_REL or best_sse == 0.0:
                converged = True
        else:
            lam *= mlp_mod.LAMBDA_UP
            if lam > mlp_mod.LAMBDA_MAX:
                break

    return TrainedModel(
        params=params,
        train_sse=best_sse,
        iterations_used=iterations,
        converged=converged,
    )


def _sine(n, d, seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.5, 1.5, size=(n, d))
    return X, np.sin(2 * X[:, 0]) + 0.1 * rng.normal(size=n)


def _representable(n, seed):
    true = MlpParams(
        np.array([[1.2, -0.7, 0.3], [-0.9, 0.5, -0.4]]),
        np.array([0.8, -1.1, 0.2]),
    )
    X = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(n, 2))
    return X, predict(true, X)


# (id, (X, y), config, weight seed, what the reference run must show,
#  gaselect.mlp constants the case overrides)
CASES = [
    ("one_input", _sine(40, 1, 1), TrainConfig(hidden_units=3), 2, None, {}),
    ("ten_inputs", _sine(200, 10, 2), TrainConfig(hidden_units=5), 11, None, {}),
    (
        "params_exceed_rows",
        _sine(5, 3, 3),
        TrainConfig(hidden_units=4),
        0,
        "p_gt_n",
        {},
    ),
    (
        "iteration_cap",
        _sine(60, 4, 4),
        TrainConfig(hidden_units=3, max_iterations=7),
        3,
        "capped",
        {},
    ),
    (
        "tol_rel",
        _sine(80, 2, 5),
        TrainConfig(hidden_units=2),
        1,
        "converged",
        {"TOL_REL": 1e-4},
    ),
    (
        "lambda_max",
        _sine(60, 3, 6),
        TrainConfig(hidden_units=3),
        4,
        "stuck",
        {"LAMBDA_MAX": 1e-1},
    ),
    ("near_zero_sse", _representable(100, 3), TrainConfig(hidden_units=2), 0, None, {}),
]


@pytest.mark.parametrize(
    "data, cfg, seed, shows, constants",
    [c[1:] for c in CASES],
    ids=[c[0] for c in CASES],
)
def test_bit_identical_to_reference(monkeypatch, data, cfg, seed, shows, constants):
    for name, value in constants.items():
        monkeypatch.setattr(mlp_mod, name, value)
    X, y = data
    want = reference_train_lm(X, y, cfg, weight_seed=seed)
    got = train_lm(X, y, cfg, weight_seed=seed)

    assert np.array_equal(got.params.w1, want.params.w1)
    assert np.array_equal(got.params.w2, want.params.w2)
    assert got.train_sse == want.train_sse
    assert got.iterations_used == want.iterations_used
    assert got.converged == want.converged

    # each case exercises the path it is named for
    if shows == "p_gt_n":
        assert want.params.n_params > X.shape[0]
    elif shows == "capped":
        assert want.iterations_used == cfg.max_iterations and not want.converged
    elif shows == "converged":
        assert want.converged and want.train_sse > 0
        assert want.iterations_used < cfg.max_iterations
    elif shows == "stuck":
        assert not want.converged and want.iterations_used < cfg.max_iterations


def test_already_exact_start_takes_no_step():
    cfg = TrainConfig(hidden_units=2)
    X = np.random.default_rng(8).normal(size=(20, 3))
    y = predict(init_weights(3, 2, 9), X)
    got = train_lm(X, y, cfg, weight_seed=9)
    want = reference_train_lm(X, y, cfg, weight_seed=9)
    assert got.iterations_used == want.iterations_used == 0
    assert got.converged and got.train_sse == want.train_sse == 0.0
    assert got.params == want.params


def test_factor_and_solve_match_scipy_bits():
    rng = np.random.default_rng(12)
    for p in (1, 7, 31, 110):
        M = rng.normal(size=(3 * p, p))
        a = M.T @ M + 1e-3 * np.eye(p)
        b = rng.normal(size=p)
        # scipy first: cho_factor factors a Fortran-ordered ``a``, such as
        # the 1x1 one, in place
        want_c, lower = scipy.linalg.cho_factor(a, lower=True)
        c = mlp_mod.cho_factor(a)
        assert lower and np.array_equal(c, want_c)
        assert np.array_equal(
            mlp_mod.cho_solve(c, b), scipy.linalg.cho_solve((want_c, True), b)
        )


def test_normal_matrix_exactly_symmetric():
    # train_lm copies (J'J).T into its Fortran-ordered damping buffer, which
    # gives potrf the same lower triangle only if J'J is exactly symmetric;
    # numpy computes J.T @ J with one syrk call and mirrors the triangle
    rng = np.random.default_rng(13)
    for n, d, h in ((5, 3, 4), (40, 1, 3), (200, 20, 5)):
        p = init_weights(d, h, seed=n)
        _, J = residual_jacobian(p, rng.normal(size=(n, d)), rng.normal(size=n))
        JtJ = J.T @ J
        assert np.array_equal(JtJ, JtJ.T)


def test_factor_rejects_indefinite_matrix():
    with pytest.raises(LinAlgError):
        mlp_mod.cho_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))


class Spy:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self.returned = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        result = self.fn(*args, **kwargs)
        self.returned += 1
        return result


@pytest.mark.parametrize(
    "data, cfg, seed, shows, constants",
    [c[1:] for c in CASES],
    ids=[c[0] for c in CASES],
)
def test_call_counts_the_tracer_reads(monkeypatch, data, cfg, seed, shows, constants):
    for name, value in constants.items():
        monkeypatch.setattr(mlp_mod, name, value)
    X, y = data
    sses = []
    original = residual_jacobian

    def recording_jacobian(p, X, y, **kwargs):
        r, J = original(p, X, y, **kwargs)
        sses.append(float(r @ r))
        return r, J

    factor = Spy(mlp_mod.cho_factor)
    solve = Spy(mlp_mod.cho_solve)
    jacobian = Spy(recording_jacobian)
    monkeypatch.setattr(mlp_mod, "cho_factor", factor)
    monkeypatch.setattr(mlp_mod, "cho_solve", solve)
    monkeypatch.setattr(mlp_mod, "residual_jacobian", jacobian)
    model = train_lm(X, y, cfg, weight_seed=seed)

    # accepted steps are the strictly decreasing SSE steps of the reference
    reference_jacobian = Spy(original)
    monkeypatch.setattr(sys.modules[__name__], "residual_jacobian", reference_jacobian)
    reference_train_lm(X, y, cfg, weight_seed=seed)
    accepted = reference_jacobian.calls - 1

    assert factor.calls == model.iterations_used
    assert solve.calls == factor.returned
    assert jacobian.calls == 1 + accepted
    assert all(b < a for a, b in zip(sses, sses[1:]))
    assert sses[-1] == model.train_sse
    assert 0 <= accepted <= model.iterations_used


def _poisoned_jacobian(poison):
    original = residual_jacobian

    def jacobian(p, X, y, **kwargs):
        r, J = original(p, X, y, **kwargs)
        r, J = r.copy(), J.copy()
        poison(r, J)
        return r, J

    return jacobian


@pytest.mark.parametrize(
    "poison",
    [
        lambda r, J: J.__setitem__((0, 0), np.inf),
        lambda r, J: J.__setitem__((1, -1), np.nan),
        lambda r, J: r.__setitem__(0, np.inf),
    ],
    ids=["inf_in_J", "nan_in_J", "inf_in_r"],
)
@pytest.mark.parametrize(
    "train", [train_lm, reference_train_lm], ids=["lean", "reference"]
)
def test_nonfinite_normal_equations_raise(monkeypatch, poison, train):
    jacobian = _poisoned_jacobian(poison)
    monkeypatch.setattr(mlp_mod, "residual_jacobian", jacobian)
    monkeypatch.setattr(sys.modules[__name__], "residual_jacobian", jacobian)
    X, y = _sine(30, 2, 7)
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        train(X, y, TrainConfig(hidden_units=2), weight_seed=0)


# both loops overflow some SSEs, which numpy 2 reports as a RuntimeWarning
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "train", [train_lm, reference_train_lm], ids=["lean", "reference"]
)
def test_huge_finite_residual_trains_like_reference(monkeypatch, train):
    # r[0] = 1e200 keeps J'r finite, but J's last column is all ones, so
    # J'r holds about 1e200 and its sum of squares overflows: the trainer's
    # finiteness check falls back to the exact test, which passes it
    jacobian = _poisoned_jacobian(lambda r, J: r.__setitem__(0, 1e200))
    monkeypatch.setattr(mlp_mod, "residual_jacobian", jacobian)
    monkeypatch.setattr(sys.modules[__name__], "residual_jacobian", jacobian)
    X, y = _sine(30, 2, 7)
    cfg = TrainConfig(hidden_units=2)
    got = train(X, y, cfg, weight_seed=0)
    want = reference_train_lm(X, y, cfg, weight_seed=0)
    assert got.iterations_used > 0
    assert np.array_equal(got.params.w1, want.params.w1)
    assert np.array_equal(got.params.w2, want.params.w2)
    assert got.train_sse == want.train_sse
    assert got.iterations_used == want.iterations_used
    assert got.converged == want.converged
