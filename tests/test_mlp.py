import numpy as np
import pytest
import scipy.linalg

import gaselect.mlp as mlp_mod
from gaselect import TrainConfig
from gaselect.mlp import (
    MlpParams,
    _all_finite,
    _forward_into,
    _initial_theta,
    _with_bias,
    predict,
    residual_jacobian,
    sse,
    train_lm,
)
from gaselect.errors import ConfigError, SolveFailure

# tanh(0.5) computed from the exp definition, (e^x - e^-x) / (e^x + e^-x)
TANH_HALF = 0.4621171572600098


def unflatten(theta, d, h):
    """The checked MlpParams of a flat vector: w1 row-major, then w2."""
    return MlpParams(theta[: h * (d + 1)].reshape(h, d + 1), theta[h * (d + 1):])


def init_weights(d, h, seed):
    """The starting weights train_lm draws for ``seed``, checked."""
    return unflatten(_initial_theta(d, h, seed), d, h)


def finite_difference_jacobian(p, X, y, step=1e-6):
    """Central differences over the flat parameter vector."""
    theta = np.concatenate([p.w1.ravel(), p.w2])
    n = X.shape[0]
    J = np.empty((n, theta.size))
    for k in range(theta.size):
        plus, minus = theta.copy(), theta.copy()
        plus[k] += step
        minus[k] -= step
        r_plus = predict(unflatten(plus, p.d, p.h), X) - y
        r_minus = predict(unflatten(minus, p.d, p.h), X) - y
        J[:, k] = (r_plus - r_minus) / (2 * step)
    return J


class TestInitWeights:
    # the starting weights, as _initial_theta draws them
    def test_deterministic(self):
        a = _initial_theta(4, 3, seed=12)
        b = _initial_theta(4, 3, seed=12)
        assert a.shape == (3 * 6 + 1,) and np.array_equal(a, b)

    def test_range(self):
        assert np.all(np.abs(_initial_theta(10, 8, seed=0)) <= 0.5)

    def test_seeds_differ(self):
        assert not np.array_equal(_initial_theta(4, 3, 1), _initial_theta(4, 3, 2))

    def test_bad_dims(self):
        for d, h in ((0, 3), (3, 0)):
            with pytest.raises(ValueError, match="d and h must be >= 1"):
                _initial_theta(d, h, seed=1)


def two_draw_weights(d, h, seed):
    """The starting weights as first drawn: w1, then w2, from one generator."""
    rng = np.random.default_rng(seed)
    w1 = rng.uniform(-0.5, 0.5, size=(h, d + 1))
    w2 = rng.uniform(-0.5, 0.5, size=h + 1)
    return w1, w2


class TestStartingWeights:
    # _initial_theta draws all P weights in one call; the bits must be those
    # of the two draws
    @pytest.mark.parametrize("d", [1, 5, 20])
    @pytest.mark.parametrize("h", [1, 2, 5])
    def test_init_weights_equal_two_draws(self, d, h):
        for seed in (0, 1, 7, 2**31 + 5):
            w1, w2 = two_draw_weights(d, h, seed)
            theta = _initial_theta(d, h, seed)
            assert np.array_equal(theta, np.concatenate([w1.ravel(), w2]))

    @pytest.mark.parametrize("d", [1, 5, 20])
    @pytest.mark.parametrize("h", [1, 2, 5])
    def test_train_lm_starts_from_two_draws(self, monkeypatch, d, h):
        # a training's first residual_jacobian call is at its starting weights
        seen = []
        original = mlp_mod.residual_jacobian

        def spy(p, X, y, **kwargs):
            seen.append(p)
            return original(p, X, y, **kwargs)

        monkeypatch.setattr(mlp_mod, "residual_jacobian", spy)
        rng = np.random.default_rng(d * 10 + h)
        X, y = rng.normal(size=(30, d)), rng.normal(size=30)
        cfg = TrainConfig(hidden_units=h, max_iterations=2)
        for seed in (0, 3, 12345):
            seen.clear()
            train_lm(X, y, cfg, weight_seed=seed)
            w1, w2 = two_draw_weights(d, h, seed)
            assert np.array_equal(seen[0].w1, w1) and np.array_equal(seen[0].w2, w2)


class TestForward:
    def test_zero_network(self):
        p = MlpParams(np.zeros((2, 4)), np.zeros(3))
        assert predict(p, np.array([[0.3, -2.0, 5.0]]))[0] == 0.0

    def test_bias_passthrough(self):
        p = MlpParams(np.zeros((2, 3)), np.array([0.0, 0.0, 7.5]))
        assert predict(p, np.array([[1.0, -1.0]]))[0] == 7.5

    def test_hand_computed_tanh(self):
        # one input, one hidden unit: f(x) = tanh(x)
        p = MlpParams(np.array([[1.0, 0.0]]), np.array([1.0, 0.0]))
        out = float(predict(p, np.array([[0.5]]))[0])
        assert out == pytest.approx(TANH_HALF, abs=1e-9)
        assert round(out, 5) == 0.46212

    def test_dimension_mismatch(self):
        p = init_weights(3, 2, seed=0)
        with pytest.raises(ValueError):
            predict(p, np.array([[1.0, 2.0]]))

    def test_predict_matches_forward(self):
        # a batch gives each row the output it gets on its own
        p = init_weights(3, 4, seed=5)
        X = np.random.default_rng(0).normal(size=(10, 3))
        batch = predict(p, X)
        assert batch == pytest.approx([predict(p, x[None, :])[0] for x in X])

    def test_hidden_activations_bounded(self):
        # float64 rounds tanh to exactly 1.0 past ~19, so stay below that
        p = init_weights(2, 3, seed=1)
        X = np.random.default_rng(1).normal(scale=2, size=(40, 2))
        hidden = np.tanh(np.hstack([X, np.ones((40, 1))]) @ p.w1.T)
        assert np.all(np.abs(hidden) < 1.0)


class TestSse:
    def test_perfect(self):
        p = MlpParams(np.zeros((1, 2)), np.array([0.0, 2.0]))
        X = np.zeros((4, 1))
        assert sse(p, X, np.full(4, 2.0)) == 0.0

    def test_one_plus_four(self):
        p = MlpParams(np.zeros((1, 2)), np.array([0.0, 0.0]))
        # predictions are all zero; targets -1 and 2 give 1 + 4
        assert sse(p, np.zeros((2, 1)), np.array([-1.0, 2.0])) == 5.0

    def test_row_permutation_invariant(self):
        p = init_weights(2, 3, seed=3)
        rng = np.random.default_rng(3)
        X = rng.normal(size=(12, 2))
        y = rng.normal(size=12)
        perm = rng.permutation(12)
        assert sse(p, X, y) == pytest.approx(sse(p, X[perm], y[perm]), rel=1e-12)


class TestResidualJacobian:
    def test_param_count(self):
        p = init_weights(5, 3, seed=0)
        X = np.zeros((7, 5))
        _, J = residual_jacobian(p, X, np.zeros(7))
        assert J.shape == (7, 3 * 6 + 4)

    def test_zero_inputs_zero_nonbias_columns(self):
        p = init_weights(3, 2, seed=0)
        X = np.zeros((4, 3))
        _, J = residual_jacobian(p, X, np.zeros(4))
        # w1 layout row-major: columns 0..2 and 4..6 are non-bias weights
        for unit in range(2):
            for k in range(3):
                assert np.all(J[:, unit * 4 + k] == 0.0)

    def test_residual_definition(self):
        p = init_weights(2, 2, seed=4)
        rng = np.random.default_rng(4)
        X = rng.normal(size=(6, 2))
        y = rng.normal(size=6)
        r, _ = residual_jacobian(p, X, y)
        assert r == pytest.approx(predict(p, X) - y)

    def test_matches_finite_differences_tiny_weights(self):
        rng = np.random.default_rng(7)
        p = MlpParams(rng.normal(scale=1e-3, size=(2, 3)), rng.normal(scale=1e-3, size=3))
        X = rng.normal(size=(8, 2))
        y = rng.normal(size=8)
        _, J = residual_jacobian(p, X, y)
        J_fd = finite_difference_jacobian(p, X, y)
        scale = np.maximum(np.abs(J_fd), 1.0)
        assert np.max(np.abs(J - J_fd) / scale) < 1e-6

    def test_matches_finite_differences_random_networks(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            h = int(rng.integers(1, 4))
            p = MlpParams(
                rng.uniform(-1, 1, size=(h, d + 1)), rng.uniform(-1, 1, size=h + 1)
            )
            X = rng.normal(size=(10, d))
            y = rng.normal(size=10)
            _, J = residual_jacobian(p, X, y)
            J_fd = finite_difference_jacobian(p, X, y)
            scale = np.maximum(np.abs(J_fd), 1e-3)
            assert np.max(np.abs(J - J_fd) / scale) < 1e-4


class TestChoFactor:
    @staticmethod
    def spd(p, order):
        M = np.random.default_rng(p).normal(size=(3 * p, p))
        return np.asarray(M.T @ M + 1e-3 * np.eye(p), order=order)

    # a 1x1 array is both C- and F-contiguous, so potrf writes it in place
    # whatever order was asked for
    @pytest.mark.parametrize(
        "p, order",
        [(1, "C"), (7, "F"), (7, "C"), (31, "F"), (110, "F")],
        ids=["1x1", "F", "C", "F31", "F110"],
    )
    def test_overwrite_matches_scipy_bits(self, p, order):
        a = self.spd(p, order)
        want, lower = scipy.linalg.cho_factor(a.copy(), lower=True)
        before = a.copy()
        in_place = a.flags.f_contiguous
        c = mlp_mod.cho_factor(a)
        assert lower and np.array_equal(c, want)
        # a Fortran-ordered input is the factor; any other is copied first
        assert (c is a) == in_place
        assert np.array_equal(a, want if in_place else before)


class TestMlpParams:
    def test_caller_arrays_stay_writable_and_unchanged(self):
        w1, w2 = np.zeros((2, 3)), np.zeros(3)
        p = MlpParams(w1, w2)
        assert w1.flags.writeable and w2.flags.writeable
        assert not p.w1.flags.writeable and not p.w2.flags.writeable
        w1[0, 0], w2[0] = 1.0, 2.0  # the caller edits its own arrays
        assert p.w1[0, 0] == 0.0 and p.w2[0] == 0.0
        assert w1[0, 0] == 1.0 and w2[0] == 2.0

    def test_read_only_weights_kept_without_copy(self):
        p = init_weights(3, 2, seed=0)
        assert MlpParams(p.w1, p.w2).w1 is p.w1


def blas_grid():
    """(n, h, d), a network and data for every shape of the BLAS route grid."""
    for n in (1, 60, 200):
        for h in (1, 2, 5):
            for d in (1, 5, 10, 20):
                rng = np.random.default_rng(1000 * n + 10 * h + d)
                X, y = rng.normal(size=(n, d)), rng.normal(size=n)
                yield (n, h, d), init_weights(d, h, seed=n + h + d), X, y


# train_lm's products as it forms them with np.dot, and as @ forms them
TRAINER_PRODUCTS = {
    "JtJ_syrk": (lambda J, r: np.dot(J.T, J), lambda J, r: J.T @ J),
    "Jtr_gemv": (lambda J, r: np.dot(J.T, r), lambda J, r: J.T @ r),
    "sse_ddot": (lambda J, r: r.dot(r), lambda J, r: r @ r),
}


class TestBlasRoute:
    # train_lm and predict reach BLAS through np.dot; each product must have
    # the bits np.matmul gives, or outputs would depend on the numpy version
    def test_forward_into_matches_matmul(self):
        differ = []
        for shape, p, X, y in blas_grid():
            n, h, _ = shape
            Xb, A, r = _with_bias(X), np.empty((n, h)), np.empty(n)
            _forward_into(Xb, p.w1, p.w2, A, r, y)
            want_A = np.tanh(np.matmul(Xb, p.w1.T))
            want_r = np.matmul(want_A, p.w2[:-1]) + p.w2[-1] - y
            if not np.array_equal(A, want_A):
                differ.append(("Xb w1' (gemm)", shape))
            if not np.array_equal(r, want_r):
                differ.append(("A w2 (gemv)", shape))
        assert not differ, f"np.dot bits differ from np.matmul at (n, h, d): {differ}"

    @pytest.mark.parametrize("product", sorted(TRAINER_PRODUCTS))
    def test_trainer_products_match_matmul(self, product):
        by_dot, by_matmul = TRAINER_PRODUCTS[product]
        differ = []
        for shape, p, X, y in blas_grid():
            r, J = residual_jacobian(p, X, y)
            if not np.array_equal(by_dot(J, r), by_matmul(J, r)):
                differ.append(shape)
        assert not differ, f"np.dot {product} differs from @ at (n, h, d): {differ}"


class TestAllFinite:
    # numpy 2 reports the overflowing sum of squares; the answer must not
    # depend on it
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_squares_overflow_falls_back_to_exact_test(self):
        v = np.array([1e200, 1.0])
        assert not np.isfinite(v.dot(v))
        assert _all_finite(v)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_inf_or_nan_not_finite(self, bad):
        assert not _all_finite(np.array([bad]))
        matrix = np.eye(3)
        matrix[2, 1] = bad
        assert not _all_finite(matrix)

    def test_finite_matrix(self):
        assert _all_finite(np.arange(12.0).reshape(3, 4).T)


class TestTrainConfig:
    def test_defaults_valid(self):
        TrainConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            # ids keep the names these cases had while TrainConfig also
            # held the LM schedule fields (cases 1-5 and 7-17)
            pytest.param({"hidden_units": 0}, id="kwargs0"),
            pytest.param({"max_iterations": 0}, id="kwargs6"),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)


class TestTrainLm:
    def test_representable_target_near_zero_sse(self):
        # target produced by a known network with well-separated units;
        # seed 0 lands in the right basin and drives SSE to machine zero
        true = MlpParams(
            np.array([[1.2, -0.7, 0.3], [-0.9, 0.5, -0.4]]),
            np.array([0.8, -1.1, 0.2]),
        )
        X = np.random.default_rng(3).uniform(-1.5, 1.5, size=(100, 2))
        y = predict(true, X)
        model = train_lm(X, y, TrainConfig(hidden_units=2), weight_seed=0)
        assert model.train_sse < 1e-8

    def test_constant_target_beats_constant_predictor(self):
        X = np.random.default_rng(0).normal(size=(50, 3))
        y = np.full(50, 4.2)
        model = train_lm(X, y, TrainConfig(hidden_units=2), weight_seed=1)
        assert model.train_sse <= sse_of_best_constant(y) + 1e-12

    def test_quadratic_fit(self):
        X = np.linspace(-1, 1, 64)[:, None]
        y = X[:, 0] ** 2
        model = train_lm(X, y, TrainConfig(hidden_units=4), weight_seed=7)
        assert model.train_sse < 1e-4
        assert model.iterations_used <= 200

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        cfg = TrainConfig(hidden_units=3)
        a = train_lm(X, y, cfg, weight_seed=5)
        b = train_lm(X, y, cfg, weight_seed=5)
        assert a.params == b.params
        assert a.train_sse == b.train_sse
        assert a.iterations_used == b.iterations_used

    def test_accepted_sse_strictly_decreasing(self, monkeypatch):
        # residual_jacobian runs once at start and once per accepted step,
        # so its residual norms trace the accepted-SSE sequence
        seen = []
        original = mlp_mod.residual_jacobian

        def spy(p, X, y, **kwargs):
            r, J = original(p, X, y, **kwargs)
            seen.append(float(r @ r))
            return r, J

        monkeypatch.setattr(mlp_mod, "residual_jacobian", spy)
        X = np.linspace(-1, 1, 40)[:, None]
        y = np.sin(2 * X[:, 0])
        train_lm(X, y, TrainConfig(hidden_units=3), weight_seed=2)
        assert len(seen) > 2
        assert all(b < a for a, b in zip(seen, seen[1:]))

    def test_iteration_cap_respected(self):
        X = np.linspace(-1, 1, 40)[:, None]
        y = np.sin(3 * X[:, 0])
        model = train_lm(X, y, TrainConfig(hidden_units=3, max_iterations=5), weight_seed=0)
        assert model.iterations_used <= 5

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            train_lm(np.zeros((0, 2)), np.zeros(0), TrainConfig())

    @pytest.mark.parametrize("shape", [(9,), (11,), (10, 1)])
    def test_target_shape_checked(self, shape):
        X = np.random.default_rng(0).normal(size=(10, 2))
        with pytest.raises(ValueError, match="y must have length 10"):
            train_lm(X, np.zeros(shape), TrainConfig(hidden_units=2))

    def test_returned_weights_own_their_memory(self):
        # an accepted step's weights are unchecked views of its theta: they
        # must still be what MlpParams(...) would make of it, and share no
        # buffer that later trainings on the thread write
        rng = np.random.default_rng(11)
        X, y = rng.normal(size=(50, 3)), rng.normal(size=50)
        cfg = TrainConfig(hidden_units=3, max_iterations=10)
        model = train_lm(X, y, cfg, weight_seed=4)
        assert model.iterations_used > 0 and model.params != init_weights(3, 3, 4)
        w1, w2 = model.params.w1, model.params.w2
        assert not w1.flags.writeable and not w2.flags.writeable
        assert np.isfinite(w1).all() and np.isfinite(w2).all()
        rebuilt = MlpParams(model.params.w1.copy(), model.params.w2.copy())
        assert rebuilt == model.params
        for a, b in ((rebuilt.w1, w1), (rebuilt.w2, w2)):
            assert a.shape == b.shape and a.dtype == b.dtype and a.strides == b.strides
        w1_before, w2_before = w1.copy(), w2.copy()
        for seed in range(3):
            train_lm(X, y, cfg, weight_seed=seed)
            train_lm(rng.normal(size=(80, 5)), rng.normal(size=80), cfg, seed)
        assert np.array_equal(w1, w1_before) and np.array_equal(w2, w2_before)

    def test_more_params_than_rows(self):
        # damping keeps the normal equations solvable when overparameterized
        rng = np.random.default_rng(6)
        X = rng.normal(size=(5, 3))
        y = rng.normal(size=5)
        model = train_lm(X, y, TrainConfig(hidden_units=4), weight_seed=0)
        assert model.params.n_params == 4 * 4 + 5 > 5
        assert model.train_sse < float(np.sum((y - y.mean()) ** 2))

    def test_solve_failure_raised(self, monkeypatch):
        def always_singular(*args, **kwargs):
            raise mlp_mod.LinAlgError("singular")

        monkeypatch.setattr(mlp_mod, "cho_factor", always_singular)
        X = np.random.default_rng(0).normal(size=(10, 2))
        with pytest.raises(SolveFailure):
            train_lm(X, np.zeros(10), TrainConfig(hidden_units=2))


def sse_of_best_constant(y):
    return float(np.sum((y - y.mean()) ** 2))

