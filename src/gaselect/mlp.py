"""Single-hidden-layer perceptron with a Levenberg-Marquardt trainer.

Architecture: tanh hidden layer, linear output with bias,

    f(x) = w2 . [tanh(w1 . [x; 1]); 1]

with w1 of shape (h, d+1) (bias column last) and w2 of length h+1 (bias
last). The flat parameter vector used by the trainer and the Jacobian is
always [w1 row-major, then w2]; tests rely on that order. Every forward
pass, ``predict``'s and the trainer's alike, is ``_forward_into``.

The trainer needs two routines from scipy, LAPACK ``dpotrf`` and ``dpotrs``.
They live in scipy's compiled ``scipy.linalg._flapack`` extension, which is
loaded here on its own, under its real name, without running the ``scipy``
or ``scipy.linalg`` package init: scipy's directory is looked up with
``importlib.util.find_spec``, which executes nothing. Where scipy or the
extension file is not found that way (editable or frozen installs),
``scipy.linalg.lapack`` is imported instead; it re-exports the same objects.

Products reach BLAS through ``np.dot``, which calls the same gemm, gemv,
syrk and ddot routines as ``@`` (the same bits) with less dispatch per call:
the forward pass is a gemm (X with its bias column times w1') and a gemv (the
activations times w2), J'J is a syrk, J'r a gemv and each SSE a ddot. The
trainer checks an array finite by its sum of squares, one ddot, and runs the
exact elementwise test only when that sum is not finite.

The module keeps no state between calls: ``train_lm`` writes in place only
into buffers that live for one training (see its docstring), and nothing
outside it sees them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec
from os.path import join

import numpy as np
from numpy.linalg import LinAlgError

from .data import read_only
from .errors import ConfigError, SolveFailure


def _load_flapack():
    """scipy's compiled LAPACK module, loaded without scipy's package inits."""
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is not None:
        return module
    scipy = find_spec("scipy")  # unlike ``import scipy``, runs no scipy code
    dirs = scipy.submodule_search_locations if scipy is not None else None
    spec = PathFinder.find_spec(name, [join(d, "linalg") for d in dirs or ()])
    if spec is None:
        from scipy.linalg import lapack

        return lapack
    module = module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


_flapack = _load_flapack()
dpotrf, dpotrs = _flapack.dpotrf, _flapack.dpotrs


@dataclass(frozen=True, eq=False)
class MlpParams:
    """The network's weights, read-only. The constructor copies an array
    the caller could still write to (see ``data.read_only``). Pickling or
    copying them rebuilds them through the constructor, which checks them
    and marks them read-only again."""

    w1: np.ndarray  # (h, d+1), bias column last
    w2: np.ndarray  # (h+1,), bias last

    def __eq__(self, other):
        if not isinstance(other, MlpParams):
            return NotImplemented
        return np.array_equal(self.w1, other.w1) and np.array_equal(self.w2, other.w2)

    def __post_init__(self):
        w1, w2 = read_only(self.w1), read_only(self.w2)
        if w1.ndim != 2 or w1.shape[0] < 1 or w1.shape[1] < 2:
            raise ValueError(f"w1 must be (h, d+1) with h,d >= 1, got {w1.shape}")
        if w2.shape != (w1.shape[0] + 1,):
            raise ValueError(f"w2 must have length h+1, got {w2.shape}")
        if not (np.isfinite(w1).all() and np.isfinite(w2).all()):
            raise ValueError("weights must be finite")
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "w2", w2)

    def __reduce__(self):
        return (self.__class__, (self.w1, self.w2))

    @property
    def d(self) -> int:
        return self.w1.shape[1] - 1

    @property
    def h(self) -> int:
        return self.w1.shape[0]

    @property
    def n_params(self) -> int:
        return self.w1.size + self.w2.size

    @classmethod
    def _from_trusted(cls, theta: np.ndarray, d: int, h: int) -> "MlpParams":
        """The weights in the flat finite float64 ``theta``, unchecked.

        ``theta`` is marked read-only and w1 and w2 are views of it; the
        caller must hold no other reference through which it writes ``theta``.
        """
        theta.setflags(write=False)
        self = object.__new__(cls)
        object.__setattr__(self, "w1", theta[: h * (d + 1)].reshape(h, d + 1))
        object.__setattr__(self, "w2", theta[h * (d + 1):])
        return self


# Marquardt's damping schedule and the relative-improvement stopping
# tolerance. train_lm reads them at call time.
LAMBDA_INIT = 1e-3
LAMBDA_UP = 10.0
LAMBDA_DOWN = 0.1
LAMBDA_MAX = 1e10
TOL_REL = 1e-9


@dataclass(frozen=True)
class TrainConfig:
    hidden_units: int = 5
    max_iterations: int = 200

    def __post_init__(self):
        if self.hidden_units < 1:
            raise ConfigError(f"hidden_units must be >= 1, got {self.hidden_units}")
        if self.max_iterations < 1:
            raise ConfigError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass(frozen=True)
class TrainedModel:
    params: MlpParams
    train_sse: float
    iterations_used: int
    converged: bool


def _initial_theta(d: int, h: int, seed: int) -> np.ndarray:
    """The flat starting weights: P uniform [-0.5, 0.5] draws from the seed.

    One draw of all P values gives the same bits as drawing w1 and then w2,
    since each value takes the generator's next double in turn. The
    generator is the one ``np.random.default_rng(seed)`` returns for an int
    seed, built without that function's dispatch on the seed's type.
    """
    if d < 1 or h < 1:
        raise ValueError(f"d and h must be >= 1, got d={d}, h={h}")
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.uniform(-0.5, 0.5, size=h * (d + 2) + 1)


def _target(y: np.ndarray, n: int) -> np.ndarray:
    """y as a float array, checked to hold one value per row of an n-row X."""
    y = np.asarray(y, dtype=float)
    if y.shape != (n,):
        raise ValueError(f"y must have length {n}, got {y.shape}")
    return y


def _forward_into(
    Xb: np.ndarray, w1: np.ndarray, w2: np.ndarray, A: np.ndarray, r: np.ndarray,
    y: np.ndarray | None = None,
) -> None:
    """The network on Xb, X with its bias column, unchecked: activations
    tanh(Xb @ w1.T) into A (n, h), outputs into r (n,), less y if given.
    ``np.dot`` makes the gemm and the gemv of ``@`` with less dispatch."""
    np.dot(Xb, w1.T, out=A)
    np.tanh(A, out=A)
    np.dot(A, w2[:-1], out=r)
    r += w2[-1]
    if y is not None:
        r -= y


def _forward(
    p: MlpParams, X: np.ndarray, y: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """X (and y, if given) checked, then ``_forward_into``'s pass at ``p`` as
    (Xb, A, r) in new arrays."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != p.d:
        raise ValueError(f"X must be (n, {p.d}), got {X.shape}")
    n = X.shape[0]
    if y is not None:
        y = _target(y, n)
    Xb, A, r = np.empty((n, p.d + 1)), np.empty((n, p.h)), np.empty(n)
    Xb[:, :-1] = X
    Xb[:, -1] = 1.0
    _forward_into(Xb, p.w1, p.w2, A, r, y)
    return Xb, A, r


def predict(p: MlpParams, X: np.ndarray) -> np.ndarray:
    """Network output for every row of X."""
    return _forward(p, X)[2]


def sse(p: MlpParams, X: np.ndarray, y: np.ndarray) -> float:
    """Sum of squared prediction errors over the rows of (X, y)."""
    r = predict(p, X)  # a new array
    r -= _target(y, r.shape[0])
    return float(r.dot(r))


def residual_jacobian(
    p: MlpParams,
    X: np.ndarray,
    y: np.ndarray,
    *,
    forward: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Residuals r_i = f(x_i) - y_i and the matrix J[i, k] = dr_i / dtheta_k.

    Column order follows the flat parameter layout: w1 row-major, then w2.
    For hidden unit j with activation a_j = tanh(w1_j . xb):

        dr/dw1[j, k] = w2[j] * (1 - a_j^2) * xb[k]
        dr/dw2[j]    = a_j          (j < h)
        dr/dw2[h]    = 1

    A trainer that has just run the forward pass at ``p`` passes it as
    ``forward = (Xb, A, r)``: X with its bias column appended, the (n, h)
    activations and the residuals. They are then used as given, not
    recomputed, and J is built from them. Each entry of J is one product
    written straight into the (n, P) result, so J has the same bits either
    way.

    X and y are checked only when the forward pass is computed from them.
    A caller passing ``forward`` vouches for X and y (``train_lm`` checks
    them once per training), and neither is read then.

    ``out``, a C-contiguous float64 (n, P) array, receives J and is returned
    as J; without it J is a new array. ``out`` is checked on every call: a
    non-contiguous one would make the reshaped target of J's w1 block a
    copy, and that block would be silently lost.
    """
    Xb, A, r = _forward(p, X, y) if forward is None else forward
    n, h, n_w1 = Xb.shape[0], p.h, p.w1.size
    if out is None:
        J = np.empty((n, p.n_params))
    elif (
        out.shape != (n, p.n_params)
        or out.dtype != np.float64
        or not out.flags.c_contiguous
    ):
        raise ValueError(
            f"out must be a C-contiguous float64 array of shape {(n, p.n_params)}"
        )
    else:
        J = out
    gate = A * A  # becomes (1 - A^2) * w2[:-1], (n, h), in one temporary
    np.subtract(1.0, gate, out=gate)
    gate *= p.w2[:-1]
    np.einsum("ij,ik->ijk", gate, Xb, out=J[:, :n_w1].reshape(n, h, p.d + 1))
    J[:, n_w1:-1] = A
    J[:, -1] = 1.0
    return r, J


def cho_factor(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of the symmetric positive definite matrix ``a``.

    LAPACK ``dpotrf``, the routine ``scipy.linalg.cho_factor`` calls, without
    scipy's input checks: ``a`` must be a finite float64 square matrix. Only
    its lower triangle is read; the upper triangle of the factor is left as
    it was in ``a``. Raises LinAlgError when ``a`` is not positive definite.

    A Fortran-ordered ``a`` is factored in place and returned as the factor
    (partly overwritten if the factorization fails); any other ``a`` is
    copied first.

    The flags go to ``dpotrf`` positionally, in the order of its f2py
    signature ``dpotrf(a, [lower, clean, overwrite_a])``: f2py parses
    keyword arguments slowly, and an LM iteration makes this call once.
    """
    # positional (lower=1, clean=0, overwrite_a=1): keywords parse slowly
    c, info = dpotrf(a, 1, 0, 1)
    if info > 0:
        raise LinAlgError(f"leading minor {info} of the array is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of potrf")
    return c


def cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b given the lower Cholesky factor ``c`` of A (LAPACK ``dpotrs``).

    ``lower`` goes positionally, as in ``cho_factor``, by the f2py signature
    ``dpotrs(c, b, [lower, overwrite_b])``; ``b`` is left untouched.
    """
    # positional lower=1: keywords parse slowly
    x, info = dpotrs(c, b, 1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    return x


def _all_finite(x: np.ndarray) -> bool:
    """Whether no element of ``x`` is inf or NaN, mostly by one dot product.

    A finite sum of squares has no inf or NaN term, so it settles almost
    every call without a boolean temporary. Only an inf or NaN element, or
    finite elements whose squares overflow, fall through to the exact
    elementwise test, so the answer is always the exact one. numpy 2 may
    report such an overflow as a RuntimeWarning, as it does for an SSE that
    overflows.
    """
    v = x.ravel()
    return math.isfinite(v.dot(v)) or bool(np.isfinite(v).all())


def train_lm(
    X: np.ndarray, y: np.ndarray, cfg: TrainConfig, weight_seed: int = 0
) -> TrainedModel:
    """Fit the network by damped Gauss-Newton (Levenberg-Marquardt).

    Training starts from the weights ``_initial_theta`` draws for
    ``weight_seed``, wrapped without ``MlpParams``' checks.
    Each iteration solves (J'J + lambda*I) delta = -J'r and proposes
    theta + delta. The step is accepted only when the SSE strictly decreases
    (lambda shrinks by LAMBDA_DOWN), otherwise it is rejected and lambda
    grows by LAMBDA_UP. Training stops when an accepted step improves SSE by
    less than TOL_REL relatively, when lambda climbs past LAMBDA_MAX
    (stuck), or at max_iterations.

    Validated once per training: the shapes of X and y. The starting
    weights are finite by construction; each candidate theta is only checked
    finite, and its forward pass reads w1 and w2 as plain views of it. Only
    an accepted theta is wrapped, as read-only views of its own fresh
    vector, without ``MlpParams``' checks; that wrapper goes to
    ``residual_jacobian``, which is handed the forward pass and checks
    neither X nor y again, and the last one is returned.

    J'J, -J'r and each candidate theta are checked finite by their sum of
    squares, one ddot: a finite sum has no inf or NaN term, and only a sum
    that is not finite falls back to the exact elementwise test. A candidate
    whose SSE is inf or NaN fails the SSE comparison and is rejected.

    Written in place, into buffers that live for this one training: the
    first forward pass is ``_forward``'s, which forms X with its bias column
    once and allocates one (n, h) and one (n,) buffer; every later pass
    writes its activations and residuals into those two buffers; an
    accepted step hands them to ``residual_jacobian`` as ``forward``, and
    its residuals are folded into -J'r before the next candidate overwrites
    them. Every J goes into one (n, P) buffer, passed as ``out``. J'J and
    -J'r are formed once per accepted step (on the next iteration that needs
    them); each iteration copies J'J into one Fortran-ordered (P, P) buffer,
    adds lambda to its diagonal and has LAPACK ``potrf`` factor it where it
    lies (``cho_factor``), then ``potrs`` solves (``cho_solve``). The
    arithmetic is that of scipy's ``cho_factor`` and ``cho_solve``, bit for
    bit, and the forward pass is ``predict``'s own.

    Every product goes through ``np.dot``, which reaches the same BLAS
    routine as ``@``, for the same bits, with less dispatch per call: J'J is
    one ``syrk`` (numpy sees J.T and J share a buffer, and mirrors the
    triangle, so J'J is exactly symmetric), J'r one ``gemv``, each SSE one
    ``ddot``, and the forward pass a ``gemm`` and a ``gemv``.

    Raises SolveFailure when the damped normal matrix stays numerically
    singular all the way up to LAMBDA_MAX, which signals pathological data,
    and ValueError when J'J or J'r is not finite.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError(f"X must be a nonempty matrix, got shape {X.shape}")
    y = _target(y, X.shape[0])
    (n, d), h = X.shape, cfg.hidden_units

    theta = _initial_theta(d, h, weight_seed)
    params = MlpParams._from_trusted(theta, d, h)
    n_w1 = params.w1.size
    Xb, A_buf, r_buf = _forward(params, X, y)  # A_buf, r_buf: every pass's output
    J_buf = np.empty((n, theta.size))  # every Jacobian of this training
    r, J = residual_jacobian(params, X, y, forward=(Xb, A_buf, r_buf), out=J_buf)
    JtJ = g = None  # normal equations at theta, formed when first needed
    best_sse = float(r.dot(r))
    lam = LAMBDA_INIT
    damped = np.empty((theta.size, theta.size), order="F")
    damped_diag = damped.ravel(order="F")[:: theta.size + 1]  # a view
    iterations = 0
    converged = best_sse == 0.0

    while not converged and iterations < cfg.max_iterations:
        iterations += 1
        if JtJ is None:
            Jt = J.T
            JtJ, g = np.dot(Jt, J), -np.dot(Jt, r)
            if not (_all_finite(JtJ) and _all_finite(g)):
                raise ValueError("array must not contain infs or NaNs")
        # J'J is exactly symmetric, so its transpose copies in memory order
        damped[...] = JtJ.T
        damped_diag += lam
        try:
            factor = cho_factor(damped)
        except LinAlgError:
            factor = None
        else:
            theta_new = cho_solve(factor, g)  # a new array
            theta_new += theta
            if _all_finite(theta_new):
                w1, w2 = theta_new[:n_w1].reshape(h, d + 1), theta_new[n_w1:]
                _forward_into(Xb, w1, w2, A_buf, r_buf, y)
                new_sse = float(r_buf.dot(r_buf))
                # an inf or NaN SSE never compares below best_sse
                if new_sse < best_sse:
                    improvement = (best_sse - new_sse) / best_sse
                    theta, best_sse = theta_new, new_sse
                    params = MlpParams._from_trusted(theta, d, h)
                    r, J = residual_jacobian(
                        params, X, y, forward=(Xb, A_buf, r_buf), out=J_buf
                    )
                    JtJ = g = None
                    lam *= LAMBDA_DOWN
                    converged = improvement < TOL_REL or best_sse == 0.0
                    continue
        # rejected: no factorization, a non-finite step or no SSE decrease
        lam *= LAMBDA_UP
        if lam > LAMBDA_MAX:
            if factor is None:
                raise SolveFailure(f"normal equations singular at lambda={lam:.3g}")
            break

    return TrainedModel(
        params=params,
        train_sse=best_sse,
        iterations_used=iterations,
        converged=converged,
    )
