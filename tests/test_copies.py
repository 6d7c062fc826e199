"""Pickled and copied values are rebuilt by their constructors.

``Dataset``, ``SplitDataset`` (its two z-scored blocks) and ``MlpParams``
come back from pickle, ``copy.copy`` and ``copy.deepcopy`` checked again and
read-only, with the same bits; so do the values that hold them,
``TrainedModel`` and ``Scorer``, including in a worker process started with
``spawn``. A rebuilt split does no arithmetic on its samples, so it gives
no warning.
"""

import copy
import multiprocessing
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from gaselect.data import Dataset, split_sequential
from gaselect.fitness import Scorer
from gaselect.genome import Chromosome
from gaselect.mlp import MlpParams, TrainConfig, train_lm
from tests.conftest import make_split

ROUND_TRIPS = {
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}

round_trip = pytest.mark.parametrize(
    "trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS.keys()
)

CFG = TrainConfig(hidden_units=2, max_iterations=10)


@pytest.fixture(scope="module")
def split():
    return make_split(6, [0, 1], 0.1, seed=41, n_samples=60, n_train=30)


@pytest.fixture(scope="module")
def model(split):
    return train_lm(split.train.samples[:, :3], split.train.target, CFG, weight_seed=3)


def assert_same_read_only(original, rebuilt):
    assert not rebuilt.flags.writeable
    assert rebuilt.dtype == original.dtype and rebuilt.shape == original.shape
    assert rebuilt.tobytes() == original.tobytes()


def assert_same_split(original, rebuilt):
    for name in ("train", "cv"):
        a, b = getattr(original, name), getattr(rebuilt, name)
        assert_same_read_only(a.samples, b.samples)
        assert_same_read_only(a.target, b.target)
        assert (b.var_names, b.target_name) == (a.var_names, a.target_name)


def assert_same_params(original, rebuilt):
    assert_same_read_only(original.w1, rebuilt.w1)
    assert_same_read_only(original.w2, rebuilt.w2)


@round_trip
def test_dataset(split, trip):
    d = split.cv
    rebuilt = trip(d)
    assert type(rebuilt) is Dataset
    assert_same_read_only(d.samples, rebuilt.samples)
    assert_same_read_only(d.target, rebuilt.target)
    assert rebuilt == d


@round_trip
def test_split_dataset(split, trip):
    assert_same_split(split, trip(split))


@round_trip
def test_mlp_params(trip):
    p = MlpParams(np.arange(6.0).reshape(2, 3) / 7, np.array([0.5, -0.25, 1.0]))
    assert_same_params(p, trip(p))


@round_trip
def test_trained_model(model, trip):
    rebuilt = trip(model)
    assert_same_params(model.params, rebuilt.params)
    assert rebuilt.train_sse == model.train_sse
    assert rebuilt.iterations_used == model.iterations_used
    assert rebuilt.converged == model.converged


@round_trip
def test_scorer(split, trip):
    scorer = Scorer(split, CFG, 5)
    rebuilt = trip(scorer)
    assert_same_split(split, rebuilt.split)
    assert (rebuilt.train_cfg, rebuilt.master_seed) == (CFG, 5)
    c = Chromosome([0, 2])
    assert rebuilt(c) == scorer(c)


@round_trip
def test_rebuilt_split_checks_again(trip):
    # checked again, but only split_sequential z-scores: the warning is not repeated
    samples = np.column_stack([np.ones(6), np.arange(6.0)])
    d = Dataset(samples, np.zeros(6), ("const", "ramp"))
    with pytest.warns(UserWarning, match="const"):
        split = split_sequential(d, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rebuilt = trip(split)
    assert_same_split(split, rebuilt)


def _score_in_worker(scorer, batch):
    """Score a batch in a worker; report whether the split it got is writable."""
    split = scorer.split
    writable = (split.train.samples.flags.writeable, split.cv.samples.flags.writeable)
    return [scorer(c) for c in batch], writable


def test_spawned_workers_score_a_read_only_split(split):
    scorer = Scorer(split, CFG, 5)
    batch = [Chromosome([i]) for i in range(6)] + [Chromosome([0, 1]), Chromosome([2, 4, 5])]
    parts = [batch[0::2], batch[1::2]]
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
        futures = [pool.submit(_score_in_worker, scorer, part) for part in parts]
        results = [f.result(timeout=60) for f in futures]
    for part, (scores, writable) in zip(parts, results):
        assert writable == (False, False)
        assert scores == [scorer(c) for c in part]
