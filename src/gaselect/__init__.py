"""Genetic-algorithm wrapper feature selection with an LM-trained MLP scorer."""

from .data import load_csv, split_sequential, synthetic_sensors
from .engine import GaConfig, RunResult, exhaustive_search, run
from .fitness import Score
from .genome import Chromosome
from .mlp import TrainConfig

__version__ = "0.1.0"

__all__ = [
    "Chromosome",
    "GaConfig",
    "RunResult",
    "Score",
    "TrainConfig",
    "exhaustive_search",
    "load_csv",
    "run",
    "split_sequential",
    "synthetic_sensors",
]
