"""Genetic-algorithm wrapper feature selection with an LM-trained MLP scorer."""

__version__ = "0.1.0"
