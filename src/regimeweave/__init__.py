"""Compound-regime Markov chains and regime-switching portfolio control.

The package is organized in layers.  ``markov`` handles single
continuous-time chains (generators, transition matrices, simulation).
``compose`` builds compound chains from two components, either
independently or through a Gaussian copula.  ``hjb`` solves the
dynamic-programming equations of the exponential-utility investment
problem with regime-switching income, ``montecarlo`` cross-checks those
solutions by simulation, and ``portfolio`` packages strategies, wealth
simulation, and policy evaluation.  ``cli`` exposes the same pipeline as
a batch command line.
"""

from __future__ import annotations

from . import compose, hjb, markov, montecarlo, portfolio
from .compose import *  # noqa: F403
from .hjb import *  # noqa: F403
from .markov import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .portfolio import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    name for module in (markov, compose, hjb, montecarlo, portfolio) for name in module.__all__
)
