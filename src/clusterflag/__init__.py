"""Exact cluster seeds for Grassmannians and partial flag varieties.

The package builds the rectangle seed of a Grassmannian and the pseudoline
seed of a partial flag variety, runs explicit mutation programs connecting
them, and certifies the endpoint with exact Laurent arithmetic plus modular
evaluation.  Import what you need from the submodules: ``flags``,
``programs``, ``quiver``, ``plucker``, ``tableaux`` and ``cli``.
"""

__version__ = "0.1.0"
