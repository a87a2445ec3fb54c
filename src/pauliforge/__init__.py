"""Pauli-norm engineering for qubit Hamiltonians.

Variationally conjugates a Pauli-sum Hamiltonian to shrink its Pauli
norm directly in coefficient space, and quantifies the downstream
savings for measurement-based expectation estimation (grouping, shot
allocation) and randomized-product Hamiltonian simulation.

Each public name is imported from the module that defines it, e.g.
``from pauliforge.optimize import optimize``; the package root carries
only ``__version__``.
"""

__version__ = "0.1.0"
