"""Numerical faults: the harness fails the seed that hits one, not the grid."""


class NumericalFault(Exception):
    """Base of the errors that mean the arithmetic of a run broke down."""


class NonFiniteError(NumericalFault, ValueError):
    """A gradient, parameter or variance vector has a NaN or infinite entry,
    a variance update a non-positive one, or a mean update a non-positive
    denominator."""
