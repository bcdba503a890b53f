"""Numerical faults: the harness fails the seed that hits one, not the grid."""


class NumericalFault(Exception):
    """Base of the errors that mean the arithmetic of a run broke down."""


class NonFiniteError(NumericalFault, ValueError):
    """A gradient, parameter or variance vector has a NaN or infinite entry,
    or a variance update a non-positive one."""
