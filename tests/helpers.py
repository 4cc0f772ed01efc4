"""Helpers that only the tests use: spans of dense vectors and
membership."""

from nilmult.exactla import DimensionMismatch, Subspace, _sparse, vector


def is_zero_vector(v):
    return all(x == 0 for x in v)


def span(ambient_dim, vectors):
    """The subspace of Q^ambient_dim spanned by dense rational vectors."""
    rows = [vector(v) for v in vectors]
    if any(len(r) != ambient_dim for r in rows):
        raise DimensionMismatch("vector length does not match ambient dimension")
    return Subspace.from_rows(ambient_dim, map(_sparse, rows))


def contains(space, v):
    return is_zero_vector(space.reduce(v))


def contains_subspace(space, other):
    return not any(space.residual(row) for row in other.rows)
