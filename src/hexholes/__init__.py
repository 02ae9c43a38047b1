"""Exact enumeration and identity verification for lozenge tilings of
hexagons with symmetrically placed triangular holes."""

__version__ = "0.1.0"
