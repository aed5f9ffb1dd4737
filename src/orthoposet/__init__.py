"""Irreducible orthoscalar projection families on two-part posets."""

__version__ = "1.0.0"
