"""Interaction-complexity metrics for dependency-manifest ecosystems."""

__version__ = "0.1.0"
