"""Hyperspectral pansharpening toolkit: fusion methods, a Wald-protocol
evaluation harness, and supporting raster utilities."""

__version__ = "0.1.0"
