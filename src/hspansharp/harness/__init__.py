"""Evaluation harness: raster I/O, synthetic scenes, the method registry,
run configuration, the Wald-protocol benchmark, and the CLI."""
