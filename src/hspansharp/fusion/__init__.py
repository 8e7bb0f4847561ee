"""Fusion methods: component substitution, multiresolution analysis,
hybrid, unmixing, and Bayesian families."""
