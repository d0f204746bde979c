"""End-to-end and per-module benchmark for the devae package (see README.md)."""
