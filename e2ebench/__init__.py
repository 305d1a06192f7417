"""End-to-end benchmark with an outside-in per-layer trace (see run.py)."""
