"""End-to-end EMAP benchmark with per-layer traced attribution (see run.py)."""
