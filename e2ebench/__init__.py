"""End-to-end benchmark of the milliScope pipeline (see run.py)."""
