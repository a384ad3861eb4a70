"""End-to-end benchmark of DiCE runs; see run.py."""
