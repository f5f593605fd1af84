"""End-to-end benchmark of the MorphCache simulator (see README.md)."""
