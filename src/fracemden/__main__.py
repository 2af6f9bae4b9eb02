"""``python -m fracemden ...`` runs the command-line front end."""
from .cli import entrypoint
entrypoint()
