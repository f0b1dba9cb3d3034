"""Put ``src`` on the PYTHONPATH of the interpreters that some tests start,
as the ``pythonpath`` setting in pyproject.toml does for the test process."""
import os
import pathlib

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
