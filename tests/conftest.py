import os
from pathlib import Path

from hypothesis import settings

# pytest puts src/ on sys.path (pyproject.toml); interpreters that tests start
# import the package from the same checkout.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

# Property tests draw the same examples on every run and keep no example
# database, so the suite's result depends only on the code under test.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
