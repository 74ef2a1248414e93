import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run and keep no example
# database, so a tier-1 run is reproducible and bounded in time.
settings.register_profile(
    "ridlnoise", derandomize=True, database=None, max_examples=60, deadline=None
)
settings.load_profile("ridlnoise")
