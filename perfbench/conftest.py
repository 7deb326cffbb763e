"""Put the repository's source tree on the path for the benchmark tests."""

import sys
from pathlib import Path

SOURCE = str(Path(__file__).resolve().parent.parent / "src")
if SOURCE not in sys.path:
    sys.path.insert(0, SOURCE)
