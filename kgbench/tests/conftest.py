import sys
from pathlib import Path

# the tests import the benchmark as the package ``kgbench``
sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
