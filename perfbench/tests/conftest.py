import sys
from pathlib import Path

# The benchmark's modules import one another by bare name, as run.py
# arranges; give the tests the same path.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
