import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# the benchmark's own modules and symcut from this checkout's sources
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
