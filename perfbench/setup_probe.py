"""Time one cold start of `fpmap run` in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR CONFIG.json [CONFIG.json ...]

Measures importing the CLI plus parsing every given run config, and prints
the seconds on stdout. Nothing else is imported before the clock starts.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import json  # noqa: E402

from fpmap import cli  # noqa: E402,F401
from fpmap.pipeline import RunConfig  # noqa: E402

for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        RunConfig.from_json_dict(json.load(fh))
print(time.perf_counter() - t0)
