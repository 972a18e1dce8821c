"""Time one cold set-up in a fresh interpreter: import twotier_ee, load a config.

Usage: python3 setup_probe.py <src directory> <config file>
Prints one JSON object with the two times in seconds and the imported path.
"""

import json
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import twotier_ee  # noqa: E402

imported = time.perf_counter()
twotier_ee.load_config(sys.argv[2])
loaded = time.perf_counter()
print(json.dumps({"import_s": imported - start, "load_s": loaded - imported,
                  "package": twotier_ee.__file__}))
