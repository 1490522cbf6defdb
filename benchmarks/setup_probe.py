"""Cold start of the engine in a fresh interpreter, for ``setup_s``.

Usage: python3 -I setup_probe.py SRC WORKLOAD PAYLOAD_JSON

Times ``import tritangle``, ``import tritangle.cli`` and the workload's
first operation on the given input, then prints the three durations (in
seconds), the calibration scale measured around them (see
``calibration``) and the path the package was imported from as one JSON
line.  Before the clock starts it imports nothing the engine needs, so
every module the engine imports is imported inside the window.
"""

import os
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import calibration  # noqa: E402  (imports only time.perf_counter)
from outputs import verdict_json  # noqa: E402  (imports nothing)

sys.path.insert(0, sys.argv[1])
workload = sys.argv[2]

before = calibration.reference_s()
t0 = perf_counter()
import tritangle  # noqa: E402
t1 = perf_counter()
import tritangle.cli  # noqa: E402,F401
t2 = perf_counter()

import json  # noqa: E402  (already loaded by the engine)

payload = json.loads(sys.argv[3])
if workload == "census":
    tritangle.census_csv(tritangle.run_census(payload["kind"], payload["bound"]))
elif workload == "documents":
    decomposition = tritangle.loads_decomposition(payload["text"])
    verdict = tritangle.classify(decomposition)
    tritangle.dumps_decomposition(decomposition)
    json.dumps(verdict_json(verdict))
else:
    tritangle.classify(tritangle.parse_decomposition(payload["document"]))
    for p, q in payload["values"]:
        tritangle.cf_expand(tritangle.ExtFraction(p, q))
t3 = perf_counter()
after = calibration.reference_s()

print(json.dumps({"import_tritangle_s": t1 - t0, "import_cli_s": t2 - t1,
                  "first_op_s": t3 - t2, "setup_s": t3 - t0,
                  "scale": calibration.scale((before + after) / 2), "file": tritangle.__file__}))
