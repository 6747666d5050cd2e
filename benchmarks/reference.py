"""Expected ``plan train`` bytes for the cold-cli workload: ``reference.py JOBS``.

JOBS is a JSON file ``{"reference_config": PATH, "jobs": [[CONFIG, MODE], ...]}``.
Prints ``{"reference": sha256, "expected": [sha256, ...]}`` where each
hash is of ``render(run_train_plan(load_config(CONFIG), offload_mode=MODE))``
and ``reference`` is that of the reference config in auto mode.
"""

import hashlib
import json
import sys

import ditplan


def planned(path: str, mode: str) -> str:
    text = ditplan.render(ditplan.run_train_plan(ditplan.load_config(path), offload_mode=mode))
    return hashlib.sha256(text.encode()).hexdigest()


def main(jobs_path: str) -> int:
    with open(jobs_path) as handle:
        request = json.load(handle)
    reply = {
        "reference": planned(request["reference_config"], "auto"),
        "expected": [planned(path, mode) for path, mode in request["jobs"]],
    }
    print(json.dumps(reply))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
