"""Set-up cost a CLI user pays on every call: ``import nonalter`` and parsing.

Usage: ``python3 perfbench/setup_probe.py DOCS_JSON``.  Prints the seconds
from just before ``import nonalter`` until every problem document in the
file (the run's warm-up, head and first cycle) has been read and parsed by
``nonalter.problem_io.parse_problem_dict``, then the same time at reference
speed, scaled by one calibration slice timed right after in the same
interpreter.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(path: str) -> None:
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from nonalter.problem_io import parse_problem_dict

    for doc in json.loads(Path(path).read_text(encoding="utf-8")):
        parse_problem_dict(doc)
    setup = time.perf_counter() - t0
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import calibration

    print(setup, setup * calibration.REF_S / calibration.slice_seconds())


if __name__ == "__main__":
    main(sys.argv[1])
