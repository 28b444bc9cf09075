"""Set-up as a fresh process pays it: import ``testerbounds`` from the checkout,
load and validate the given scenario files and build their testers.

    python3 bench/setup_probe.py SCENARIO.json [...]

Prints the number of tester elements built; ``run.py`` times the whole process.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from testerbounds.testers import scenario_from_json  # noqa: E402

if __name__ == "__main__":
    elements = 0
    for name in sys.argv[1:]:
        scenario = scenario_from_json(json.loads(Path(name).read_text()))
        elements += sum(len(tester.elements) for tester in scenario.testers())
    print(elements)
