"""Set-up probe: a fresh interpreter imports docweave, builds the pipeline
config and its clients (loading fixture files), prints ``ready`` and exits.

``run.py`` times this from process start to the ``ready`` line. Usage::

    python3 perfbench/ready.py SRC_DIR CONFIG_JSON
"""

import json
import sys

sys.path.insert(0, sys.argv[1])

from docweave.pipeline import _Clients, config_from_mapping  # noqa: E402

_Clients(config_from_mapping(json.loads(sys.argv[2])))
sys.stdout.write("ready\n")
sys.stdout.flush()
