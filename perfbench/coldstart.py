"""Cold-start probe: the set-up every ``rxnscope extract`` pays.

Run in a fresh interpreter with ``src`` on PYTHONPATH. Imports the CLI
(which pulls in every layer), then builds the default tool registry, the
scripted backend and the default abbreviation table and condition
lexicon. Prints {"import_ms", "registry_ms"} as one JSON line.
"""

import time

start = time.perf_counter()
import rxnscope.cli  # noqa: E402,F401
from rxnscope.agents import ScriptedBackend, default_registry  # noqa: E402
from rxnscope.chemops import AbbreviationTable  # noqa: E402
from rxnscope.reaction import ConditionLexicon  # noqa: E402

imported = time.perf_counter()
default_registry()
ScriptedBackend()
AbbreviationTable.default()
ConditionLexicon.default()
built = time.perf_counter()

import json  # noqa: E402

print(json.dumps({"import_ms": 1000 * (imported - start), "registry_ms": 1000 * (built - imported)}))
