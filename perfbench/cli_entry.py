"""Run the wsnadapt CLI in a fresh interpreter, as the installed script does.

``python3 perfbench/cli_entry.py validate --config CFG`` calls
``wsnadapt.cli.entrypoint``.  ``python -m wsnadapt.cli`` is not used: the
package ``__init__`` imports ``cli``, so runpy warns on stderr.

``python3 perfbench/cli_entry.py --import-time`` prints how long importing
``wsnadapt.cli`` took, in seconds, and exits.
"""

import sys
import time

if sys.argv[1:] == ["--import-time"]:
    start = time.perf_counter()
    import wsnadapt.cli

    print(time.perf_counter() - start)
else:
    from wsnadapt.cli import entrypoint

    entrypoint()
