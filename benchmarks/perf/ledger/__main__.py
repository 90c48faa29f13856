"""``python -m benchmarks.perf.ledger`` — same entry point as ``run.py``."""

import sys

from benchmarks.perf.ledger.run import main

sys.exit(main())
