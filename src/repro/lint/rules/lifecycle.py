"""PIC5xx: resource-lifecycle typestate (whole-program).

The zero-copy substrate (PR 5) moved record batches into POSIX shared
memory: a ``SharedMemory`` block that is created but never
``close()``d *and* ``unlink()``ed outlives the process and eats
``/dev/shm`` until a reboot.  Pools must be ``shutdown()``, files and
mmaps ``close()``d.  These rules read the converged typestate facts
from :mod:`repro.lint.project.typestate`, which walks the
exception-edge IR (schema v2) with acquire/release protocols:

* **PIC501** — a resource can leak: an exception between acquisition
  and release escapes the function with the resource still live, or
  the function simply never releases it on the normal path.
* **PIC502** — double release: a release method is called again on a
  resource that every path has already released.
* **PIC503** — use after release: a non-release method or data
  attribute is touched after the release is certain.

``with`` blocks, ``try``/``finally`` release, releasing the resource
inside a callee (interprocedural release summaries), and handing the
resource off (return / store / argument escape) all count as handled
and stay silent.
"""

from __future__ import annotations

from repro.lint.rules import FamilyRule

#: One row per rule: id, ``--list-rules`` summary, ``--explain`` doc line,
#: and the ``ProjectAnalysis`` method that runs the family's pass.
RULES = (
    FamilyRule(
        "PIC501",
        "resource (shm block, pool, file, mmap) can leak on an exception path",
        "PIC501: acquired resource not released on every path.",
        "typestate",
    ),
    FamilyRule(
        "PIC502",
        "release method called again on an already-released resource",
        "PIC502: resource released twice.",
        "typestate",
    ),
    FamilyRule(
        "PIC503",
        "resource used after it was released on every path",
        "PIC503: resource used after release.",
        "typestate",
    ),
)
