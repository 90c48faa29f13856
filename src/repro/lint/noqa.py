"""``# pic: noqa`` suppression comments.

Two forms, both line-scoped (the comment must sit on the physical line
the finding is reported at):

* ``# pic: noqa`` — suppress every rule on that line;
* ``# pic: noqa: PIC001,PIC101`` (or ``# pic: noqa[PIC001]``) —
  suppress only the listed rule IDs.

Comments are located with :mod:`tokenize`, so ``pic: noqa`` inside a
string literal never suppresses anything.  A source whose text does
not contain the marker at all is not tokenized: a comment cannot
contain what the text does not.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Iterable

from repro.lint.model import Finding, LintParseError

_NOQA_RE = re.compile(r"pic:\s*noqa(?P<spec>\s*[:\[][A-Za-z0-9_,:\s]*\]?)?", re.IGNORECASE)


def _parse_spec(spec: str | None) -> frozenset[str] | None:
    """Rule IDs named by a noqa spec, or ``None`` for "all rules"."""
    if spec is None:
        return None
    ids = frozenset(
        part.strip().upper()
        for part in spec.strip().strip("[]:").replace(":", ",").split(",")
        if part.strip()
    )
    return ids or None


def suppressions(path: str, source: str) -> dict[int, frozenset[str] | None]:
    """Map line numbers to the rule IDs suppressed there.

    A value of ``None`` means the whole line is suppressed for every
    rule.
    """
    out: dict[int, frozenset[str] | None] = {}
    if _NOQA_RE.search(source) is None:
        return out
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _NOQA_RE.search(tok.string)
            if match is None:
                continue
            line = tok.start[0]
            ids = _parse_spec(match.group("spec"))
            if ids is None or out.get(line, frozenset()) is None:
                out[line] = None
            else:
                existing = out.get(line) or frozenset()
                out[line] = existing | ids
    except (tokenize.TokenError, IndentationError, SyntaxError) as exc:
        raise LintParseError(path, f"tokenize error: {exc}")
    return out


def filter_findings(
    findings: Iterable[Finding], suppressed: dict[int, frozenset[str] | None]
) -> list[Finding]:
    """Drop findings whose line carries a matching noqa comment."""
    kept = []
    for f in findings:
        rules = suppressed.get(f.line, frozenset())
        if rules is None or (rules and f.rule in rules):
            continue
        kept.append(f)
    return kept
