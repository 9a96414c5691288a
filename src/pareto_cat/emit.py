"""The text the CLI prints for a document: ``json.dumps(doc, indent=2,
sort_keys=True) + "\\n"`` for a document with string keys, by one recursive
pass. A result too large to hold as text, the frontier's, yields its own
in pieces (:meth:`FrontierResult.json_pieces`).
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _string


def _text(o, indent: str) -> str:
    """The text of ``o``, whose lines start with ``indent`` (a newline and two
    spaces per level); ``json.dumps`` writes scalars and empty containers."""
    if type(o) is int:
        return int.__repr__(o)
    if not (isinstance(o, (list, tuple, dict)) and o):
        return json.dumps(o)
    inner = indent + "  "
    if isinstance(o, dict):
        items = [_string(k) + ": " + _text(v, inner) for k, v in sorted(o.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    return "[" + inner + ("," + inner).join([_text(x, inner) for x in o]) + indent + "]"


def text(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)`` and a newline."""
    return _text(doc, "\n") + "\n"
