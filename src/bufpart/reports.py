"""Deterministic JSON emission for CLI reports.

Floats are rendered with 17 significant digits (%.17g), which round-trips
float64 exactly; dict insertion order is preserved.  Non-finite values would
not be valid JSON and are emitted as null.  Numpy scalars and arrays are
rendered as the Python values they hold.  Strings escape the quote, the
backslash and every control character U+0000-U+001F (RFC 8259 section 7):
newline, carriage return and tab by their short forms, the others as \\u00XX.
A Verbatim value is JSON text rendered elsewhere (the CLI's n-entry
assignment object, joined in one pass) and is emitted unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Verbatim", "json_string", "render_json", "write_report"]

_ESCAPES = {code: "\\u%04x" % code for code in range(0x20)}
_ESCAPES.update({ord("\n"): "\\n", ord("\r"): "\\r", ord("\t"): "\\t",
                 ord('"'): '\\"', ord("\\"): "\\\\"})


@dataclass(frozen=True)
class Verbatim:
    """A JSON value already rendered as text; render_json copies it as is."""

    text: str


def json_string(s: str) -> str:
    """s as a JSON string literal, quotes included."""
    return '"' + s.translate(_ESCAPES) + '"'


def _render(obj, out: list) -> None:
    if isinstance(obj, str):
        out.append(json_string(obj))
    elif isinstance(obj, Verbatim):
        out.append(obj.text)
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            _render(str(k), out)
            out.append(":")
            _render(v, out)
        out.append("}")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append("%.17g" % obj if math.isfinite(obj) else "null")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _render(v, out)
        out.append("]")
    elif isinstance(obj, np.ndarray):
        _render(obj.tolist(), out)
    elif obj is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def render_json(obj) -> str:
    out: list[str] = []
    _render(obj, out)
    return "".join(out) + "\n"


def write_report(obj, path=None) -> str:
    text = render_json(obj)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
