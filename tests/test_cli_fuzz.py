"""Property fuzz over cli.run: every input ends in a valid report or one stderr line.

Graphs have at most 8 vertices so that brute stays fast.  Each case is an edge
list, an optional weight file, an optional partition file and one command
line.  The files mix well-formed input with the defects the CLI must reject
in one line: empty files, self-loops, duplicate edges and weight lines,
unknown or missing vertices, and nonpositive, non-finite, subnormal and
near-overflow numbers, alone or beside ordinary ones.  Some vertex ids hold a
control character, which a report must escape, or a line break of
str.splitlines() other than \n and \r, which must not end a line.  Every
report must be strict JSON, and a partition report must read back through
verify --partition.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bufpart.cli import run
from test_cli import VALIDATOR

PLAIN = ["1", "2.5", "0.5", "3"]
EXTREME = ["1e-300", "2.3e-308", "5e-324", "1e-320", "1e200", "1e300", "1.7e308"]
INVALID = ["0", "-1", "inf", "nan", "x"]
NAMES = ["0", "1", "2", "3", "4", "5", "6", "7", "a", "b"]
# Controls that str.split() keeps inside a field, and the str.splitlines()
# breaks besides \n and \r, which str.split() takes for whitespace.
CONTROLS = [chr(c) for c in range(0x20) if not chr(c).isspace()] + ["\x7f"]
BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
COMMANDS = ["partition", "cheeger2", "balanced-cut", "kbalanced", "spectrum", "verify",
            "certify", "brute"]

pair = st.tuples(st.integers(0, 7), st.integers(0, 7)).map(sorted).filter(
    lambda p: p[0] != p[1])


@st.composite
def numbers(draw, count):
    """count number strings: plain, one odd value among plain ones, all one value, or mixed."""
    mode = draw(st.sampled_from(["plain", "plain", "one odd", "all equal", "mixed"]))
    odd = st.sampled_from(EXTREME + INVALID)
    values = [draw(st.sampled_from(PLAIN)) for _ in range(count)]
    if mode == "one odd" and count:
        values[draw(st.integers(0, count - 1))] = draw(odd)
    elif mode == "all equal":
        values = [draw(odd)] * count
    elif mode == "mixed":
        values = [draw(st.sampled_from(PLAIN + EXTREME + INVALID)) for _ in range(count)]
    return values


@st.composite
def cases(draw):
    """(command line, edge text, weight text or None, assignment or None)."""
    names = list(draw(st.sampled_from([NAMES[:8], NAMES[2:]])))
    for i in draw(st.lists(st.integers(0, 7), max_size=3)):
        names[i] += draw(st.sampled_from(CONTROLS + BREAKS)) + "z"
    edges = draw(st.lists(pair, min_size=1, max_size=14, unique_by=tuple))
    defect = draw(st.sampled_from(["none"] * 5 + ["empty", "duplicate", "self-loop"]))
    if defect == "empty":
        edges = []
    elif defect != "none":
        edges.append(edges[0] if defect == "duplicate" else [edges[0][0]] * 2)
    costs = draw(numbers(len(edges)))
    if draw(st.booleans()):                  # the default cost of 1 on every edge
        costs = [""] * len(edges)
    text = "".join(f"{names[u]} {names[v]} {c}\n" for (u, v), c in zip(edges, costs))
    used = list(dict.fromkeys(names[x] for edge in edges for x in edge))

    weights = None
    mode = draw(st.sampled_from(["none", "one per vertex"] * 2 + ["arbitrary lines"]))
    if mode == "one per vertex":
        order = draw(st.permutations(used))
        weights = "".join(f"{v} {w}\n" for v, w in zip(order, draw(numbers(len(order)))))
    elif mode == "arbitrary lines":            # unknown, missing and duplicate vertices
        lines = draw(st.lists(st.sampled_from(names), max_size=10))
        weights = "".join(f"{v} {w}\n" for v, w in zip(lines, draw(numbers(len(lines)))))

    name = draw(st.sampled_from(COMMANDS))
    k = draw(st.sampled_from([2, 3, 4, 1, 5, 9, 0, -1]))
    argv = [name]
    if name not in ("cheeger2", "balanced-cut"):
        argv += ["--k", str(k)]
    if name != "spectrum":
        argv += ["--eps", draw(st.sampled_from(["0.1", "0.05", "0.2", "0", "0.25", "0.5",
                                                "0.99", "1", "-0.1"]))]
    if name in ("partition", "certify"):
        argv += ["--delta", draw(st.sampled_from(["0.5", "0.1", "0.2", "0.9", "0", "1"]))]
    if name == "partition":
        argv += ["--seed", str(draw(st.integers(0, 3))),
                 "--restarts", str(draw(st.integers(1, 3)))]

    parts = None
    if name in ("verify", "certify"):
        # k cores dealt round robin, then maybe a buffer, a dropped or an unknown vertex
        parts = {v: {"part_id": i % max(k, 1), "role": "core"} for i, v in enumerate(used)}
        change = draw(st.sampled_from(["none", "buffer", "drop", "unknown", "bad id"]))
        if change == "buffer" and used:
            parts[used[-1]]["role"] = "buffer"
        elif change == "drop" and used:
            del parts[used[-1]]
        elif change == "unknown":
            parts["zz"] = {"part_id": 0, "role": "core"}
        elif change == "bad id" and used:
            parts[used[0]]["part_id"] = -1
    return argv, text, weights, parts


def _run(argv):
    """(exit code, stderr) of run(argv); no Python warning may be raised."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = run(argv)
    assert not caught, [str(w.message) for w in caught]
    return code, err.getvalue()


def _report(path, code, err):
    """The report at path, which must be strict JSON (no raw control characters)
    and match the schema; None when run() wrote none and said why in one line."""
    assert code in (0, 1, 2)
    if not path.exists():
        assert code in (1, 2)
        assert err.count("\n") == 1 and err.startswith("bufpart: "), err
        return None
    assert code in (0, 2) and err == ""
    doc = json.loads(path.read_bytes())
    VALIDATOR.validate(doc)
    return doc


@settings(max_examples=600, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=cases())
def test_every_input_ends_in_a_report_or_one_line(case):
    argv, text, weights, parts = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "g.txt").write_text(text, encoding="utf-8")
        graph = ["--graph", str(tmp / "g.txt")]
        if weights is not None:
            (tmp / "w.txt").write_text(weights, encoding="utf-8")
            graph += ["--weights", str(tmp / "w.txt")]
        out = tmp / "out.json"
        argv = argv + graph + ["--out", str(out)]
        if parts is not None:
            (tmp / "p.json").write_text(json.dumps({"assignment": parts}))
            argv += ["--partition", str(tmp / "p.json")]
        doc = _report(out, *_run(argv))
        if argv[0] == "partition" and doc is not None and "assignment" in doc:
            # The partition reads back on the same graph at its realized budget.
            check = tmp / "verify.json"
            code, err = _run(["verify", *graph, "--partition", str(out),
                              "--k", argv[argv.index("--k") + 1],
                              "--eps", repr(doc["epsilon_realized"]),
                              "--out", str(check)])
            assert (code, err) == (0, "")
            assert _report(check, code, err)["valid"] is True
