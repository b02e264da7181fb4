"""Mutated problem and output files through ``cli.main``: whatever the edit,
``info``, ``star`` and ``verify`` exit 0-3 and raise nothing.  Exit 4 is
an engine fault, which no file can cause."""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from startrans.cli import main

FIXTURE = os.path.join(os.path.dirname(__file__), "..", "fixtures", "exa.json")

# values of every JSON type, to put in place of a value of another type
RETYPED = (None, True, 0, -3, 10**400, 2.5, "x", "", [], [0], {}, {"a": 1})
POLYNOMIALS = (
    "0", "1", "-1", "x", "-y", "x^2", "x*y+y^2", "2/3*x^2", "x^2-x", "z",
    "x^", "x^4294967296",
)


def _documents():
    """The fixture and the output ``star`` writes from it, as JSON data."""
    with open(FIXTURE, encoding="utf-8") as fh:
        problem = json.load(fh)
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "exa.star.json")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["star", "--input", FIXTURE, "--output", out]) == 0
        with open(out, encoding="utf-8") as fh:
            output = json.load(fh)
    return {"problem": problem, "output": output}


DOCUMENTS = _documents()


def _paths(node, prefix=()):
    """The path and value of every node below ``node``, depth first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,), value
        yield from _paths(value, prefix + (key,))


def _is_twist(path, value):
    return "twists" in path and isinstance(value, int) and not isinstance(value, bool)


def _is_polynomial(path, value):
    blocks = ("maps", "sop", "quotient")
    return isinstance(value, str) and any(b in path for b in blocks)


# each kind of edit and the nodes it applies to, by path and value
MUTATIONS = {
    "drop-key": lambda path, value: isinstance(path[-1], str),
    "retype": lambda path, value: True,
    "edit-polynomial": _is_polynomial,
    "resize-list": lambda path, value: isinstance(value, list),
    "change-twist": _is_twist,
}


def _mutate(doc, kind, path, data):
    *up, key = path
    parent = doc
    for k in up:
        parent = parent[k]
    value = parent[key]
    if kind == "drop-key":
        del parent[key]
    elif kind == "retype":
        parent[key] = data.draw(
            st.sampled_from([v for v in RETYPED if type(v) is not type(value)])
        )
    elif kind == "edit-polynomial":
        parent[key] = data.draw(st.sampled_from(POLYNOMIALS))
    elif kind == "change-twist":
        parent[key] = value + data.draw(st.sampled_from((-2, -1, 1, 3)))
    elif value and data.draw(st.booleans()):
        del value[data.draw(st.integers(0, len(value) - 1))]
    else:
        # a row or a label more: a copy of one already there, or a fresh one
        fresh = st.sampled_from(RETYPED)
        extra = copy.deepcopy(value[0]) if value else data.draw(fresh)
        value.insert(data.draw(st.integers(0, len(value))), extra)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(DOCUMENTS)), st.data())
def test_mutated_files_exit_zero_to_three(name, data):
    doc = copy.deepcopy(DOCUMENTS[name])
    for _ in range(data.draw(st.integers(1, 2), label="edits")):
        kind = data.draw(st.sampled_from(sorted(MUTATIONS)), label="kind")
        nodes = [p for p, v in _paths(doc) if MUTATIONS[kind](p, v)]
        if not nodes:
            continue
        # a block first, so that small blocks are edited as often as large
        block = data.draw(st.sampled_from(sorted({p[0] for p in nodes})))
        inside = [p for p in nodes if p[0] == block]
        path = data.draw(st.sampled_from(inside), label="path")
        _mutate(doc, kind, path, data)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = os.path.join(tmp, "out.json")
        runs = (
            ["info", "--input", path],
            ["star", "--input", path, "--output", out, "--verify"],
            ["verify", "--input", path],
        )
        for argv in runs:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(argv)
            assert code in (0, 1, 2, 3), (argv[0], code, sink.getvalue())
