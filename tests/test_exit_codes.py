"""The exit-code contract as a property: whatever file and flags it is
given, ``startrans`` exits 0, 1, 2 or 3, never 4 (an internal error) and
never with a traceback, and it finishes within a deadline.

Problem files and output ("star") files are drawn from a small grammar
(fuzzing after Miller, Fredriksen and So, CACM 33 (1990), drawn with
Hypothesis, MacIver et al., JOSS 4 (2019)):

- fields Q, p:2, p:7, p:2^31-1, and ill-typed field blocks;
- variables with valid and invalid names and degrees;
- parameters, quotient generators and map entries from a small alphabet
  with huge exponents and coefficients, in Koszul complexes, in random
  shapes and with shape mismatches;
- ``labels``, ``report`` and ``witness`` blocks, a report ``seconds`` NaN,
  infinite, negative or just below 2^1024;
- a block nested too deeply for the JSON reader.

Each file runs through ``cli.main`` in process under one of ``info``,
``star``, ``verify``, ``iterate``, ``colon``, ``saturate`` and ``koszul``,
with or without ``--field``.  The draws are derandomized, and sized so that
the property takes a few seconds.
"""

import contextlib
import copy
import functools
import io
import json
import os
import signal
import tempfile
from datetime import timedelta

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from startrans.cli import main

FIXTURE = os.path.join(os.path.dirname(__file__), "..", "fixtures", "exa.json")

FIELDS = [
    {"type": "rational"},
    {"type": "prime", "p": 2},
    {"type": "prime", "p": 7},
    {"type": "prime", "p": 2**31 - 1},
]
BAD_FIELDS = [
    {"type": "prime", "p": 4},
    {"type": "prime", "p": "7"},
    {"type": "prime"},
    {"type": "complex"},
    "rational",
]
OVERRIDES = [None, "rational", "p:7", "p:2", "p:2147483647", "p:4", "q", "p:x"]

# a homogeneous entry in x, y: (its degree, its negation)
ENTRIES = {
    "x": (1, "-x"),
    "y": (1, "-y"),
    "x + y": (1, "-x - y"),
    "2*x - y": (1, "-2*x + y"),
    "3/1000003*x": (1, "-3/1000003*x"),
    "x^2": (2, "-x^2"),
    "x*y": (2, "-x*y"),
    "y^2": (2, "-y^2"),
    "123456789012345678901234567890*x^2 + y^2": (
        2, "-123456789012345678901234567890*x^2 - y^2"
    ),
    "x^3000": (3000, "-x^3000"),
}
BAD_ENTRIES = ["0", "1", "x + 1", "z", "x^", "", "x^4294967296", "1/0*x", 7, None]
ALPHABET = sorted(ENTRIES) + BAD_ENTRIES

SECONDS = [
    0.25, 2**1024 - 2**970, float("nan"), -1.0, 1.7976931348623157e308,
    float("inf"), 2**1024, "1", None,
]
LABELS = [
    ["bracket", 0, [0]], ["bracket", 1, []], ["angle", 0], ["star", 0, 1],
    ["angle"], ["bogus", 0], [], "x", ["bracket", "0", [0]],
]
COMMANDS = ["info", "star", "verify", "iterate", "colon", "saturate", "koszul"]

DEEP = "__nested too deeply__"
DEPTH = 100_000


def _rarely(draw):
    """True once in six draws, the rate of each fault of the grammar, and
    False in the simplest draw, which Hypothesis tries first."""
    return draw(st.integers(0, 5)) == 5


def _koszul_block(entries):
    """The Koszul complex of one or two entries, as a complex block."""
    if len(entries) == 1:
        (a,) = entries
        return {"twists": [[0], [-ENTRIES[a][0]]], "maps": [[[a]]]}
    a, b = entries
    da, db = ENTRIES[a][0], ENTRIES[b][0]
    return {
        "twists": [[0], [-da, -db], [-da - db]],
        "maps": [[[a, b]], [[ENTRIES[b][1]], [a]]],
    }


def _random_complex(draw):
    """A complex block of random shape over the whole alphabet."""
    ranks = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    twists = [draw(st.lists(st.integers(-3, 1), min_size=r, max_size=r))
              for r in ranks]
    maps = [
        [[draw(st.sampled_from(ALPHABET)) for _ in range(ranks[k + 1])]
         for _ in range(ranks[k])]
        for k in range(len(ranks) - 1)
    ]
    return {"twists": twists, "maps": maps}


def _misshape(draw, block):
    """``block`` with at most one shape fault."""
    fault = _rarely(draw) and draw(
        st.sampled_from(["row", "entry", "map", "twist", "twists"])
    )
    maps, twists = block["maps"], block["twists"]
    if fault == "row" and maps:
        maps[-1] = maps[-1][:-1]
    elif fault == "entry" and maps and maps[0]:
        maps[0][0] = maps[0][0] + ["x"]
    elif fault == "map" and maps:
        maps.pop()
    elif fault == "twist":
        twists[0] = draw(st.sampled_from([0, "0", [True], [0.5], [2**70]]))
    elif fault == "twists":
        block["twists"] = draw(st.sampled_from([[], None, {}]))
    return block


def _report(draw):
    checks = [
        {
            "name": 3 if _rarely(draw) else "homogeneity",
            "pass": draw(st.sampled_from([True, False, "yes"])),
            "detail": None if _rarely(draw) else "",
            "seconds": draw(st.sampled_from(SECONDS)),
        }
        for _ in range(draw(st.integers(1, 2)) - _rarely(draw))
    ]
    report = {"checks": checks}
    overall = draw(st.sampled_from(["match", True, False, None]))
    if overall == "match":
        overall = all(c["pass"] is True for c in checks)
    if overall is not None:
        report["overall"] = overall
    return draw(st.sampled_from([[], "pass"])) if _rarely(draw) else report


def _labels(draw, complex_block):
    twists = complex_block.get("twists")
    counts = [len(t) if isinstance(t, list) else 1
              for t in (twists if isinstance(twists, list) else [])]
    counts = [c + (_rarely(draw) and draw(st.sampled_from([1, -1]))) for c in counts]
    return [[draw(st.sampled_from(LABELS)) for _ in range(max(c, 0))]
            for c in counts]


def _nest(draw, data):
    """``data`` with at most one block marked for deep nesting."""
    if _rarely(draw):
        data[draw(st.sampled_from(["complex", "report", "labels", "sop"]))] = DEEP
    return data


@st.composite
def problem_files(draw):
    data = {}
    if not _rarely(draw):
        data["field"] = draw(st.sampled_from(FIELDS))
    elif draw(st.booleans()):
        data["field"] = draw(st.sampled_from(BAD_FIELDS))
    data["variables"] = [{"name": "x", "degree": 1}, {"name": "y", "degree": 1}]
    if _rarely(draw):
        data["variables"] = [
            {"name": draw(st.sampled_from(["x", "y", "z", "1x", "x y", "", 7])),
             "degree": draw(st.sampled_from([1, 1, 2, 0, -1, "1", True, 2**40]))}
            for _ in range(draw(st.integers(0, 3)))
        ]
    if _rarely(draw):
        data["quotient"] = draw(st.sampled_from(
            [[], ["x*y"], ["y^3"], ["x + 1"], "x^2", [5]]
        ))
    if not _rarely(draw):
        entries = [draw(st.sampled_from(sorted(ENTRIES))) for _ in range(2)]
        block = _koszul_block(entries[: 1 if _rarely(draw) else 2])
        sop = entries
    else:
        block = _random_complex(draw)
        sop = None
    if sop is None or _rarely(draw):
        sop = draw(st.lists(st.sampled_from(ALPHABET), max_size=3))
    data["sop"] = sop
    data["complex"] = _misshape(draw, block)
    if _rarely(draw):
        data["labels"] = _labels(draw, block)
    if _rarely(draw):
        data["report"] = _report(draw)
    if _rarely(draw):
        data["witness"] = draw(st.sampled_from([[], {"q": ["x"]}, "x"]))
    return _nest(draw, data)


@functools.cache
def _star_file():
    """The output file of ``star`` on the fixture, as parsed JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "exa.star.json")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["star", "--input", FIXTURE, "--output", path]) == 0
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)


@st.composite
def star_files(draw):
    data = copy.deepcopy(_star_file())
    if draw(st.booleans()):
        data["report"] = _report(draw)
    if _rarely(draw):
        data["labels"] = _labels(draw, data["complex"])
    if _rarely(draw):
        del data[draw(st.sampled_from(["labels", "source_complex", "report"]))]
    if _rarely(draw):
        maps = data["complex"]["maps"]
        maps[-1][0][0] = draw(st.sampled_from(ALPHABET))
    if _rarely(draw):
        data["field"] = draw(st.sampled_from(FIELDS + BAD_FIELDS))
    if _rarely(draw):
        data["witness"] = draw(st.sampled_from([[], {"q": ["x"]}, "x"]))
    return _nest(draw, data)


def _text(data):
    """The file text of ``data``: NaN and infinity as the JSON reader reads
    them back, a block marked for nesting as a list DEPTH deep."""
    text = json.dumps(data)
    return text.replace(json.dumps(DEEP), "[" * DEPTH + "]" * DEPTH)


@st.composite
def invocations(draw):
    """(command, --field value or None, file text)."""
    data = draw(st.one_of(problem_files(), star_files()))
    field = draw(st.sampled_from(OVERRIDES)) if _rarely(draw) else None
    return draw(st.sampled_from(COMMANDS)), field, _text(data)


def _argv(command, field, path, tmp):
    argv = [command, "--input", path]
    if field is not None:
        argv += ["--field", field]
    if command in ("star", "koszul", "colon", "saturate"):
        argv += ["--output", os.path.join(tmp, "out.json")]
    if command == "star":
        argv.append("--verify")
    if command in ("iterate", "saturate"):
        argv += ["--max-iter", "2"]
    return argv


class _Hang(BaseException):
    """Raised by the alarm; ``main`` catches only ``Exception``."""


def _alarm(signum, frame):
    raise _Hang


def _fixture():
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


_CRASHED_BEFORE = [  # each exited 1 with a traceback before it was mended
    _text({**_fixture(), "report": DEEP}),
    _text({**_fixture(), "report": {"overall": True, "checks": [
        {"name": "homogeneity", "pass": True, "seconds": 2**1024 - 2**970}
    ]}}),
]


@settings(
    max_examples=150,
    deadline=timedelta(seconds=5),
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(invocations())
@example(("info", None, _CRASHED_BEFORE[0]))
@example(("info", None, _CRASHED_BEFORE[1]))
def test_every_input_exits_zero_to_three_without_a_traceback(invocation):
    command, field, text = invocation
    stdout, stderr = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(30)  # a hang fails here instead of stalling the suite
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "in.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(_argv(command, field, path, tmp))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    err = stderr.getvalue()
    assert code in (0, 1, 2, 3), (code, err)
    assert "Traceback" not in err and "internal error" not in err, err
