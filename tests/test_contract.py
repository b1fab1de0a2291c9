"""The CLI's input contract, checked in-process on malformed argv and files.

Every call either returns 0 or 2 with one JSON line on stdout and nothing
on stderr, or returns 1 with nothing on stdout and one JSON error line of
under 300 bytes on stderr; no call raises.  -h and --version exit through
argparse and --pretty spreads JSON over several lines, so they stay out.
"""

import copy
import json
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from toruscert import cli
from toruscert.certify import c_distance, certificate_to_json
from toruscert.classmaps import ClassMap
from toruscert.errors import InvalidInputError, ascii_integer, excerpt, integer
from toruscert.matrices import UnimodularZ

BIG = 10**3000  # 3001 digits: its square is past the 4300-digit printing limit
X = 10**4299  # 4300 digits, the longest integer JSON reads
IDENTITY = [["1", "0"], ["0", "1"]]
LONG = "x" * 5000
CERTIFICATE = certificate_to_json(
    c_distance(UnimodularZ(0, 1, -1, 0), [ClassMap.identity()], 5)
)


def run(argv, files, tmp_path, capsys):
    """cli.main on argv with each {name} replaced by the path of files[name]."""
    for name, text in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        argv = [arg.replace("{" + name + "}", str(path)) for arg in argv]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def check_contract(code, out, err):
    if code in (0, 2):
        assert err == ""
        assert out.endswith("\n") and out.count("\n") == 1
        json.loads(out)
    else:
        assert code == 1
        assert out == ""
        assert err.endswith("\n") and err.count("\n") == 1
        assert len(err.encode()) < 300, err[:300]
        assert json.loads(err)["status"] == "invalid-input"


GLUING = ["certify", "gluing", "--phi", "[[0,1],[-1,0]]", "--classes", "{classes}"]


def classes(*records):
    return {"classes": json.dumps(list(records))}


EXPLICIT = {
    "eigenslopes-determinant-past-the-digit-limit": (
        ["matrix", "eigenslopes", f"[[{BIG},0],[0,{BIG}]]"], {}),
    "from-surfaces-determinant-past-the-digit-limit": (
        ["classmap", "from-surfaces", f"--r1={BIG},1", f"--s1=1,{BIG}",
         "--r2=1,0", "--s2=0,1"], {}),
    "matrix-of-4300-digit-entries": (
        ["matrix", "eigenslopes", f"[[{X},{X}],[{X},{X + 2}]]"], {}),
    "long-provenance": (
        GLUING, classes({"phi": IDENTITY, "provenance": LONG})),
    "long-type-pair-entry": (
        GLUING, classes({"phi": IDENTITY, "type_pair": [LONG, 1]})),
    "record-without-phi": (GLUING, classes({"provenance": LONG})),
    "long-collection-label": (
        ["certify", "collection", "--spec", "{spec}"],
        {"spec": json.dumps({"orderings": [{"label": LONG, "gluings": []}]})}),
    "tampered-report": (
        ["certify", "verify", "{report}"],
        {"report": json.dumps(dict(CERTIFICATE, c_distance_lower_bound=0))}),
    # Integers as text are an optional sign and ASCII digits, nothing else.
    "slope-with-underscore-and-arabic-indic-digit": (
        ["farey", "dist", "1_0/3", "\u0661/2"], {}),
    "slope-with-surrounding-space": (["farey", "dist", " 1/3", "1/2"], {}),
    "coordinates-with-underscore-and-space": (
        ["normal", "intersect", " 1_0,0,1", "0,\u0661,1"], {}),
    "vector-with-fullwidth-digit": (
        ["classmap", "from-surfaces", "--r1=\uff11,0", "--s1=1,1", "--r2=0,1",
         "--s2=-1,1"], {}),
    "matrix-entry-with-underscore": (
        ["matrix", "eigenslopes", '[["1_0","0"],["0","1/1_0"]]'], {}),
    "class-file-entry-with-arabic-indic-digit": (
        GLUING, classes({"phi": [["\u0661", "0"], ["0", "1"]]})),
    "bound-with-underscore": (GLUING[:-1] + ["{classes}", "--bound=1_0"],
                              classes({"phi": IDENTITY})),
    "count-with-arabic-indic-digit": (
        ["normal", "coords", "1/2", "--mult=\u0662"], {}),
    "trivial-with-space": (["normal", "coords", "1/2", "--trivial= 1"], {}),
    "complexity-with-underscore": (
        ["classmap", "from-slopes", "1/2", "1/1", "--complexity=0_0"], {}),
    "trace-index-with-fullwidth-digit": (
        ["anosov", "trace", "--sigma=[[2,1],[1,1]]", "--k=[[1,0],[0,1]]",
         "--n=\uff15"], {}),
}


@pytest.mark.parametrize("argv, files", EXPLICIT.values(), ids=EXPLICIT.keys())
def test_explicit_bad_inputs_exit_1_with_a_short_json_error(
    argv, files, tmp_path, capsys
):
    code, out, err = run(argv, files, tmp_path, capsys)
    check_contract(code, out, err)
    assert code == 1


@pytest.mark.parametrize("value", [True, 1.0, "1", None, [1], -1, 4])
def test_integer_rejects_all_but_ints_in_range(value):
    with pytest.raises(InvalidInputError):
        integer(value, "a count", 0, 3)


@pytest.mark.parametrize(
    "text", ["", "+", "-", "1_0", " 1", "1 ", "1\n", "\u0661", "\uff11", "1.0", "0x1"]
)
def test_ascii_integer_rejects_all_but_sign_and_digits(text):
    with pytest.raises(InvalidInputError):
        ascii_integer(text)


def test_ascii_integer_reads_sign_and_digits():
    assert [ascii_integer(t) for t in ("0", "-0", "+7", "007", "-12")] == [0, 0, 7, 7, -12]
    assert ascii_integer("9" * 4300) == int("9" * 4300)
    with pytest.raises(InvalidInputError):
        ascii_integer("9" * 4301)


@pytest.mark.parametrize("raw, code", [("5", 0), ("\u0665", 1), (" 5", 1), ("5_0", 1)])
def test_search_bound_variable_takes_ascii_digits(
    raw, code, tmp_path, capsys, monkeypatch
):
    monkeypatch.setenv("TORUSCERT_SEARCH_BOUND", raw)
    result = run(GLUING, classes({"phi": IDENTITY}), tmp_path, capsys)
    check_contract(*result)
    assert result[0] == code


def test_integer_returns_ints_in_range():
    assert integer(3, "a count", 0, 3) == 3
    assert integer(-10**50, "an entry") == -10**50


def test_excerpt_never_prints_a_long_value():
    assert excerpt(10**5000) == "an integer of about 5001 digits"
    assert excerpt(-(10**39)) == "an integer of about 40 digits"
    assert excerpt(10**38) == str(10**38)
    assert "more than" in excerpt([10**5000])
    assert excerpt("x" * 50) == "'" + "x" * 39 + "... (52 characters)"
    quoted = excerpt("\u00e9" * 50)
    assert quoted.isascii() and len(quoted) < 70


# --- the fuzz -----------------------------------------------------------------

# -h, --help and --version (and abbreviations) exit through argparse, and
# --pretty writes several lines.
text = st.text(max_size=12).filter(lambda t: not re.match(r"-(-?h|-v|-p)", t))
JUNK = ["", " ", "x", "1.5", "{}", "[", "9" * 5000, "7" * 5000 + "x", "missing.json"]
KINDS = {
    "slope": ["0/1", "1/0", "-3/2", "2/3", "5", "1/0/2", "0/0"],
    "matrix": [
        "[[2,1],[1,1]]", "[[1,0],[0,1]]", "[[0,1],[-1,0]]", "[[1,0],[0,2]]",
        '[["1/2","0"],["0","2"]]', "[[1.0,0],[0,1]]", "[[1,0]]", "[[true,0],[0,1]]",
        f"[[{BIG},0],[0,{BIG}]]", f"[[{X},{X}],[{X},{X + 2}]]",
    ],
    "coords": ["1,1,1", "1,0,1", "0,0,3", "1,2", "1,,2", "-1,0,1", f"{X},0,1"],
    "vector": [
        "1,0", "0,1", "-1,1", "1,1", "0,0", "1_0,2", "1,2,3", f"{BIG},1", f"1,{BIG}",
    ],
    "int": ["0", "1", "3", "5", "-1", "1001", "20000"],
    "classes": ["{classes}"],
    "spec": ["{spec}"],
    "report": ["{report}"],
}
# Each slot is a positional value or --option=value of a kind in KINDS.
COMMANDS = {
    "farey dist": "slope slope",
    "farey path": "slope slope",
    "slope map": "matrix slope",
    "matrix eigenslopes": "matrix",
    "normal slope": "coords",
    "normal coords": "slope --mult=int --trivial=int",
    "normal intersect": "coords coords",
    "classmap from-surfaces": (
        "--r1=vector --s1=vector --r2=vector --s2=vector --complexity=int"
    ),
    "classmap from-slopes": "slope slope --complexity=int",
    "certify gluing": "--phi=matrix --classes=classes --bound=int",
    "certify collection": "--spec=spec --bound=int",
    "certify verify": "report",
    "anosov power": "--sigma=matrix --psi=matrix --classes=classes",
    "anosov trace": "--sigma=matrix --k=matrix --n=int",
}


small_ints = st.integers(-3, 4)
scalars = st.one_of(
    st.none(), st.booleans(), small_ints, st.floats(allow_nan=False),
    st.sampled_from(["1/2", "0", "x", "1/0", "-2", LONG, BIG, X]),
)
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)
entries = st.one_of(small_ints, st.sampled_from(["1/2", "2", "-1/3", "x", True]))
matrices = st.one_of(
    st.sampled_from([IDENTITY, [[0, 1], [-1, 0]], [["2", "1"], ["1", "1"]]]),
    st.lists(st.lists(entries, min_size=2, max_size=2), min_size=2, max_size=2),
    json_values,
)
records = st.fixed_dictionaries(
    {"phi": matrices},
    optional={
        "type_pair": st.one_of(st.none(), st.lists(scalars, max_size=3)),
        "complexity_bound": scalars,
        "provenance": st.sampled_from(["external", "two-surface", LONG, 1]),
        "basis": json_values,
    },
)
record_lists = st.lists(st.one_of(records, json_values), max_size=3)
gluings = st.fixed_dictionaries({}, optional={"phi": matrices, "classes": record_lists})
orderings = st.fixed_dictionaries(
    {},
    optional={
        "label": st.one_of(st.text(max_size=5), scalars),
        "gluings": st.lists(gluings, max_size=2),
    },
)
specs = st.fixed_dictionaries(
    {"orderings": st.lists(orderings, max_size=2)},
    optional={"search_bound": st.one_of(st.sampled_from([1, 5, 0, 1001]), scalars)},
)
FIELDS = [
    ("kind",), ("gluing",), ("per_class",), ("c_distance_lower_bound",),
    ("per_class", 0, "class_map"), ("per_class", 0, "class_map", "phi"),
    ("per_class", 0, "result"), ("per_class", 0, "result", "search_bound"),
    ("per_class", 0, "result", "empirical_witness"),
]


@st.composite
def reports(draw):
    """An emitted certificate with one field replaced."""
    data = copy.deepcopy(CERTIFICATE)
    *keys, last = draw(st.sampled_from(FIELDS))
    target = data
    for key in keys:
        target = target[key]
    target[last] = draw(st.one_of(json_values, st.sampled_from([1, 2, 1001])))
    return data


FILES = {
    "classes": st.one_of(record_lists.map(json.dumps), records.map(json.dumps), text),
    "spec": st.one_of(specs.map(json.dumps), json_values.map(json.dumps)),
    "report": st.one_of(reports().map(json.dumps), json_values.map(json.dumps)),
}
VALUES = {
    kind: st.one_of(*[st.sampled_from(tokens)] * 3, st.sampled_from(JUNK), text)
    for kind, tokens in KINDS.items()
}


@st.composite
def cases(draw):
    """A subcommand whose slots are left out, doubled or filled by a value,
    mostly one of the slot's kind, with the files its argv names."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = command.split()
    if draw(st.integers(0, 19)) == 0:
        argv[draw(st.integers(0, 1))] = draw(text)
    for slot in COMMANDS[command].split():
        option, _, kind = slot.rpartition("=")
        for _ in range(draw(st.sampled_from([1, 1, 1, 1, 1, 1, 0, 2]))):
            value = draw(VALUES[kind])
            argv.append(f"{option}={value}" if option else value)
    files = {
        name: draw(contents)
        for name, contents in FILES.items()
        if any("{" + name + "}" in arg for arg in argv)
    }
    return argv, files


@settings(
    max_examples=600,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(case=cases())
def test_cli_contract_holds_on_malformed_argv_and_files(
    case, tmp_path, capsys, monkeypatch
):
    monkeypatch.delenv("TORUSCERT_SEARCH_BOUND", raising=False)
    check_contract(*run(*case, tmp_path, capsys))


# --- nesting and floats -------------------------------------------------------

# The recursion limit leaves a window of only a few depths where a document
# decodes but a later step that walks it does not, so the sweep takes every
# depth around the limit.
DEPTHS = [1, 10, 100, *range(850, 1051), 100_000]


def nested(depth):
    return "[" * depth + "1" + "]" * depth


def with_deep(value):
    """value as JSON text, with {deep} in place of each "@" string."""
    return json.dumps(value).replace('"@"', "{deep}")


LABELLED = {"label": "@", "gluings": [{"phi": IDENTITY, "classes": [{"phi": IDENTITY}]}]}
NESTED = {
    "matrix-argument": (["matrix", "eigenslopes", "{deep}"], {}),
    "class-file": (GLUING, {"classes": with_deep([{"phi": "@"}])}),
    "spec": (
        ["certify", "collection", "--spec", "{spec}"],
        {"spec": with_deep({"orderings": [{"label": "L", "gluings": [{"phi": "@"}]}]})},
    ),
    "spec-label": (
        ["certify", "collection", "--spec", "{spec}", "--bound", "1"],
        {"spec": with_deep({"orderings": [LABELLED]})},
    ),
    "report": (
        ["certify", "verify", "{report}"],
        {"report": with_deep(dict(CERTIFICATE, gluing="@"))},
    ),
}


@pytest.mark.parametrize("argv, files", NESTED.values(), ids=NESTED.keys())
def test_nested_documents_keep_the_contract_at_every_depth(argv, files, tmp_path, capsys):
    for depth in DEPTHS:
        deep = nested(depth)
        case_argv = [arg.replace("{deep}", deep) for arg in argv]
        case_files = {name: text.replace("{deep}", deep) for name, text in files.items()}
        try:
            check_contract(*run(case_argv, case_files, tmp_path, capsys))
        except (AssertionError, RecursionError) as exc:
            raise AssertionError(f"nesting depth {depth}") from exc


def test_a_class_file_nested_100000_deep_exits_1_in_a_fresh_process(tmp_path):
    path = tmp_path / "classes.json"
    path.write_text(nested(100_000))
    argv = ["certify", "gluing", "--phi", "[[0,1],[-1,0]]", "--classes", str(path)]
    r = subprocess.run(
        [sys.executable, "-m", "toruscert.cli", *argv], capture_output=True, text=True
    )
    check_contract(r.returncode, r.stdout, r.stderr)
    assert r.returncode == 1


@pytest.mark.parametrize(
    "literal, shown", [("1.5", "1.5"), ("NaN", "nan"), ("-Infinity", "-inf"), ("1e400", "inf")]
)
def test_floats_are_refused_with_the_exact_message(literal, shown, tmp_path, capsys):
    error = (
        f'{{"error":"floating-point value {shown} rejected: inputs must be exact",'
        '"status":"invalid-input"}\n'
    )
    matrix = f"[[{literal},0],[0,1]]"
    for argv, files in [
        (["matrix", "eigenslopes", matrix], {}),
        (GLUING, {"classes": f'[{{"phi": {matrix}}}]'}),
    ]:
        assert run(argv, files, tmp_path, capsys) == (1, "", error)


def test_a_float_hidden_by_a_duplicate_key_is_refused(tmp_path, capsys):
    files = {"classes": '[{"phi": [[1, 0], [0, 1]], "a": 1.5, "a": 1}]'}
    code, out, err = run(GLUING, files, tmp_path, capsys)
    check_contract(code, out, err)
    assert code == 1 and "floating-point value 1.5" in err
