import json
import subprocess
import sys

import pytest

CMD = [sys.executable, "-m", "toruscert.cli"]


def run_cli(*args, **kw):
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, **kw
    )


@pytest.fixture
def identity_classes(tmp_path):
    path = tmp_path / "id.json"
    path.write_text(
        json.dumps(
            [
                {
                    "phi": [["1", "0"], ["0", "1"]],
                    "type_pair": None,
                    "complexity_bound": 0,
                    "provenance": "external",
                }
            ]
        )
    )
    return str(path)


def test_farey_dist_golden():
    r = run_cli("farey", "dist", "0/1", "1/0")
    assert r.returncode == 0
    assert r.stdout == '{"distance":1}\n'


def test_eigenslopes_golden():
    r = run_cli("matrix", "eigenslopes", "[[2,1],[1,1]]")
    assert r.returncode == 0
    assert r.stdout == '{"eigenslopes":[]}\n'


def test_eigenslopes_all():
    r = run_cli("matrix", "eigenslopes", "[[1,0],[0,1]]")
    assert json.loads(r.stdout) == {"eigenslopes": "all"}


def test_certify_gluing(identity_classes):
    r = run_cli(
        "certify", "gluing", "--phi", "[[0,1],[-1,0]]", "--classes", identity_classes
    )
    assert r.returncode == 0
    cert = json.loads(r.stdout)
    assert cert["c_distance_lower_bound"] == 1
    # byte determinism
    again = run_cli(
        "certify", "gluing", "--phi", "[[0,1],[-1,0]]", "--classes", identity_classes
    )
    assert again.stdout == r.stdout


def test_certify_gluing_distance_zero_exit_code(identity_classes):
    r = run_cli(
        "certify", "gluing", "--phi", "[[1,0],[0,1]]", "--classes", identity_classes
    )
    assert r.returncode == 2
    assert json.loads(r.stdout)["c_distance_lower_bound"] == 0


def test_certify_verify_roundtrip(tmp_path, identity_classes):
    r = run_cli(
        "certify", "gluing", "--phi", "[[0,1],[-1,0]]", "--classes", identity_classes
    )
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(r.stdout)
    v = run_cli("certify", "verify", str(cert_file))
    assert v.returncode == 0
    assert json.loads(v.stdout) == {"verified": True}


def test_certify_verify_mismatch_is_an_error(tmp_path, identity_classes):
    r = run_cli(
        "certify", "gluing", "--phi", "[[0,1],[-1,0]]", "--classes", identity_classes
    )
    cert = json.loads(r.stdout)
    cert["c_distance_lower_bound"] = 0
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(cert))
    v = run_cli("certify", "verify", str(cert_file))
    assert v.returncode == 1
    assert v.stdout == ""
    assert v.stderr.count("\n") == 1
    assert "recomputation" in json.loads(v.stderr)["error"]


def test_certify_collection(tmp_path, identity_classes):
    spec = {
        "search_bound": 20,
        "orderings": [
            {
                "label": "only",
                "gluings": [
                    {
                        "phi": [["0", "1"], ["-1", "0"]],
                        "classes": json.loads(open(identity_classes).read()),
                    }
                ],
            }
        ],
    }
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    r = run_cli("certify", "collection", "--spec", str(spec_file))
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["best"] == 1
    report_file = tmp_path / "report.json"
    report_file.write_text(r.stdout)
    v = run_cli("certify", "verify", str(report_file))
    assert json.loads(v.stdout) == {"verified": True}


def test_invalid_input_exit_code():
    r = run_cli("farey", "dist", "0/1", "nonsense")
    assert r.returncode == 1
    assert json.loads(r.stderr)["status"] == "invalid-input"
    r = run_cli("matrix", "eigenslopes", "[[1,0],[0,2]]")  # det 2
    assert r.returncode == 1
    r = run_cli("normal", "slope", "1,1,1")  # no essential component
    assert r.returncode == 1


def test_floats_rejected():
    r = run_cli("matrix", "eigenslopes", "[[1.0,0],[0,1]]")
    assert r.returncode == 1
    assert "exact" in json.loads(r.stderr)["error"]


def test_farey_path():
    r = run_cli("farey", "path", "0/1", "2/1")
    assert json.loads(r.stdout) == {"distance": 2, "path": ["0/1", "1/1", "2/1"]}


def test_slope_map():
    r = run_cli("slope", "map", "[[2,1],[1,1]]", "1/0")
    assert json.loads(r.stdout) == {"image": "2/1"}


def test_normal_commands():
    r = run_cli("normal", "slope", "0,0,3")
    assert json.loads(r.stdout) == {"slope": "1/1", "multiplicity": 3, "trivial": 0}
    r = run_cli("normal", "coords", "2/3", "--mult", "2", "--trivial", "1")
    assert json.loads(r.stdout) == {"coordinates": [1, 3, 5]}
    r = run_cli("normal", "intersect", "1,0,1", "0,1,1")
    out = json.loads(r.stdout)
    assert out["geometric"] == 3
    assert out["positives"] + out["negatives"] == 3


def test_classmap_commands():
    # values starting with "-" use the --opt=value form
    r = run_cli(
        "classmap",
        "from-surfaces",
        "--r1=1,0", "--s1=1,1", "--r2=0,1", "--s2=-1,1",
    )
    record = json.loads(r.stdout)
    assert record["phi"] == [["0", "1"], ["-1", "0"]]
    assert record["provenance"] == "two-surface"
    r = run_cli("classmap", "from-slopes", "2/3", "1/1")
    assert json.loads(r.stdout)["provenance"] == "single-slope"


def test_anosov_commands(identity_classes):
    r = run_cli(
        "anosov", "power",
        "--sigma", "[[2,1],[1,1]]", "--psi", "[[1,0],[0,1]]",
        "--classes", identity_classes,
    )
    report = json.loads(r.stdout)
    assert report["overall_N"] == 1
    r = run_cli(
        "anosov", "trace", "--sigma", "[[2,1],[1,1]]",
        "--k", '[["1/2","0"],["0","2"]]', "--n", "3",
    )
    assert json.loads(r.stdout) == {"traces": ["5/2", "3", "13/2", "33/2"]}


def test_version_embeds_conventions_hash():
    from toruscert import CONVENTIONS_HASH

    r = run_cli("--version")
    assert r.stdout == f"toruscert 0.1.0 (conventions {CONVENTIONS_HASH})\n"
    assert r.stdout == "toruscert 0.1.0 (conventions e6725159ed7b)\n"
    assert r.returncode == 0 and r.stderr == ""


# Prints the modules loaded before (the interpreter and json) and after
# cli.main(argv), so each command's imports are checked in a fresh process.
FOOTPRINT = """\
import json, sys
before = sorted(sys.modules)
from toruscert import cli
try:
    cli.main(json.loads(sys.argv[1]))
except SystemExit:
    pass
print(json.dumps([before, sorted(sys.modules)]))
"""
HEAVY = {
    "toruscert.certify", "toruscert.anosov", "toruscert.classmaps",
    "toruscert.matrices", "toruscert.normal", "toruscert.serialize",
}


def loaded_modules(*argv):
    """The modules a cold cli.main(argv) loads beyond the interpreter's own."""
    r = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, json.dumps(argv)],
        capture_output=True, text=True, check=True,
    )
    before, after = json.loads(r.stdout.splitlines()[-1])
    return set(after) - set(before)


@pytest.mark.parametrize("command", ["dist", "path"])
def test_farey_commands_load_only_the_farey_modules(command):
    loaded = loaded_modules("farey", command, "--", "5/7", "-13/4")
    assert "toruscert.farey" in loaded
    assert not loaded & (HEAVY | {"dataclasses", "fractions", "hashlib"})


def test_normal_intersect_loads_no_matrix_or_certificate_module():
    loaded = loaded_modules("normal", "intersect", "1,0,1", "0,1,1")
    assert "toruscert.normal" in loaded
    assert not loaded & (HEAVY - {"toruscert.normal"} | {"hashlib"})


def test_anosov_power_loads_no_certify_module(identity_classes):
    loaded = loaded_modules(
        "anosov", "power", "--sigma", "[[2,1],[1,1]]", "--psi", "[[1,0],[0,1]]",
        "--classes", identity_classes,
    )
    assert "toruscert.anosov" in loaded
    assert not loaded & {"toruscert.certify", "hashlib"}


def test_version_alone_loads_hashlib():
    loaded = loaded_modules("--version")
    assert "hashlib" in loaded
    assert not loaded & HEAVY


def test_pretty_mode():
    r = run_cli("--pretty", "farey", "dist", "0/1", "1/0")
    assert r.stdout == '{\n  "distance": 1\n}\n'


def test_search_bound_flag_recorded(identity_classes):
    r = run_cli(
        "certify", "gluing", "--phi", "[[0,1],[-1,0]]",
        "--classes", identity_classes, "--bound", "33",
    )
    cert = json.loads(r.stdout)
    assert cert["per_class"][0]["result"]["search_bound"] == 33


def test_normal_coords_rejects_bad_multiplicity():
    r = run_cli("normal", "coords", "2/3", "--mult", "0")
    assert r.returncode == 1
    assert json.loads(r.stderr)["status"] == "invalid-input"


def test_search_bound_env(identity_classes, tmp_path):
    import os

    env = dict(os.environ, TORUSCERT_SEARCH_BOUND="7")
    r = subprocess.run(
        CMD + ["certify", "gluing", "--phi", "[[0,1],[-1,0]]",
               "--classes", identity_classes],
        capture_output=True, text=True, env=env,
    )
    cert = json.loads(r.stdout)
    assert cert["per_class"][0]["result"]["search_bound"] == 7


def assert_rejected(r):
    assert r.returncode == 1
    assert json.loads(r.stderr)["status"] == "invalid-input"
    assert "Traceback" not in r.stderr


MISMATCHED_BASIS = {"r1": [5, 0], "s1": [0, 1], "r2": [1, 0], "s2": [0, 7]}


@pytest.mark.parametrize(
    "field",
    [
        {"complexity_bound": "x"},
        {"complexity_bound": True},
        {"type_pair": [True, 2]},
        {"provenance": "two-surface", "basis": MISMATCHED_BASIS},
        {"basis": {"r1": [1, 0], "s1": [0, 1], "r2": [1, 0], "s2": [0, 1]}},
    ],
    ids=[
        "complexity-bound-string",
        "complexity-bound-bool",
        "type-pair-bool",
        "basis-det-mismatch",
        "basis-on-external",
    ],
)
def test_certify_gluing_rejects_bad_class_record(tmp_path, field):
    path = tmp_path / "classes.json"
    path.write_text(json.dumps([dict({"phi": [["1", "0"], ["0", "1"]]}, **field)]))
    assert_rejected(
        run_cli("certify", "gluing", "--phi", "[[0,1],[-1,0]]", "--classes", str(path))
    )


@pytest.mark.parametrize(
    "report",
    [
        {"kind": "distance-certificate"},
        {"kind": "power-bound-report"},
        {"kind": "collection-report", "orderings": []},
    ],
    ids=["certificate-without-gluing", "power-report-without-sigma", "no-orderings"],
)
def test_certify_verify_rejects_malformed_report(tmp_path, report):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    r = run_cli("certify", "verify", str(path))
    assert_rejected(r)
    assert "search bounds" not in r.stderr


def test_certify_collection_rejects_gluing_without_phi(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"orderings": [{"gluings": [{"classes": []}]}]}))
    r = run_cli("certify", "collection", "--spec", str(path))
    assert_rejected(r)
    assert "'phi'" in json.loads(r.stderr)["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["farey", "dist"],
        ["certify", "gluing", "--phi", "[[1,0],[0,1]]", "--classes", "c.json",
         "--bound", "x"],
    ],
    ids=["missing-arguments", "bound-not-an-int"],
)
def test_usage_errors_follow_the_exit_code_contract(argv):
    r = run_cli(*argv)
    assert_rejected(r)
    assert r.stdout == ""
    assert "usage" not in r.stderr


def _write_spec(tmp_path, classes_file, search_bound):
    spec = {
        "search_bound": search_bound,
        "orderings": [{
            "label": "only",
            "gluings": [{
                "phi": [["0", "1"], ["-1", "0"]],
                "classes": json.loads(open(classes_file).read()),
            }],
        }],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


@pytest.mark.parametrize(
    "search_bound", ["x", [1], True, 1001], ids=["string", "list", "bool", "too-large"]
)
def test_collection_rejects_bad_search_bound(tmp_path, identity_classes, search_bound):
    spec = _write_spec(tmp_path, identity_classes, search_bound)
    assert_rejected(run_cli("certify", "collection", "--spec", spec))


def test_search_bound_limit_on_flag_and_env(identity_classes):
    import os

    gluing = ["certify", "gluing", "--phi", "[[0,1],[-1,0]]", "--classes", identity_classes]
    assert_rejected(run_cli(*gluing, "--bound", "1001"))
    for raw in ("0", "1001"):
        env = dict(os.environ, TORUSCERT_SEARCH_BOUND=raw)
        assert_rejected(run_cli(*gluing, env=env))
    r = run_cli(*gluing, "--bound", "1000")
    assert r.returncode == 0
    assert json.loads(r.stdout)["per_class"][0]["result"]["search_bound"] == 1000


def test_verify_rejects_search_bound_past_the_limit(tmp_path, identity_classes):
    r = run_cli(
        "certify", "gluing", "--phi", "[[0,1],[-1,0]]", "--classes", identity_classes,
        "--bound", "5",
    )
    cert = json.loads(r.stdout)
    cert["per_class"][0]["result"]["search_bound"] = 1001
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    assert_rejected(run_cli("certify", "verify", str(path)))


def test_integer_past_the_digit_limit_is_rejected(tmp_path):
    path = tmp_path / "report.json"
    path.write_text('{"kind": ' + "1" * 5000 + "}")
    assert_rejected(run_cli("certify", "verify", str(path)))


@pytest.mark.parametrize(
    "sigma, n",
    [("[[2,1],[1,1]]", "20000"), ("[[10000000001,10000000000],[1,1]]", "500")],
    ids=["n-past-the-limit", "traces-past-the-digit-limit"],
)
def test_anosov_trace_past_its_limits_is_rejected(sigma, n):
    r = run_cli("anosov", "trace", "--sigma", sigma, "--k", "[[1,0],[0,1]]", "--n", n)
    assert_rejected(r)
    assert r.stdout == ""


def test_anosov_power_report_past_the_digit_limit_is_rejected(tmp_path):
    # K = diag(1/x, x): t_0 = 1/x + x has a numerator of 4,401 digits
    x = 10**2200
    path = tmp_path / "classes.json"
    path.write_text(json.dumps([{"phi": [[f"1/{x}", "0"], ["0", str(x)]]}]))
    r = run_cli(
        "anosov", "power", "--sigma", "[[2,1],[1,1]]", "--psi", "[[1,0],[0,1]]",
        "--classes", str(path),
    )
    assert_rejected(r)
    assert r.stdout == ""


def test_normal_intersect_past_the_digit_limit_is_rejected():
    # 2,500-digit coordinates: the counts have about 5,000 digits
    big = "9" * 2500
    r = run_cli("normal", "intersect", f"{big},0,1", f"0,{big},1")
    assert_rejected(r)
    assert r.stdout == ""


def test_normal_intersect_answers_a_pair_with_10_12_crossings():
    # slopes (10^6 + 1)/1 and 1/(10^6 + 1): det = (10^6 + 1)^2 - 1
    r = run_cli("normal", "intersect", "1000000,0,1", "0,1000000,1")
    assert r.returncode == 0
    assert json.loads(r.stdout) == {
        "algebraic": 999998000000,
        "geometric": 1000002000000,
        "negatives": 2000000,
        "positives": 1000000000000,
    }


LONG = "7" * 5000 + "x"
SURFACES = ["--s1=1,1", "--r2=0,1", "--s2=-1,1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["farey", "dist", LONG, "1/2"],
        ["normal", "intersect", f"{LONG},1,1", "1,1,1"],
        ["normal", "intersect", LONG, "1,1,1"],
        ["classmap", "from-surfaces", f"--r1={LONG},1", *SURFACES],
        ["classmap", "from-surfaces", f"--r1={LONG}", *SURFACES],
        ["slope", "map", f"[[1,{LONG}],[0,1]]", "1/2"],
        ["anosov", "trace", "--sigma", "[[2,1],[1,1]]", "--k", "[[1,0],[0,1]]",
         "--n", LONG],
    ],
    ids=["slope", "coordinates", "coordinate-count", "vector", "vector-length",
         "matrix", "usage-error"],
)
def test_error_messages_do_not_echo_long_arguments(argv):
    r = run_cli(*argv)
    assert_rejected(r)
    assert len(r.stderr.encode()) < 300
    assert "(5" in json.loads(r.stderr)["error"]  # the length is reported
