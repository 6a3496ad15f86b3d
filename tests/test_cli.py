import json
import os
import subprocess
import sys

import pytest

import schur
from schur.cli import build_parser, main

# the child interpreter imports the same `schur` as this one
SRC = os.path.dirname(os.path.dirname(schur.__file__))


def run_cli(args, stdin=None):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "schur.cli"] + args,
        input=stdin,
        capture_output=True,
        text=True,
        timeout=600,
        env=dict(os.environ, PYTHONPATH=path),
    )
    return proc


def test_public_api_names_resolve():
    assert all(hasattr(schur, name) for name in schur.__all__)
    removed = {
        "GroupRingElement",
        "multiply",
        "sum_of_set",
        "cayley_scheme",
        "two_equivalent",
        "enumerate_srings_brute",
        "GroupMap",
        "quotient",
        "Subgroup",
        "SectionRef",
        "subgroup",
        "CapExceeded",
        "GroupMismatch",
    }
    assert not removed & set(schur.__all__)
    assert not any(hasattr(schur, name) for name in removed)
    # a subgroup is its indicator row: no wrapper class and no row builders
    gone = {"Subgroup", "subgroup", "trivial_subgroup", "full_subgroup"}
    assert not any(hasattr(schur.group, name) for name in gone)
    assert not hasattr(schur.sring, "SectionRef")
    assert not hasattr(schur.PermGroup, "orbit")
    # a ring keeps no product cache: products come one class at a time
    assert not any(hasattr(schur.SRing, name) for name in ("product_vector", "inverse_class"))


def test_star_import_binds_both_products():
    namespace = {}
    exec("from schur import *", namespace)
    assert namespace["tensor"] is schur.tensor
    assert namespace["wreath"] is schur.wreath


def test_enumerate_writes_header_and_rings(tmp_path):
    out = tmp_path / "rings.json"
    proc = run_cli(["enumerate", "--group", "3,3", "-o", str(out), "--jobs", "1"])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["group"] == [3, 3]
    assert doc["count"] == 40
    assert len(doc["rings"]) == 40
    assert "seconds" in doc and "prunes" in doc


def test_enumerate_default_jobs_reports_search_stats():
    proc = run_cli(["enumerate", "--group", "3,3"])
    assert proc.returncode == 0, proc.stderr
    prunes = json.loads(proc.stdout)["prunes"]
    assert prunes["nodes"] == 66
    assert prunes["leaves"] == 23


def test_budget_flags_belong_to_their_subcommand():
    parser = build_parser()
    owned = {
        ("enumerate", "--group", "3,3"): {"--time-limit", "--jobs"},
        ("check", "-"): set(),
        ("aut", "-"): set(),
        ("verify-paper", "--n", "1"): {"--time-limit", "--jobs"},
    }
    for cmd, flags in owned.items():
        for flag in ("--max-order", "--chain-budget", "--time-limit", "--jobs"):
            argv = list(cmd) + [flag, "1"]
            if flag in flags:
                parser.parse_args(argv)
            else:
                with pytest.raises(SystemExit):
                    parser.parse_args(argv)


def test_enumerate_filter_and_classify(tmp_path):
    out = tmp_path / "rings.json"
    proc = run_cli(
        ["enumerate", "--group", "3,3", "--filter", "quasi-thin", "-o", str(out), "--jobs", "1"]
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert 0 < doc["count"] < 40
    proc2 = run_cli(["classify", str(out)])
    assert proc2.returncode == 0, proc2.stderr
    classes = json.loads(proc2.stdout)
    assert sum(c["size"] for c in classes["classes"]) == doc["count"]


def test_enumerate_unknown_filter_is_usage_error():
    proc = run_cli(["enumerate", "--group", "3,3", "--filter", "bogus", "--jobs", "1"])
    assert proc.returncode == 64


def test_check_valid_and_schurity_roundtrip(tmp_path):
    ring = {"group": [3], "classes": [[[0]], [[1], [2]]]}
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(ring))
    proc = run_cli(["check", str(path)])
    assert proc.returncode == 0
    assert "valid, rank 2" in proc.stdout
    proc2 = run_cli(["check", "--schurity", str(path)])
    assert proc2.returncode == 0
    assert "schurian" in proc2.stdout
    assert "|Aut| = 6" in proc2.stdout


def test_check_invalid_ring_exit_65(tmp_path):
    bad = {"group": [9], "classes": [[[0]], [[1], [2]], [[7], [8]], [[3], [4], [5], [6]]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    proc = run_cli(["check", str(path)])
    assert proc.returncode == 65
    assert "invalid" in proc.stderr


def test_check_malformed_json_exit_64(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    proc = run_cli(["check", str(path)])
    assert proc.returncode == 64


def test_table1_pipe_to_check():
    made = run_cli(["table1", "--row", "6", "--n", "2"])
    assert made.returncode == 0, made.stderr
    checked = run_cli(["check", "--schurity", "-"], stdin=made.stdout)
    assert checked.returncode == 0
    assert "schurian" in checked.stdout


def test_cyclotomic_subcommand():
    proc = run_cli(
        ["cyclotomic", "--group", "9", "--map", "[[8]]"]
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["group"] == [9]
    assert sorted(len(c) for c in doc["classes"]) == [1, 2, 2, 2, 2]


def test_tensor_and_wreath_subcommands(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"group": [3], "classes": [[[0]], [[1]], [[2]]]}))
    b.write_text(json.dumps({"group": [3], "classes": [[[0]], [[1], [2]]]}))
    t = run_cli(["tensor", str(a), str(b)])
    assert t.returncode == 0
    assert len(json.loads(t.stdout)["classes"]) == 6
    w = run_cli(["wreath", str(a), str(b)])
    assert w.returncode == 0
    assert len(json.loads(w.stdout)["classes"]) == 4


def test_aut_subcommand(tmp_path):
    path = tmp_path / "zg.json"
    path.write_text(json.dumps({"group": [3], "classes": [[[0]], [[1]], [[2]]]}))
    proc = run_cli(["aut", str(path)])
    assert proc.returncode == 0
    assert "|Aut| = 3" in proc.stdout
    assert "schurian" in proc.stdout


def test_roundtrip_byte_identical(tmp_path):
    made = run_cli(["table1", "--row", "3", "--n", "2"])
    text = made.stdout.strip()
    import schur.sring as sr

    assert sr.from_json(text).to_json() == text


def test_verify_paper_n1(tmp_path):
    report_path = tmp_path / "report.json"
    proc = run_cli(["verify-paper", "--n", "1", "--report", str(report_path), "--jobs", "1"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(report_path.read_text())
    ids = [c["id"] for c in doc["claims"]]
    assert "enumerate" in ids and "schurian-all" in ids and "e-c1-classes" in ids
    assert all(c["status"] == "pass" for c in doc["claims"])
    assert all(set(c) == {"id", "status", "detail", "seconds"} for c in doc["claims"])


def test_verify_paper_time_limit_stops_every_claim():
    proc = run_cli(["verify-paper", "--n", "2", "--time-limit", "0.000001", "--jobs", "1"])
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "PASS" not in proc.stdout


def test_enumerate_time_limit_zero_exits_2():
    proc = run_cli(["enumerate", "--group", "3,9", "--time-limit", "0", "--jobs", "1"])
    assert proc.returncode == 2, proc.stdout + proc.stderr


def test_classify_over_the_order_cap_exits_2():
    # rings over Z256 validate, but Aut(Z256) is above the order cap of 243
    ring = {"group": [256], "classes": [[[0]], [[i] for i in range(1, 256)]]}
    proc = run_cli(["classify", "-"], stdin=json.dumps([ring]))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "budget exceeded: group order 256 exceeds cap 243" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_main_entry_usage_error_code():
    with pytest.raises(SystemExit) as e:
        main(["enumerate"])  # missing --group
    assert e.value.code == 64


_Z3 = {"group": [3], "classes": [[[0]], [[1]], [[2]]]}
_Z2Z2 = {"group": [2, 2], "classes": [[[0, 0]], [[0, 1]], [[1, 0]], [[1, 1]]]}
# Aut(Z2 x Z2) moves (0, 1) out of its singleton class
_Z2Z2_WREATH = {"group": [2, 2], "classes": [[[0, 0]], [[0, 1]], [[1, 0], [1, 1]]]}


@pytest.mark.parametrize(
    "doc",
    [{"ring": []}, [{"group": [3, 3]}], [_Z3, _Z2Z2], [_Z2Z2_WREATH]],
    ids=["no-rings-list", "ring-without-classes", "mixed-groups", "not-a-union-of-orbits"],
)
def test_classify_malformed_input_is_usage_error(tmp_path, capsys, doc):
    path = tmp_path / "rings.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as e:
        main(["classify", str(path)])
    assert e.value.code == 64
    assert capsys.readouterr().err
