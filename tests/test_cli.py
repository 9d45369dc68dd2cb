import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hopfpath
from hopfpath.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_quiver_build_text(capsys):
    code, out, _ = run(capsys, "quiver", "build", "--group", "cyclic:3",
                       "--ram", "g=1")
    assert code == 0
    assert "e -> g" in out and "g^2 -> e" in out


def test_quiver_build_json_round_trip(capsys):
    code, out, _ = run(capsys, "quiver", "build", "--group", "cyclic:4",
                       "--ram", "g=1,g^2=2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["vertices"] == ["e", "g", "g^2", "g^3"]
    assert len(data["arrows"]) == 4 + 8


def test_quiver_infinite_window(capsys):
    code, out, _ = run(capsys, "quiver", "build", "--group", "infinite",
                       "--ram", "g=1", "--window=-1:1", "--json")
    assert code == 0
    assert json.loads(out)["vertices"] == ["g^-1", "e", "g"]


def test_quiver_connected(capsys):
    code, out, _ = run(capsys, "quiver", "connected", "--group", "cyclic:4",
                       "--ram", "g^2=1")
    assert code == 0
    assert out.strip() == "connected: false"


def test_graded_verify_exit_zero(capsys):
    code, out, _ = run(capsys, "graded", "verify", "--kind", "cycle",
                       "--n", "4", "--q-order", "4", "--max-len", "3",
                       "--json")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_graded_table_csv(capsys):
    code, out, _ = run(capsys, "graded", "table", "--kind", "cycle",
                       "--n", "2", "--q-order", "2", "--max-len", "1",
                       "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "left,right,coeff,result"
    assert '"p[0,1]","p[0,1]",0,' in lines


@pytest.mark.parametrize("assoc_len", ["-1", "9"])
def test_graded_verify_rejects_an_associativity_bound_outside_max_len(
        capsys, assoc_len):
    # -1 would check no triple and 9 would be cut to --max-len 3
    code, out, err = run(capsys, "graded", "verify", "--kind", "cycle",
                         "--n", "3", "--q-order", "3", "--max-len", "3",
                         "--assoc-len", assoc_len)
    assert (code, out) == (2, "")
    assert err == "error: assoc_len must be between 0 and max_len\n"


@pytest.mark.parametrize("argv, size", [
    (("verify", "--max-len", "30"), "3,575,881 basis pairs"),
    (("table", "--max-len", "40"), "11,029,041 basis pairs"),
])
def test_graded_work_is_bounded_before_it_starts(capsys, argv, size):
    command, *bound = argv
    start = time.perf_counter()
    code, out, err = run(capsys, "graded", command, "--kind", "chain",
                         "--q", "2", *bound)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (f"error: {size} exceed the maximum of 200,000; "
                   "lower the length bound\n")


def test_present_nf(capsys):
    code, out, _ = run(capsys, "present", "nf", "--family", "cycle-deform",
                       "--n", "4", "--q-order", "4", "--lambda", "1",
                       "--word", "a p a h^3")
    assert code == 0
    assert out.strip() == "a^2 h^3 + p a^2 h^3"


def test_present_confluence(capsys):
    code, out, _ = run(capsys, "present", "confluence", "--family",
                       "cycle-half", "--n", "4", "--q-order", "2",
                       "--mu", "1", "--json")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_present_table(capsys):
    code, out, _ = run(capsys, "present", "table", "--family",
                       "type-one-cycle", "--n", "4", "--q-order", "2",
                       "--mu", "1", "--weight-bound", "2", "--json")
    assert code == 0
    rows = json.loads(out)
    lookup = {(r["left"], r["right"]): r["result"] for r in rows}
    assert lookup[("a", "a")] == [
        {"coeff": "1", "k": 0, "j": 0, "i": 0},
        {"coeff": "-1", "k": 0, "j": 0, "i": 2},
    ]


def test_present_classify(capsys):
    left = '{"family":"cycle-deform","n":3,"qOrder":3,"lambda":1}'
    right = '{"family":"cycle-deform","n":3,"qOrder":3,"lambda":2}'
    code, out, _ = run(capsys, "present", "classify", "--left", left,
                       "--right", right)
    assert code == 0
    assert out.strip() == "isomorphic: true"
    right0 = '{"family":"cycle-deform","n":3,"qOrder":3,"lambda":0}'
    code, out, _ = run(capsys, "present", "classify", "--left", left,
                       "--right", right0)
    assert code == 0
    assert out.strip() == "isomorphic: false"


def test_verify_hopf_pass(capsys):
    code, out, _ = run(capsys, "verify", "hopf", "--family", "cycle-deform",
                       "--n", "4", "--q-order", "4", "--lambda", "1",
                       "--degree", "8", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["family"] == "cycle-deform"


def test_verify_hopf_failing_reading_exits_one(capsys):
    # the q-integer reading of the half-order commutator coefficient is
    # not coproduct-compatible once (d-1)!_q differs from (d-1)_q
    code, out, _ = run(capsys, "verify", "hopf", "--family", "cycle-half",
                       "--n", "8", "--q-order", "4", "--mu", "1",
                       "--coeff-reading", "integer", "--degree", "4",
                       "--json")
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_verify_forced_vanishing(capsys):
    code, out, _ = run(capsys, "verify", "forced-vanishing", "--n", "4",
                       "--d", "2", "--json")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_a_zero_trial_is_a_usage_error(capsys):
    # the suite checks the value 0 itself; as a trial, its zero residual
    # would read as a failed obstruction
    code, out, err = run(capsys, "verify", "forced-vanishing", "--n", "4",
                         "--d", "2", "--trials", "0,1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "must be nonzero" in err


def test_verify_degeneration(capsys):
    code, out, _ = run(capsys, "verify", "degeneration", "--family",
                       "chain-root", "--q-order", "2", "--lambda", "1",
                       "--degree", "6")
    assert code == 0


def test_catalog(capsys):
    code, out, _ = run(capsys, "catalog", "simple-pointed", "--max-n", "2")
    assert code == 0
    assert "type-one-cycle, n=2, q=-1, mu=1" in out
    assert "chain-q1, q=1, lambda=1" in out
    code, out, _ = run(capsys, "catalog", "simple-pointed", "--max-n", "2",
                       "--json")
    data = json.loads(out)
    assert {"family": "chain-q1", "q": "1", "lambda": "1"} in data


def test_usage_error_exit_two(capsys):
    code, _, err = run(capsys, "verify", "hopf", "--family", "cycle-deform",
                       "--n", "4", "--q-order", "2", "--lambda", "1")
    assert code == 2
    assert "order(q) must equal n" in err


def test_invalid_order_for_conductor(capsys):
    code, _, err = run(capsys, "present", "nf", "--family", "cycle-graded",
                       "--n", "3", "--q-order", "3", "--conductor", "4",
                       "--word", "h")
    assert code == 2
    assert "not representable" in err


def test_determinism(capsys):
    args = ("verify", "hopf", "--family", "cycle-half", "--n", "4",
            "--q-order", "2", "--mu", "1", "--degree", "6", "--json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "graded", "verify", "--kind", "cycle",
                       "--n", "2", "--q-order", "2", "--max-len", "2",
                       "--json", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["pass"] is True


def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "report.json"
    code, out, err = run(capsys, "graded", "verify", "--kind", "cycle",
                         "--n", "2", "--q-order", "2", "--max-len", "2",
                         "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "internal error" not in err
    assert not target.exists()


def test_conductor_env_override(capsys, monkeypatch):
    monkeypatch.setenv("HOPFPATH_CONDUCTOR", "12")
    code, out, _ = run(capsys, "present", "nf", "--family", "cycle-graded",
                       "--n", "3", "--q-order", "3", "--word", "h^3")
    assert code == 0
    assert out.strip() == "1"


def test_conductor_zero_is_rejected(capsys, monkeypatch):
    args = ("present", "nf", "--family", "cycle-graded", "--n", "3",
            "--q-order", "3", "--word", "h^-1")
    code, out, err = run(capsys, *args, "--conductor", "0")
    assert (code, out) == (2, "")
    assert "conductor must be a positive integer" in err
    monkeypatch.setenv("HOPFPATH_CONDUCTOR", "0")
    code, out, err = run(capsys, *args)
    assert (code, out) == (2, "")
    assert "conductor must be a positive integer" in err


@pytest.mark.parametrize("family_args, word", [
    (("--family", "type-one-cycle", "--n", "2", "--q-order", "2",
      "--mu", "1"), "p"),
    (("--family", "type-one-cycle", "--n", "2", "--q-order", "2",
      "--mu", "1"), "H"),
    (("--family", "type-one-cycle", "--n", "2", "--q-order", "2",
      "--mu", "1"), "a p"),
    (("--family", "chain-q1", "--lambda", "1"), "p a"),
])
def test_nf_rejects_letters_outside_the_presentation(capsys, family_args,
                                                     word):
    code, out, err = run(capsys, "present", "nf", *family_args,
                         "--word", word)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "not a generator" in err


@pytest.mark.parametrize("argv", [
    ("verify", "hopf", "--family", "cycle-deform", "--n", "4",
     "--q-order", "4", "--lambda", "1", "--degree", "-3"),
    ("verify", "antipode", "--family", "chain-root", "--q-order", "3",
     "--lambda", "1", "--degree", "-3"),
    ("verify", "degeneration", "--family", "cycle-deform", "--n", "4",
     "--q-order", "4", "--lambda", "1", "--degree", "0"),
    ("present", "confluence", "--family", "cycle-half", "--n", "4",
     "--q-order", "2", "--mu", "1", "--degree-bound", "-1"),
    ("present", "table", "--family", "type-one-cycle", "--n", "2",
     "--q-order", "2", "--mu", "1", "--weight-bound", "-1"),
], ids=["verify-hopf", "verify-antipode", "verify-degeneration",
        "present-confluence", "present-table"])
def test_vacuous_bound_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "bound must be" in err


def test_nf_negative_h_power_on_a_cycle(capsys):
    args = ("present", "nf", "--family", "cycle-graded", "--n", "3",
            "--q-order", "3")
    code, out, _ = run(capsys, *args, "--word", "h^-1")
    assert code == 0
    assert out.strip() == "h^2"
    assert run(capsys, *args, "--word", "h^2") == (0, out, "")


@pytest.mark.parametrize("family_args", [
    ("--family", "cycle-graded", "--n", "3", "--q-order", "3"),
    ("--family", "chain-q1", "--lambda", "1"),
])
def test_nf_rejects_oversized_words(capsys, family_args):
    code, out, err = run(capsys, "present", "nf", *family_args,
                         "--word", "a^99999999999")
    assert code == 2
    assert out == ""
    assert "word longer than" in err


def test_crash_exits_three(capsys, monkeypatch):
    from hopfpath import verifier

    def crash(desc, degree_bound):
        raise AssertionError("incomplete rule set")

    monkeypatch.setattr(verifier, "verify_hopf", crash)
    code, out, err = run(capsys, "verify", "hopf", "--family",
                         "cycle-deform", "--n", "4", "--q-order", "4",
                         "--lambda", "1")
    assert code == 3
    assert out == ""
    assert "internal error: AssertionError: incomplete rule set" in err


def test_catalog_conductor_env_override(capsys, monkeypatch):
    _, default, _ = run(capsys, "catalog", "simple-pointed", "--max-n", "4")
    monkeypatch.setenv("HOPFPATH_CONDUCTOR", "7")
    code, _, err = run(capsys, "catalog", "simple-pointed", "--max-n", "2")
    assert code == 2
    assert "cannot host order 2" in err
    monkeypatch.setenv("HOPFPATH_CONDUCTOR", "12")
    assert run(capsys, "catalog", "simple-pointed", "--max-n", "4") \
        == (0, default, "")


@pytest.mark.parametrize("conductor", ["100000", "1001"])
def test_conductor_above_the_maximum_is_rejected(capsys, monkeypatch,
                                                 conductor):
    args = ("present", "nf", "--family", "cycle-graded", "--n", "3",
            "--q-order", "3", "--word", "h")
    code, out, err = run(capsys, *args, "--conductor", conductor)
    assert (code, out) == (2, "")
    assert f"conductor {conductor} exceeds the maximum 1000" in err
    monkeypatch.setenv("HOPFPATH_CONDUCTOR", conductor)
    code, out, err = run(capsys, *args)
    assert (code, out) == (2, "")
    assert f"conductor {conductor} exceeds the maximum 1000" in err


def test_catalog_lcm_above_the_maximum_is_rejected(capsys):
    code, out, err = run(capsys, "catalog", "simple-pointed", "--max-n",
                         "100")
    assert (code, out) == (2, "")
    assert err.startswith("error: the lcm of the requested orders") \
        and "exceeds the maximum conductor 1000" in err
    # lcm(1..8) = 840 is still within the bound
    code, out, _ = run(capsys, "catalog", "simple-pointed", "--max-n", "8")
    assert code == 0 and "type-one-chain" in out


@pytest.mark.parametrize("argv", [
    ("graded", "verify", "--kind", "cycle", "--n", "3", "--q-order", "0",
     "--max-len", "2"),
    ("present", "nf", "--family", "cycle-graded", "--n", "3", "--q-order",
     "0", "--word", "h"),
], ids=["graded-verify", "present-nf"])
def test_q_order_zero_is_rejected(capsys, argv):
    # 0 is not "unset" (q = 1): it is rejected like any other bad order
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: order must be a positive integer\n"


@pytest.mark.parametrize("command", ["hopf", "antipode", "degeneration"])
def test_verify_work_is_bounded_before_it_starts(capsys, command):
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", command, "--family", "chain-root",
                         "--q-order", "3", "--lambda", "1",
                         "--degree", "10000")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == ("error: degree bound 10000 gives more than 10,000 "
                   "monomial pairs; lower it\n")


@pytest.mark.parametrize("argv, message", [
    (("table", "--family", "cycle-graded", "--n", "6", "--q-order", "1",
      "--weight-bound", "400"),
     "weight bound 400 gives more than 10,000 monomial pairs; lower it"),
    (("table", "--family", "chain-q1", "--lambda", "1",
      "--weight-bound", "400"),
     "weight bound 400 gives more than 10,000 monomial pairs; lower it"),
    (("confluence", "--family", "cycle-graded", "--n", "6", "--q-order", "1",
      "--degree-bound", "20000"),
     "degree bound 20000 predicts more than 2,000 normal monomials; "
     "lower it"),
], ids=["table-cycle", "table-chain", "confluence"])
def test_present_work_is_bounded_before_it_starts(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run(capsys, "present", *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_a_closed_stdout_exits_141_quietly():
    # capsys has no file descriptor to close, so this needs a process
    package_root = str(Path(hopfpath.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH")))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "hopfpath", "graded", "table", "--kind",
         "cycle", "--n", "6", "--q-order", "6", "--max-len", "6", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), first, err) == (141, b"[\n", b"")


@pytest.mark.parametrize("argv, message", [
    (("build", "--group", "cyclic:1001", "--ram", "g=1"),
     "group order 1,001 exceeds the maximum of 1,000"),
    (("connected", "--group", "cyclic:100000000", "--ram", "g=1"),
     "group order 100,000,000 exceeds the maximum of 1,000"),
    (("build", "--group", "infinite", "--ram", "g=1",
      "--window=-5000:5000"),
     "window of 10,001 vertices exceeds the maximum of 10,000"),
    (("build", "--group", "cyclic:4", "--ram", "g=25001"),
     "100,004 arrows exceed the maximum of 100,000"),
    (("build", "--group", "infinite", "--ram", "g=1,e=10000000",
      "--window", "0:9"),
     "100,000,009 arrows exceed the maximum of 100,000"),
    (("build", "--group", "cyclic:4", "--ram", "g=-1"),
     "multiplicity of 'g' must be nonnegative, not -1"),
    (("connected", "--group", "cyclic:4", "--ram", "g=1,g^2=-2"),
     "multiplicity of 'g^2' must be nonnegative, not -2"),
    (("build", "--group", "infinite", "--ram", "g=1", "--window", "3:1"),
     "window 3:1 is reversed"),
], ids=["group-order", "group-order-connected", "window-width",
        "finite-arrows", "window-arrows", "negative-multiplicity",
        "negative-multiplicity-connected", "reversed-window"])
def test_quiver_work_is_bounded_before_it_starts(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run(capsys, "quiver", *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_quiver_ramification_classes_are_not_recomputed_per_entry(capsys):
    ram = ",".join(f"g^{k}=1" for k in range(2, 42))
    start = time.perf_counter()
    code, out, _ = run(capsys, "quiver", "connected", "--group",
                       "cyclic:500", "--ram", ram)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (0, "connected: true\n")


@pytest.mark.parametrize("right, message", [
    ("[]", "a descriptor must be a JSON object"),
    ("7", "a descriptor must be a JSON object"),
    ('{"family":"cycle-deform","n":3,"qOrder":"3","lambda":1}',
     "descriptor field 'qOrder' must be an integer, not '3'"),
    ('{"family":"cycle-deform","n":3.0,"qOrder":3,"lambda":1}',
     "descriptor field 'n' must be an integer, not 3.0"),
    ('{"family":"cycle-deform","n":3,"qOrder":3,"qPower":true}',
     "descriptor field 'qPower' must be an integer, not True"),
    ('{"family":"chain-q1","lambda":[1]}',
     "descriptor field 'lambda' must be a string or an integer, not [1]"),
    ('{"family":"chain-q1","lambda":0.1}',
     "descriptor field 'lambda' must be a string or an integer, not 0.1"),
    ('{"family":"chain-graded","q":0.5}',
     "descriptor field 'q' must be a string or an integer, not 0.5"),
])
def test_malformed_descriptor_json_is_a_usage_error(capsys, right, message):
    left = '{"family":"cycle-deform","n":3,"qOrder":3,"lambda":1}'
    code, out, err = run(capsys, "present", "classify", "--left", left,
                         "--right", right)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"
    code, out, err = run(capsys, "present", "classify", "--left", right,
                         "--right", left)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"
