"""Command-line interface: output shapes, exit codes, format round-trips."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hmerge
from hmerge import (
    AchievabilityCertificate,
    HmergeError,
    InfeasibleParametersError,
    InvalidParametersError,
    InvalidPartitionError,
    MalformedInstanceError,
    MaxResult,
    MergePartition,
    NodeBudgetExceededError,
    OracleCapExceededError,
    OutOfRangeInstanceError,
    ParseError,
    check_certificate,
    parse_partition_json,
    parse_profile_text,
    validate_partition,
)
from hmerge import achievability, cli, improvement
from hmerge.cli import (
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_INFEASIBLE,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    main,
)


SEARCH_ONLY = " ".join(["7 9 10 10 7 7"] + ["25"] * 23)


def subprocess_env():
    return dict(os.environ, PYTHONPATH=str(Path(hmerge.__file__).parents[1]))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--format", "structured")
    return code, json.loads(out)


class TestHindex:
    def test_nine_publications(self, capsys):
        code, out, _ = run(capsys, "hindex", "1 1 2 3 4 4 5 5 5")
        assert code == EXIT_OK and out.strip() == "4"

    def test_empty_input(self, capsys):
        code, out, _ = run(capsys, "hindex", "")
        assert code == EXIT_OK and out.strip() == "0"

    def test_six_publications(self, capsys):
        code, out, _ = run(capsys, "hindex", "5 4 3 3 3 2")
        assert code == EXIT_OK and out.strip() == "3"

    def test_json_input(self, capsys):
        code, out, _ = run(capsys, "hindex", '{"citations": [5, 4, 3, 3, 3, 2]}')
        assert code == EXIT_OK and out.strip() == "3"

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "profile.txt"
        path.write_text("5 4 3 3 3 2\n")
        code, out, _ = run(capsys, "hindex", str(path))
        assert code == EXIT_OK and out.strip() == "3"

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "hindex", "5 four 3")
        assert code == EXIT_PARSE and "four" in err

    LONG = "9" * 5000  # a well-formed integer past the interpreter's default 4,300-digit limit
    LIMIT = f"integer with more than {sys.get_int_max_str_digits()} digits"

    @pytest.mark.parametrize("text, message", [('{"citations": [%s]}' % LONG, f"invalid JSON: {LIMIT}"),
                                               (LONG, f"{LIMIT}: '{LONG[:39]}...")], ids=["json", "text"])
    def test_integer_past_the_digit_limit_is_a_parse_error(self, capsys, tmp_path, text, message):
        path = tmp_path / "profile"
        path.write_text(text)
        code, out, err = run(capsys, "hindex", str(path))
        assert (code, out, err) == (EXIT_PARSE, "", f"error: {message}\n")

    def test_undecodable_file_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "profile.bin"
        path.write_bytes(b"5 4 \xff\xfe 3")
        code, _, err = run(capsys, "hindex", str(path))
        assert code == EXIT_PARSE and "not an integer" in err

    def test_undecodable_stdin_is_a_parse_error(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"5 4 \xff\xfe 3"), encoding="utf-8"))
        code, _, err = run(capsys, "hindex", "-")
        assert code == EXIT_PARSE and "not an integer" in err

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"5 4 3 3 3 2\n"), encoding="utf-8"))
        code, out, _ = run(capsys, "hindex", "-")
        assert code == EXIT_OK and out.strip() == "3"

    def test_unreadable_input_is_an_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "hindex", str(tmp_path))
        assert code == EXIT_IO and err.startswith("error:")


class TestImprove:
    def test_improvable(self, capsys):
        code, doc = run_json(capsys, "improve", "5 4 3 3 3 2")
        assert code == EXIT_OK
        assert doc["improvable"] and doc["h_index"] == 3 and doc["achieved"] == 4

    def test_not_improvable(self, capsys):
        code, out, _ = run(capsys, "improve", "5 3 3 3 3 2")
        assert code == EXIT_OK and out.strip() == "not improvable"
        code, out, _ = run(capsys, "improve", "1")
        assert code == EXIT_OK and out.strip() == "not improvable"

    def test_emitted_partition_revalidates(self, capsys):
        code, doc = run_json(capsys, "improve", "5 4 3 3 3 2")
        assert code == EXIT_OK
        profile = parse_profile_text("5 4 3 3 3 2")
        partition = parse_partition_json(json.dumps(doc["partition"]))
        validate_partition(profile, partition)


MAXIMIZE_DOC = {
    "k": 4, "partition": [[0], [1], [2, 5], [3, 4]], "witness_groups": [0, 1, 2, 3], "group_sums": [5, 4, 5, 6],
    "value": 4, "nodes_explored": 0, "settled_by": [[5, "bound"], [4, "greedy"]],
}
VERIFY3P_DOC = {
    "three_partition": True, "max_value": 16, "k": 16, "agree": True, "witness_blocks": [[2, 3, 4], [0, 1, 5]],
    "certificate": {
        "k": 16, "partition": [[i] for i in range(6, 20)] + [[2, 3, 4], [0, 1, 5]],
        "witness_groups": list(range(16)), "group_sums": [16] * 16,
    },
}


@pytest.mark.parametrize("argv,expected", [
    (("hindex", "5 4 3 3 3 2"), {"h_index": 3}),
    (("improve", "5 4 3 3 3 2"), {"improvable": True, "h_index": 3, "achieved": 4,
                                  "partition": [[0], [1], [2, 5], [3, 4]], "group_sums": [5, 4, 5, 6]}),
    (("improve", "5 3 3 3 3 2"), {"improvable": False, "h_index": 3}),
    (("maximize", "5 4 3 3 3 2"), MAXIMIZE_DOC),
    (("verify3p", "INSTANCE"), VERIFY3P_DOC),
], ids=["hindex", "improve", "improve-no", "maximize", "verify3p"])
def test_structured_output_is_one_key_per_line(capsys, tmp_path, argv, expected):
    if "INSTANCE" in argv:
        instance = tmp_path / "instance.txt"
        instance.write_text("2 10\n3 3 4 3 3 4\n")
        argv = tuple(str(instance) if a == "INSTANCE" else a for a in argv)
    code, out, _ = run(capsys, *argv, "--format", "structured")
    assert code == EXIT_OK
    doc = json.loads(out)
    lines = out.splitlines()
    assert lines[0] == "{" and lines[-1] == "}" and len(lines) == len(doc) + 2
    for line, (key, value) in zip(lines[1:-1], doc.items()):
        assert json.loads("{" + line.rstrip(",") + "}") == {key: value}
    if argv[0] == "maximize":
        assert isinstance(doc.pop("wall_time_s"), float)
    assert doc == expected


class TestAchieveAndMaximize:
    def test_achieve_yes(self, capsys):
        code, doc = run_json(capsys, "achieve", "5 4 3 3 3 2", "--k", "4")
        assert code == EXIT_OK and doc["achievable"]
        profile = parse_profile_text("5 4 3 3 3 2")
        partition = parse_partition_json(json.dumps(doc["partition"]))
        certificate = AchievabilityCertificate(partition, doc["k"], frozenset(doc["witness_groups"]))
        assert doc["k"] == 4 and check_certificate(profile, certificate) == tuple(doc["group_sums"])

    def test_achieve_no(self, capsys):
        code, out, _ = run(capsys, "achieve", "5 4 3 3 3 2", "--k", "5")
        assert code == EXIT_OK and out.startswith("NO")

    def test_maximize(self, capsys):
        code, doc = run_json(capsys, "maximize", "5 4 3 3 3 2")
        assert code == EXIT_OK and doc["value"] == 4
        assert "nodes_explored" in doc and "wall_time_s" in doc
        assert doc["settled_by"] == [[5, "bound"], [4, "greedy"]]

    def test_maximize_telemetry_in_human_mode(self, capsys):
        code, out, _ = run(capsys, "maximize", "5 4 3 3 3 2")
        assert code == EXIT_OK and "nodes explored" in out
        assert "k values settled by: bound 1, greedy 1, search 0" in out

    def test_invalid_certificate_is_a_failed_check(self, capsys, monkeypatch):
        solve = achievability.max_achievable

        def weakened(profile, **kwargs):
            result = solve(profile, **kwargs)
            c = result.certificate
            weak = AchievabilityCertificate(c.partition, c.k + 1, c.witness_group_ids)
            return MaxResult(result.value, weak, result.nodes_explored, result.settled_by)

        monkeypatch.setattr(achievability, "max_achievable", weakened)
        code, out, err = run(capsys, "maximize", "5 4 3 3 3 2")
        assert code == EXIT_CHECK_FAILED and out == ""
        assert err == "error: 4 witness groups, fewer than k = 5\n"

    def test_budget_exit_code(self, capsys):
        # the reduced NO instance of 3-partition (5, 7, 8, 8, 5, 5), m=2, b=19:
        # only the search settles k=25
        code, _, err = run(capsys, "maximize", SEARCH_ONLY, "--node-budget", "2")
        assert code == EXIT_BUDGET and "budget" in err
        assert err == "error: search node budget of 2 exceeded; maximum certified only within [23, 25]\n"

    def test_negative_k_is_a_parse_error(self, capsys):
        code, _, err = run(capsys, "achieve", "5 4", "--k", "-1")
        assert code == EXIT_PARSE and ">= 0" in err

    @pytest.mark.parametrize("argv", [
        ("maximize", "5 4 3 3 3 2", "--node-budget", "-3"),
        ("achieve", "5 4", "--k", "1", "--node-budget", "-1"),
        ("oracle-check", "--max-size", "2", "--oracle-cap", "-1"),
    ], ids=["maximize-budget", "achieve-budget", "oracle-cap"])
    def test_negative_budget_or_cap_is_a_parse_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_PARSE and out == ""
        assert err == "error: --node-budget and --oracle-cap must be >= 0\n"


class Test3PartitionCommands:
    def write_instance(self, tmp_path, text="2 10\n3 3 4 3 3 4\n"):
        path = tmp_path / "instance.txt"
        path.write_text(text)
        return str(path)

    def test_reduce3p_stdout(self, capsys, tmp_path):
        code, out, _ = run(capsys, "reduce3p", self.write_instance(tmp_path))
        assert code == EXIT_OK
        profile_line, sidecar = out.strip().split("\n")
        assert sidecar == "k=16"
        assert parse_profile_text(profile_line).citations == (5, 5, 6, 5, 5, 6) + (16,) * 14

    def test_reduce3p_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "reduced.txt"
        code, _, _ = run(capsys, "reduce3p", self.write_instance(tmp_path), "--output", str(out_path))
        assert code == EXIT_OK
        assert out_path.read_text().strip().endswith("k=16")

    def test_reduce3p_output_under_missing_directory_is_an_io_error(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "reduced.txt"
        code, _, err = run(capsys, "reduce3p", self.write_instance(tmp_path), "--output", str(out_path))
        assert code == EXIT_IO and len(err.strip().splitlines()) == 1

    def test_reduce3p_malformed(self, capsys, tmp_path):
        code, _, err = run(capsys, "reduce3p", self.write_instance(tmp_path, "2 10\n3 3 4\n"))
        assert code == EXIT_INFEASIBLE and "expected" in err

    def test_verify3p_agreement(self, capsys, tmp_path):
        code, doc = run_json(capsys, "verify3p", self.write_instance(tmp_path))
        assert code == EXIT_OK
        assert doc["agree"] and doc["three_partition"] and doc["max_value"] == 16 == doc["k"]

    def test_verify3p_out_of_range(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify3p", self.write_instance(tmp_path, "2 6\n1 1 1 1 1 7\n"))
        assert code == EXIT_INFEASIBLE and "strictly between" in err


class TestGenerators:
    def test_gen_profile_deterministic(self, capsys):
        _, first, _ = run(capsys, "gen", "profile", "-n", "6", "--dist", "uniform:1:5", "--seed", "9")
        _, second, _ = run(capsys, "gen", "profile", "-n", "6", "--dist", "uniform:1:5", "--seed", "9")
        assert first == second
        assert len(first.split()) == 6

    def test_gen_3p_feeds_verify3p(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gen", "3p", "-m", "2", "-b", "13", "--seed", "4")
        assert code == EXIT_OK
        path = tmp_path / "gen.txt"
        path.write_text(out)
        code, out, _ = run(capsys, "verify3p", str(path))
        assert code == EXIT_OK and "agreement: OK" in out

    def test_gen_3p_infeasible(self, capsys):
        code, _, err = run(capsys, "gen", "3p", "-m", "2", "-b", "8")
        assert code == EXIT_INFEASIBLE and "strictly between" in err

    def test_gen_profile_bad_dist(self, capsys):
        code, _, _ = run(capsys, "gen", "profile", "-n", "3", "--dist", "normal:0:1")
        assert code == EXIT_INFEASIBLE

    def test_gen_profile_non_finite_zipf_exponent(self, capsys):
        code, out, err = run(capsys, "gen", "profile", "-n", "3", "--dist", "zipf:nan:5")
        assert code == EXIT_INFEASIBLE and out == ""
        assert err == "error: zipf needs MAX >= 1 and a finite S >= 0, got 'zipf:nan:5'\n"


class TestOracleCheck:
    def test_exhaustive_small(self, capsys):
        code, doc = run_json(capsys, "oracle-check", "--max-size", "4", "--max-value", "4")
        assert code == EXIT_OK
        assert doc["pass"] and doc["checked"] == 70 and doc["disagreements"] == []

    def test_randomized_fixed_seed_is_reproducible(self, capsys):
        args = ("oracle-check", "--count", "15", "--max-size", "6", "--max-value", "8", "--seed", "3")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second and "PASS" in first

    def test_disagreement_exits_with_failed_check(self, capsys, monkeypatch):
        monkeypatch.setattr(improvement, "can_improve", lambda profile: False)
        code, out, _ = run(capsys, "oracle-check", "--max-size", "4", "--max-value", "4")
        assert code == EXIT_CHECK_FAILED and "FAIL" in out

    # name: (change to the solver's certificate, the disagreement it must cause)
    TAMPERED = {
        "wrong-k": (lambda c: AchievabilityCertificate(c.partition, c.k + 1, c.witness_group_ids), "certificate k"),
        "too-few-witnesses": (lambda c: AchievabilityCertificate(c.partition, c.k,
                                                                 frozenset(sorted(c.witness_group_ids)[1:])),
                              "fewer than k"),
        "witness-out-of-range": (lambda c: AchievabilityCertificate(
                                     c.partition, c.k, c.witness_group_ids | {len(c.partition.groups)}),
                                 "is out of range"),
        "witness-below-max": (lambda c: AchievabilityCertificate(
                                  c.partition, c.k, frozenset(range(len(c.partition.groups)))),
                              "below k"),
        "invalid-partition": (lambda c: AchievabilityCertificate(
                                  MergePartition(c.partition.groups + c.partition.groups[:1]), c.k,
                                  c.witness_group_ids),
                              "appears in more than one group"),
    }

    @pytest.mark.parametrize("tamper, problem", TAMPERED.values(), ids=TAMPERED.keys())
    def test_incomplete_certificate_is_a_disagreement(self, capsys, monkeypatch, tamper, problem):
        solve = achievability.max_achievable

        def tampered(profile, **kwargs):
            result = solve(profile, **kwargs)
            return MaxResult(result.value, tamper(result.certificate), result.nodes_explored, result.settled_by)

        monkeypatch.setattr(achievability, "max_achievable", tampered)
        code, out, err = run(capsys, "oracle-check", "--max-size", "4", "--max-value", "4")
        assert code == EXIT_CHECK_FAILED and "FAIL" in out and problem in out and err == ""

    @pytest.mark.parametrize("count", ["0", "5"])
    def test_oversized_max_size_is_refused_before_any_work(self, capsys, monkeypatch, count):
        def refuse(*args, **kwargs):
            raise AssertionError("oracle-check enumerated before refusing its --max-size")

        monkeypatch.setattr(achievability, "iter_small_multisets", refuse)
        monkeypatch.setattr(achievability, "brute_force_max", refuse)
        code, out, err = run(capsys, "oracle-check", "--max-size", "12", "--max-value", "1", "--count", count)
        assert code == EXIT_INFEASIBLE and out == ""
        assert err == "error: instance size 12 exceeds the oracle cap of 11\n"

    def test_empty_random_range_is_a_parse_error(self, capsys):
        code, _, err = run(capsys, "oracle-check", "--count", "2", "--max-value", "0")
        assert code == EXIT_PARSE and "--max-value" in err
        code, out, err = run(capsys, "oracle-check", "--count", "-3")
        assert code == EXIT_PARSE and out == "" and err.startswith("error:") and "--count" in err
        assert len(err.splitlines()) == 1


# subcommand: (arguments that complete its command line, the shared options it reads)
OPTION_TABLE = {
    "hindex": (["3"], {"--format"}),
    "improve": (["3"], {"--format"}),
    "achieve": (["3", "--k", "1"], {"--format", "--node-budget"}),
    "maximize": (["3"], {"--format", "--node-budget"}),
    "reduce3p": (["instance.txt"], {"--format"}),
    "verify3p": (["instance.txt"], {"--format", "--node-budget", "--oracle-cap"}),
    "oracle-check": ([], {"--format", "--seed", "--node-budget", "--oracle-cap"}),
    "gen profile": (["-n", "2"], {"--format", "--seed"}),
    "gen 3p": (["-m", "2", "-b", "13"], {"--format", "--seed"}),
}
SHARED_OPTIONS = {"--format": "structured", "--seed": "5", "--node-budget": "7", "--oracle-cap": "9"}
OPTION_PAIRS = [(command, option) for command in OPTION_TABLE for option in SHARED_OPTIONS]


@pytest.mark.parametrize("command, option", OPTION_PAIRS, ids=[f"{c}:{o}" for c, o in OPTION_PAIRS])
def test_each_subcommand_takes_only_the_options_it_reads(capsys, command, option):
    arguments, accepted = OPTION_TABLE[command]
    argv = [*command.split(), *arguments, option, SHARED_OPTIONS[option]]
    if option in accepted:
        args = cli.build_parser().parse_args(argv)
        assert str(getattr(args, option[2:].replace("-", "_"))) == SHARED_OPTIONS[option]
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_PARSE and capsys.readouterr().out == ""


@pytest.mark.parametrize("option", ["--seed", "--format"])
def test_gen_group_takes_no_options(capsys, option):
    # the group reads none of them, so one given there is a usage error, never silently dropped
    with pytest.raises(SystemExit) as exc:
        main(["gen", option, SHARED_OPTIONS[option], "profile", "-n", "5"])
    assert exc.value.code == EXIT_PARSE and capsys.readouterr().out == ""


ERRORS = [
    (ParseError("bad token"), ValueError, EXIT_PARSE),
    (InvalidPartitionError("empty-group", "group 0 is empty", group_index=0), ValueError, EXIT_CHECK_FAILED),
    (NodeBudgetExceededError(10), RuntimeError, EXIT_BUDGET),
    (OracleCapExceededError(12, 11), RuntimeError, EXIT_INFEASIBLE),
    (MalformedInstanceError("expected 6 numbers"), ValueError, EXIT_INFEASIBLE),
    (OutOfRangeInstanceError("not strictly between"), ValueError, EXIT_INFEASIBLE),
    (InfeasibleParametersError("no instance"), ValueError, EXIT_INFEASIBLE),
    (InvalidParametersError("bad dist"), ValueError, EXIT_INFEASIBLE),
]


@pytest.mark.parametrize("error, builtin, exit_code", ERRORS, ids=[type(e).__name__ for e, _, _ in ERRORS])
def test_error_hierarchy_carries_exit_codes(capsys, monkeypatch, error, builtin, exit_code):
    cls = type(error)
    assert issubclass(cls, HmergeError) and issubclass(cls, builtin)
    assert cls.exit_code == exit_code

    def fail(profile):
        raise error

    monkeypatch.setattr(cli, "h_index", fail)
    code, _, err = run(capsys, "hindex", "3 2 1")
    assert code == exit_code and err == f"error: {error}\n"


def test_recursion_exhaustion_is_one_line_and_oversized(capsys, monkeypatch):
    for error in (RecursionError, MemoryError):
        def exhausted(profile, node_budget):
            raise error()

        monkeypatch.setattr(achievability, "max_achievable", exhausted)
        code, out, err = run(capsys, "maximize", "3 2 1")
        assert code == EXIT_INFEASIBLE and out == ""
        assert err == f"error: {error.__name__}: instance too large\n"


def test_maximize_on_3000_ones_is_exact(tmp_path):
    # seed: RecursionError at the default recursion limit
    path = tmp_path / "ones.txt"
    path.write_text(" ".join(["1"] * 3000))
    proc = subprocess.run([sys.executable, "-m", "hmerge.cli", "maximize", str(path), "--format", "structured"],
                          capture_output=True, text=True, env=subprocess_env(), timeout=120)
    assert proc.returncode == EXIT_OK and proc.stderr == ""
    assert json.loads(proc.stdout)["value"] == 54


def test_closed_stdout_is_a_silent_success():
    proc = subprocess.Popen([sys.executable, "-m", "hmerge.cli", "gen", "profile", "-n", "200000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=subprocess_env())
    try:
        head = proc.stdout.read(10)
        proc.stdout.close()  # like `| head -c 10`
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == EXIT_OK
    finally:
        proc.stderr.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert len(head) == 10 and err == b""


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
