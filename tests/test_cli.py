import argparse
import csv
import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import delmenu
import delmenu.cli as cli_mod
import delmenu.families as families
from delmenu import (
    Action,
    CapExceededError,
    IndependentInstance,
    InvalidInstanceError,
    Profile,
    brute_force_opt,
    deterministic,
    dump_instance,
    dumps_instance,
    gen_log_family,
    gen_random,
    load_instance,
    threshold_menus,
    xnum,
)
from delmenu.cli import build_parser, main, parse_xnum_literal, positive_int, sweep_workers
from delmenu.evaluate import Decomposition
from delmenu.model import candidates
from delmenu.xnum import IOTA, parse_integer, xsum

from conftest import stack_depth


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_spec(tmp_path, obj, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


# ---------------------------------------------------------------------------
# Literals
# ---------------------------------------------------------------------------


def test_parse_xnum_literal():
    assert parse_xnum_literal("24/7") == xnum("24/7")
    assert parse_xnum_literal("-3") == xnum(-3)
    assert parse_xnum_literal("4-1i") == xnum(4, -1)
    assert parse_xnum_literal("3/2+2i") == xnum("3/2", 2)
    assert parse_xnum_literal("1i") == xnum(0, 1)
    assert parse_xnum_literal("-1/2i") == xnum(0, "-1/2")
    assert parse_xnum_literal("12i") == xnum(0, 12)
    assert parse_xnum_literal("1/23i") == xnum(0, "1/23")
    assert parse_xnum_literal("3/2-1/2i") == xnum("3/2", "-1/2")
    with pytest.raises(Exception):
        parse_xnum_literal("abc")


@pytest.mark.parametrize(
    "text", ["0.5", " 1_0 ", "1e3", "1e3i", "0.5+1i", "1/0", "1/0i", "1+-2i", "i"]
)
def test_parse_xnum_literal_rejects_non_rational_spellings(text):
    with pytest.raises(InvalidInstanceError):
        parse_xnum_literal(text)


# ---------------------------------------------------------------------------
# generate / eval / solve
# ---------------------------------------------------------------------------


@pytest.fixture
def log3_file(tmp_path, capsys):
    out = str(tmp_path / "log3.json")
    code = main(["generate", "log", "--k", "3", "-o", out])
    capsys.readouterr()
    assert code == 0
    return out


def test_generate_log_round_trips(log3_file):
    assert load_instance(log3_file) == gen_log_family(3)


def test_a_loaded_log_file_builds_one_profile_per_level(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "log8.json")
    assert main(["generate", "log", "--k", "8", "-o", path]) == 0
    built = []
    post_init = Profile.__post_init__
    monkeypatch.setattr(Profile, "__post_init__", lambda self: built.append(self) or post_init(self))
    instance = load_instance(path)
    assert len(built) == 8  # one per distinct row, not one per profile (255)
    assert len(instance.profiles) == 255 and len({id(p) for p in instance.profiles}) == 8
    assert [m for _, m in instance.rows] == [2**i for i in range(8)]
    assert instance == gen_log_family(8) and instance.kernel == gen_log_family(8).kernel


def test_eval_menu_indices(log3_file, capsys):
    code, out, _ = run(capsys, "eval", log3_file, "--menu", "1,3,5")
    assert code == 0
    obj = json.loads(out)
    assert obj["f"] == {"std": "24/7", "inf": "0"}
    assert obj["menu"] == [1, 3, 5]


def test_eval_menu_indices_allow_blanks_around_commas(log3_file, capsys):
    code, out, _ = run(capsys, "eval", log3_file, "--menu", " 1 , 3")
    assert code == 0
    assert json.loads(out)["menu"] == [1, 3]


@pytest.mark.parametrize("spec", ["x", "0_1", "1e0", "\u0663"])
def test_eval_menu_rejects_non_integer_indices(log3_file, capsys, spec):
    # int() reads "0_1" as 1 and the Arabic-Indic digit three as 3.
    code, _, err = run(capsys, "eval", log3_file, "--menu", spec)
    assert code == 3
    assert f"invalid menu spec {spec!r}" in err


def test_eval_threshold_menu(log3_file, capsys):
    code, out, _ = run(capsys, "eval", log3_file, "--menu", "threshold:4")
    assert code == 0
    assert json.loads(out)["menu"] == [1, 2, 3]


@pytest.mark.parametrize("spec", ["threshold: 4", "threshold:4 - 1 i"])
def test_eval_threshold_literal_rejects_blanks(log3_file, capsys, spec):
    code, out, err = run(capsys, "eval", log3_file, "--menu", spec)
    literal = spec[len("threshold:") :]
    assert (code, out, err) == (3, "", f"error: invalid number literal {literal!r}\n")


def test_eval_threshold_literal_with_an_iota_part(log3_file, capsys):
    code, out, _ = run(capsys, "eval", log3_file, "--menu", "threshold:4-1i")
    assert code == 0
    assert json.loads(out)["menu"] == [1, 2]


def test_eval_text_format(log3_file, capsys):
    code, out, _ = run(capsys, "eval", log3_file, "--menu", "all", "--format", "text")
    assert code == 0
    assert "f = 2+9/7i" in out


def test_eval_empty_menu_with_outside(tmp_path, capsys):
    obj = {
        "schema_version": 1,
        "kind": "correlated",
        "actions": [{"label": "a1", "bias": {"std": "0", "inf": "0"}}],
        "outside": {"bias": {"std": "1", "inf": "0"}},
        "profiles": [
            {
                "prob": "1",
                "values": [{"std": "2", "inf": "0"}, {"std": "5/3", "inf": "0"}],
            }
        ],
    }
    path = write_spec(tmp_path, obj, "outside.json")
    code, out, _ = run(capsys, "eval", path, "--menu", "empty")
    assert code == 0
    assert json.loads(out)["f"]["std"] == "5/3"


def labeled_independent_file(tmp_path):
    """Action 1 labeled "alpha", action 2 with the default label, an outside option.

    Agent utilities: action 1 is 3 or 1 with probability 1/2 each, action 2
    is 1, the outside option 3/2; the outside option takes the low draw.
    """
    inst = IndependentInstance(
        (
            Action(xnum(1), ((xnum(0), Fraction(1, 2)), (xnum(2), Fraction(1, 2))), "alpha"),
            deterministic(xnum(0), xnum(1)),
        ),
        outside=deterministic(xnum("1/2"), xnum(1)),
    )
    path = str(tmp_path / "labeled.json")
    dump_instance(inst, path)
    return path


def test_eval_independent_json_labels(tmp_path, capsys):
    code, out, _ = run(capsys, "eval", labeled_independent_file(tmp_path), "--menu", "all")
    assert code == 0
    assert json.loads(out) == {
        "menu": [1, 2],
        "f": {"std": "3/2", "inf": "0"},
        "contrib": {
            "1": {"std": "1", "inf": "0"},
            "2": {"std": "0", "inf": "0"},
            "0": {"std": "1/2", "inf": "0"},
        },
        "freq": {"1": "1/2", "2": "0", "0": "1/2"},
        "labels": {"1": "alpha", "2": "a2", "0": "outside"},
    }


def test_eval_independent_text_labels(tmp_path, capsys):
    path = labeled_independent_file(tmp_path)
    code, out, _ = run(capsys, "eval", path, "--menu", "all", "--format", "text")
    assert code == 0
    assert out == (
        "menu: [1, 2]\n"
        "f = 3/2\n"
        "       alpha  contrib=1  freq=1/2\n"
        "          a2  contrib=0  freq=0\n"
        "     outside  contrib=1/2  freq=1/2\n"
    )


def test_solve_log3(log3_file, capsys):
    code, out, _ = run(capsys, "solve", log3_file)
    assert code == 0
    obj = json.loads(out)
    assert obj["opt_menu"] == [1, 3, 5]
    assert obj["opt_value"] == {"std": "24/7", "inf": "0"}
    assert obj["ratio"] == "12/7"
    assert obj["best_threshold_menu"] == [1, 2, 3, 4, 5]
    assert obj["bounds"]["bound_log"] is True


def test_solve_csv_format(log3_file, capsys):
    code, out, _ = run(capsys, "solve", log3_file, "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.split(",")[:6] == [
        "instance_id",
        "n",
        "kind",
        "opt_std",
        "best_threshold_std",
        "ratio",
    ]
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["opt_std"] == "24/7"
    assert fields["ratio"] == "12/7"
    assert fields["status"] == "ok"


def test_solve_csv_quotes_a_path_with_a_comma(tmp_path, capsys):
    path = str(tmp_path / "a,b.json")
    assert main(["generate", "log", "--k", "3", "-o", path]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "solve", path, "--format", "csv")
    assert code == 0
    header, row = csv.reader(out.splitlines())
    assert len(header) == len(row) == 15
    fields = dict(zip(header, row))
    assert fields["instance_id"] == path
    assert fields["opt_std"] == "24/7"


def test_solve_single_action(tmp_path, capsys):
    out_file = str(tmp_path / "one.json")
    main(["generate", "random", "--n", "1", "--seed", "3", "-o", out_file])
    capsys.readouterr()
    code, out, _ = run(capsys, "solve", out_file)
    assert code == 0
    obj = json.loads(out)
    if obj["ratio"] is not None:
        assert obj["ratio"] == "1"


def test_solve_three_approx_band(tmp_path, capsys):
    out_file = str(tmp_path / "t.json")
    main(["generate", "three-approx", "--eps", "1/1000", "-o", out_file])
    capsys.readouterr()
    code, out, _ = run(capsys, "solve", out_file)
    ratio = Fraction(json.loads(out)["ratio"])
    assert code == 0
    assert Fraction(285, 100) <= ratio <= 3


def test_generate_random_byte_identical(tmp_path, capsys):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for out in (a, b):
        assert main(["generate", "random", "--seed", "7", "-o", out]) == 0
    capsys.readouterr()
    assert Path(a).read_bytes() == Path(b).read_bytes()


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------


def test_reduce_vertex_cover(triangle_edges, tmp_path, capsys):
    out_file = str(tmp_path / "vc.json")
    code, out, _ = run(capsys, "reduce", "vertex-cover", triangle_edges, "-o", out_file)
    assert code == 0
    info = json.loads(out)
    assert info == {
        "actions": 4,
        "profiles": 6,
        "min_vertex_cover": 2,
        "predicted_opt": "11/3",
    }
    inst = load_instance(out_file)
    assert inst.n == 4 and len(inst.profiles) == 6


def test_reduce_vertex_cover_past_cap_n_writes_the_instance_without_the_cover(
    triangle_edges, tmp_path, capsys
):
    # The graph has more vertices than --cap-n: the cover is not searched,
    # and the instance is written without the cover fields.
    out_file = str(tmp_path / "vc.json")
    code, out, err = run(
        capsys, "reduce", "vertex-cover", triangle_edges, "--cap-n", "2", "-o", out_file
    )
    assert (code, err) == (0, "")
    assert json.loads(out) == {"actions": 4, "profiles": 6}
    full_file = str(tmp_path / "full.json")
    assert run(capsys, "reduce", "vertex-cover", triangle_edges, "-o", full_file)[0] == 0
    assert Path(out_file).read_bytes() == Path(full_file).read_bytes()


@pytest.mark.parametrize("token", ["1_0", "1.5", "1e0", "\u0663"])
def test_reduce_vertex_cover_rejects_non_integer_endpoints(tmp_path, capsys, token):
    # int() reads "1_0" as 10 and the Arabic-Indic digit three as 3.
    edges = tmp_path / "g.edges"
    edges.write_text(f"1 2\n2 {token}\n", encoding="utf-8")
    out_file = tmp_path / "vc.json"
    code, _, err = run(capsys, "reduce", "vertex-cover", str(edges), "-o", str(out_file))
    assert code == 2
    assert f"{edges}: line 2: non-integer endpoint" in err
    assert not out_file.exists()


@pytest.mark.parametrize("token", ["1.5", "1_0", "1e3", "0x10", "1/1"])
def test_reduce_partition_rejects_non_integer_tokens(tmp_path, capsys, token):
    ints = tmp_path / "c.txt"
    ints.write_text(f"1 {token} 2\n")
    code, _, err = run(capsys, "reduce", "partition", str(ints), "-o", str(tmp_path / "p.json"))
    assert code == 2
    assert repr(token) in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("3 -1 2\n", "partition values must be positive integers"),
        ("0\n", "partition values must be positive integers"),
        ("", "partition instance is empty"),
    ],
)
def test_reduce_partition_rejects_invalid_instances(tmp_path, capsys, text, message):
    ints = tmp_path / "c.txt"
    ints.write_text(text)
    out_file = tmp_path / "p.json"
    code, _, err = run(capsys, "reduce", "partition", str(ints), "-o", str(out_file))
    assert code == 2
    assert f"{ints}: {message}" in err
    assert not out_file.exists()


def test_reduce_partition_m_too_small_is_semantic(tmp_path, capsys):
    ints = tmp_path / "c.txt"
    ints.write_text("1 1 2\n")
    out_file = str(tmp_path / "p.json")
    code, _, err = run(capsys, "reduce", "partition", str(ints), "--M", "5", "-o", out_file)
    assert code == 3
    assert "M=5 violates" in err


def test_reduce_partition_over_the_value_cap_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(delmenu.model, "VALUE_CAP", 13)  # four integers make 14 values
    ints = tmp_path / "c.txt"
    ints.write_text("1 1 1 1\n")
    out_file = tmp_path / "p.json"
    code, out, err = run(capsys, "reduce", "partition", str(ints), "-o", str(out_file))
    assert (code, out) == (3, "")
    assert err == "error: instance of 14 values exceeds the cap of 13 values\n"
    assert not out_file.exists()


def test_reduce_partition(tmp_path, capsys):
    ints = tmp_path / "c.txt"
    ints.write_text("1 1 2\n")
    out_file = str(tmp_path / "part.json")
    code, out, _ = run(capsys, "reduce", "partition", str(ints), "-o", out_file)
    assert code == 0
    info = json.loads(out)
    assert info["actions"] == 4
    assert info["M"] == 27648
    assert Fraction(info["decision_threshold"]) > 0
    load_instance(out_file)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_sweep_independent_bound3(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        {
            "ensembles": [
                {
                    "generator": "random",
                    "kind": "independent",
                    "count": 100,
                    "n": 3,
                    "support_size": 2,
                    "outside": "fixed",
                    "seed0": 100,
                },
                {"generator": "log", "k": 3},
            ]
        },
    )
    out_file = str(tmp_path / "rows.csv")
    code, out, _ = run(capsys, "sweep", spec, "-o", out_file)
    assert code == 0
    rows = read_rows(out_file)
    assert len(rows) == 101
    assert all(row["status"] == "ok" for row in rows)
    assert all(row["bound_3"] == "true" for row in rows if row["kind"] == "independent")
    log_row = rows[-1]
    assert log_row["kind"] == "correlated"
    assert log_row["ratio"] == "12/7"
    assert log_row["p_min"] == "1/7"


def test_sweep_correlated_bound_log(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        {
            "generator": "random",
            "kind": "correlated",
            "count": 100,
            "n": 3,
            "support_size": 4,
            "outside": "random",
            "seed0": 40,
        },
    )
    out_file = str(tmp_path / "rows.csv")
    code, _, _ = run(capsys, "sweep", spec, "-o", out_file)
    assert code == 0
    rows = read_rows(out_file)
    assert len(rows) == 100
    assert all(r["bound_log"] == "true" for r in rows)


def test_sweep_violation_exits_4(tmp_path, capsys, monkeypatch):
    # The proven bounds cannot fail honestly; fake one to pin the exit-code
    # contract.
    real = cli_mod.bound_report

    def broken(instance, result):
        return dataclasses.replace(real(instance, result), bound_n=False)

    monkeypatch.setattr(cli_mod, "bound_report", broken)
    spec = write_spec(
        tmp_path,
        {"generator": "random", "kind": "independent", "count": 2, "seed0": 3, "n": 2},
    )
    out_file = str(tmp_path / "rows.csv")
    code, _, err = run(capsys, "sweep", spec, "-o", out_file)
    assert code == 4
    assert "BOUND VIOLATIONS" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_solve_false_bound_flag_exits_4(log3_file, capsys, monkeypatch, fmt):
    # As for sweep: a faked false flag pins the exit-code contract, and
    # stdout is the honest run's apart from that flag.
    code, honest, err = run(capsys, "solve", log3_file, "--format", fmt)
    assert (code, err) == (0, "")
    real = cli_mod.bound_report

    def broken(instance, result):
        return dataclasses.replace(real(instance, result), bound_log=False)

    monkeypatch.setattr(cli_mod, "bound_report", broken)
    code, out, err = run(capsys, "solve", log3_file, "--format", fmt)
    assert (code, err) == (4, f"BOUND VIOLATIONS: {log3_file}\n")
    if fmt == "json":
        assert honest.count('"bound_log": true') == 1
        assert out == honest.replace('"bound_log": true', '"bound_log": false')
    else:
        (want,), (got,) = csv.DictReader(honest.splitlines()), csv.DictReader(out.splitlines())
        assert want.pop("bound_log") == "true" and got.pop("bound_log") == "false"
        del want["runtime_ms"], got["runtime_ms"]
        assert got == want


@pytest.mark.parametrize(
    "generate, block",
    [
        (["log", "--k", "3"], {"generator": "log", "k": 3}),
        (["three-approx", "--eps", "1/7"], {"generator": "three_approx", "eps": "1/7"}),
        (["outside", "--n", "3"], {"generator": "outside", "n": 3}),
        (
            ["random", "--kind", "correlated", "--n", "4", "--support-size", "3", "--seed", "5"],
            {"generator": "random", "kind": "correlated", "n": 4, "support_size": 3, "seed0": 5},
        ),
        (
            ["random", "--n", "4", "--seed", "2", "--outside", "random"],
            {"generator": "random", "n": 4, "outside": "random", "seed0": 2},
        ),
    ],
)
def test_solve_csv_row_is_the_sweep_row(tmp_path, capsys, generate, block):
    instance, rows = str(tmp_path / "instance.json"), str(tmp_path / "rows.csv")
    assert main(["generate", *generate, "-o", instance]) == 0
    assert main(["sweep", write_spec(tmp_path, block), "-o", rows]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "solve", instance, "--format", "csv")
    assert code == 0
    (solved,), (swept,) = csv.DictReader(out.splitlines()), read_rows(rows)
    assert solved["status"] == swept["status"] == "ok"
    for row in (solved, swept):
        del row["instance_id"], row["runtime_ms"]
    assert solved == swept


def test_sweep_unwritable_output_exits_2_before_generating(tmp_path, capsys, monkeypatch):
    calls = []
    for name in ("gen_log_family", "gen_random"):
        monkeypatch.setattr(delmenu.families, name, lambda **kwargs: calls.append(kwargs))
    spec = write_spec(tmp_path, [{"generator": "log", "k": 3}, {"generator": "random"}])
    code, out, err = run(capsys, "sweep", spec, "-o", str(tmp_path / "missing" / "rows.csv"))
    assert (code, out, calls) == (2, "", [])
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_sweep_rejects_job_counts_below_one(tmp_path, capsys, jobs):
    spec = write_spec(tmp_path, {"generator": "log", "k": 3})
    out_file = tmp_path / "rows.csv"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", spec, "-o", str(out_file), "--jobs", jobs])
    errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
    assert exc.value.code == 2 and not out_file.exists()
    assert errors == [f"delmenu sweep: error: argument --jobs: must be at least 1, got {jobs}"]


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize(
    "command, flag",
    [
        ("solve", "--cap-n"),
        ("sweep", "--cap-n"),
        ("reduce vertex-cover", "--cap-n"),
        ("verify", "--cap-profiles"),
    ],
)
def test_caps_below_one_exit_2(tmp_path, capsys, log3_file, triangle_edges, command, flag, value):
    out_file = tmp_path / "out"
    argv = {
        "solve": [log3_file],
        "sweep": [write_spec(tmp_path, {"generator": "log", "k": 3}), "-o", str(out_file)],
        "reduce vertex-cover": [triangle_edges, "-o", str(out_file)],
        "verify": [log3_file],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([*command.split(), *argv, flag, value])
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error" in line]
    assert exc.value.code == 2 and captured.out == "" and not out_file.exists()
    assert errors == [f"delmenu {command}: error: argument {flag}: must be at least 1, got {value}"]


# Every integer option: (command, option, the command's other required
# arguments).  "OUT" stands for the file the command would write.
INTEGER_OPTIONS = [
    ("generate log", "--k", ["-o", "OUT"]),
    ("generate outside", "--n", ["-o", "OUT"]),
    *(
        ("generate random", flag, ["--seed", "1", "-o", "OUT"])
        for flag in ("--n", "--support-size", "--value-min", "--value-max", "--bias-min", "--bias-max")
    ),
    ("generate random", "--seed", ["-o", "OUT"]),
    ("reduce vertex-cover", "--vertices", ["g.edges", "-o", "OUT"]),
    ("reduce vertex-cover", "--cap-n", ["g.edges", "-o", "OUT"]),
    ("reduce partition", "--M", ["p.txt", "-o", "OUT"]),
    ("solve", "--cap-n", ["x.json"]),
    ("sweep", "--jobs", ["spec.json", "-o", "OUT"]),
    ("sweep", "--cap-n", ["spec.json", "-o", "OUT"]),
    ("verify", "--menus", ["x.json"]),
    ("verify", "--seed", ["x.json"]),
    ("verify", "--cap-profiles", ["x.json"]),
]
INTEGER_OPTION_IDS = [f"{command} {flag}" for command, flag, _ in INTEGER_OPTIONS]


def parser_actions(parser=None):
    """(prog, action) for every action of the CLI parser and of its subparsers."""
    parser = parser or build_parser()
    for action in parser._actions:
        yield parser.prog, action
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from parser_actions(sub)


def test_every_integer_option_reads_through_parse_integer():
    actions = list(parser_actions())
    assert [(prog, a.option_strings) for prog, a in actions if a.type is int] == []
    integer = {
        (prog, a.option_strings[-1]) for prog, a in actions if a.type in (parse_integer, positive_int)
    }
    assert integer == {(f"delmenu {command}", flag) for command, flag, _ in INTEGER_OPTIONS}
    assert len(INTEGER_OPTIONS) == 18


@pytest.mark.parametrize("text", ["1_0", " 3", "\u0663"])
@pytest.mark.parametrize("command, flag, rest", INTEGER_OPTIONS, ids=INTEGER_OPTION_IDS)
def test_integer_options_reject_what_only_int_reads(tmp_path, capsys, command, flag, rest, text):
    # int() reads these as 10, 3 and 3 (the Arabic-Indic digit three).
    out_file = tmp_path / "out"
    rest = [str(out_file) if arg == "OUT" else arg for arg in rest]
    with pytest.raises(SystemExit) as exc:
        main([*command.split(), *rest, flag, text])
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert exc.value.code == 2 and captured.out == "" and not out_file.exists()
    assert len(errors) == 1
    assert errors[0].startswith(f"delmenu {command}: error: argument {flag}: invalid ")


@pytest.mark.parametrize("command, flag, rest", INTEGER_OPTIONS, ids=INTEGER_OPTION_IDS)
def test_integer_options_read_plain_spellings_as_int_does(command, flag, rest):
    (dest,) = {a.dest for _, a in parser_actions() if flag in a.option_strings}
    for text in ("7", "+07", "0012"):
        args = build_parser().parse_args([*command.split(), *rest, flag, text])
        assert getattr(args, dest) == int(text) and type(getattr(args, dest)) is int


def test_sweep_empty_header_only(tmp_path, capsys):
    spec = write_spec(tmp_path, {"ensembles": []})
    out_file = str(tmp_path / "rows.csv")
    code, _, _ = run(capsys, "sweep", spec, "-o", out_file)
    assert code == 0
    lines = Path(out_file).read_text().strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("instance_id,n,kind,opt_std,best_threshold_std,ratio")


def test_sweep_parallel_matches_serial(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        {"generator": "random", "kind": "independent", "count": 6, "seed0": 7, "n": 3},
    )
    serial, parallel = str(tmp_path / "s.csv"), str(tmp_path / "p.csv")
    assert run(capsys, "sweep", spec, "-o", serial)[0] == 0
    assert run(capsys, "sweep", spec, "-o", parallel, "--jobs", "2")[0] == 0
    strip = lambda rows: [{k: v for k, v in r.items() if k != "runtime_ms"} for r in rows]
    assert strip(read_rows(serial)) == strip(read_rows(parallel))


@pytest.mark.parametrize(
    "block, where",
    [
        ({"generator": "random", "count": "x"}, "ensemble block 0.count"),
        ({"generator": "log"}, "ensemble block 0.k"),
        ({"generator": "random", "value_range": "ab"}, "ensemble block 0.value_range"),
        ({"generator": "random", "bias_range": [1, 2, 3]}, "ensemble block 0.bias_range"),
        ({"generator": "outside", "n": "3.5"}, "ensemble block 0.n"),
        ({"generator": "outside", "n": True}, "ensemble block 0.n"),
        ({"generator": "random", "kind": 1}, "ensemble block 0.kind"),
        ({"generator": "three_approx", "eps": "1e-3"}, "ensemble block 0.eps"),
        ({"generator": "three_approx", "eps": "2/4"}, "ensemble block 0.eps"),
        ({"generator": "three_approx", "eps": 0.5}, "ensemble block 0.eps"),
        ({"generator": "random", "count": -3}, "ensemble block 0.count: expected at least 1"),
        ({"generator": "random", "count": 0}, "ensemble block 0.count: expected at least 1"),
        # A field that the block's generator does not read: the first in the block's order.
        ({"generator": "random", "n": 3, "seed": 7}, "ensemble block 0.seed: unknown field"),
        ({"generator": "log", "k": 3, "n": 2}, "ensemble block 0.n: unknown field"),
        ({"generator": "three_approx", "k": 3, "eps": "1/2"}, "ensemble block 0.k: unknown field"),
        ({"generator": "outside", "eps": "1/2", "n": 3}, "ensemble block 0.eps: unknown field"),
        ({"k": 3}, "ensemble block 0.generator: missing field"),
        ({"generator": 5}, "ensemble block 0.generator: expected a string, got 5"),
        # It is refused before any field is read: a misspelled required field
        # is named, and so is an unknown key beside a field of the wrong type.
        ({"generator": "log", "kk": 3}, "ensemble block 0.kk: unknown field"),
        ({"generator": "outside", "N": 4}, "ensemble block 0.N: unknown field"),
        ({"generator": "random", "n": "x", "seed": 7}, "ensemble block 0.seed: unknown field"),
    ],
)
def test_sweep_malformed_block_exits_2(tmp_path, capsys, block, where):
    spec = write_spec(tmp_path, [{"generator": "log", "k": 2}, block])
    code, _, err = run(capsys, "sweep", spec, "-o", str(tmp_path / "rows.csv"))
    assert code == 2
    assert where.replace("block 0", "block 1") in err
    assert not (tmp_path / "rows.csv").exists()


@pytest.mark.parametrize("spec", [3, "x", {"ensembles": {"generator": "log"}}, [5]])
def test_sweep_malformed_spec_exits_2(tmp_path, capsys, spec):
    path = write_spec(tmp_path, spec)
    code, _, err = run(capsys, "sweep", path, "-o", str(tmp_path / "rows.csv"))
    assert code == 2
    assert "ensemble" in err
    assert not (tmp_path / "rows.csv").exists()


def test_sweep_spec_wrapper_names_its_unknown_field(tmp_path, capsys):
    spec = write_spec(tmp_path, {"ensembles": [{"generator": "log", "k": 2}], "seed": 7})
    code, out, err = run(capsys, "sweep", spec, "-o", str(tmp_path / "rows.csv"))
    assert (code, out, err) == (2, "", "error: ensemble spec.seed: unknown field\n")
    assert not (tmp_path / "rows.csv").exists()


def test_sweep_instance_ids(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        [
            {"generator": "random", "kind": "correlated", "count": 2, "seed0": 5},
            {"generator": "log", "k": 2},
            {"generator": "three_approx"},
            {"generator": "three_approx", "eps": "1/7"},
            {"generator": "outside", "n": 2},
        ],
    )
    out_file = str(tmp_path / "rows.csv")
    assert run(capsys, "sweep", spec, "-o", out_file)[0] == 0
    assert [r["instance_id"] for r in read_rows(out_file)] == [
        "random-correlated-s5",
        "random-correlated-s6",
        "log-k2",
        "three-approx-1/1000",
        "three-approx-1/7",
        "outside-n2",
    ]


# Each generator's block with only its required fields, and the id README gives its row.
REQUIRED_BLOCKS = {
    "random": ({}, "random-independent-s0"),
    "log": ({"k": 3}, "log-k3"),
    "three_approx": ({}, "three-approx-1/1000"),
    "outside": ({"n": 3}, "outside-n3"),
}


@pytest.mark.parametrize("gen", cli_mod.SWEEP_GENERATORS)
def test_sweep_generator_fields_bind_to_its_constructor(gen):
    name = cli_mod.SWEEP_GENERATORS[gen][0]
    fields, instance_id = REQUIRED_BLOCKS[gen]
    [(got_id, constructor, kwargs)] = cli_mod._ensemble_jobs({"generator": gen, **fields})
    assert constructor is getattr(families, name)
    inspect.signature(getattr(families, name)).bind(**kwargs)
    assert got_id == instance_id


def test_sweep_semantic_errors_become_skipped_rows(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        [
            {"generator": "random", "value_range": [8, 0]},
            {"generator": "random", "kind": "fancy"},
            {"generator": "log", "k": 99},
        ],
    )
    out_file = str(tmp_path / "rows.csv")
    assert run(capsys, "sweep", spec, "-o", out_file)[0] == 0
    rows = read_rows(out_file)
    assert [r["instance_id"] for r in rows] == ["random-independent-s0", "random-fancy-s0", "log-k99"]
    assert all(r["status"].startswith("skipped: ") for r in rows)


def test_import_leaves_process_pool_unloaded():
    # Only `sweep --jobs N` with N > 1 needs a worker pool; every other call
    # would pay for importing it at start-up.
    code = "import sys, delmenu.cli; print('concurrent.futures.process' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(delmenu.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_solve_and_verify_leave_generators_and_reductions_unloaded(tmp_path):
    # Only generate, reduce and sweep need the generators or the reductions;
    # solve and verify would pay for importing them at start-up.
    paths = [str(tmp_path / "log3.json"), str(tmp_path / "random.json")]
    dump_instance(gen_log_family(3), paths[0])
    dump_instance(gen_random("independent", n=3, support_size=2, seed=1, outside="random"), paths[1])
    code = (
        "import sys, delmenu.cli\n"
        "codes = [delmenu.cli.main([cmd, path]) for cmd in ('solve', 'verify') for path in sys.argv[1:]]\n"
        "print(codes, sorted({'delmenu.families', 'delmenu.reductions'} & sys.modules.keys()))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(delmenu.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code, *paths], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0] []"


def test_package_loads_generators_and_reductions_on_attribute_access():
    # In a fresh interpreter, dir() lists the submodules without loading
    # them, and reading them as attributes of the package loads them.
    code = (
        "import sys, delmenu\n"
        "names = dir(delmenu)\n"
        "print(sorted({'delmenu.families', 'delmenu.reductions'} & sys.modules.keys()))\n"
        "print(delmenu.families is sys.modules['delmenu.families'],"
        " delmenu.reductions is sys.modules['delmenu.reductions'])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(delmenu.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True True"]


def test_package_dir_lists_the_lazy_names_not_the_machinery(monkeypatch):
    # With no attribute bound, as before any import, the package's
    # __getattr__ finds the submodule.
    for name in ("families", "reductions"):
        monkeypatch.delattr(delmenu, name)
        assert getattr(delmenu, name) is sys.modules[f"delmenu.{name}"]
    names = dir(delmenu)
    assert names == sorted(names)
    assert set(delmenu.__all__) | {"families", "reductions"} <= set(names)
    assert not {"importlib", "types", "_LAZY", "_LAZY_HOME", "__getattr__", "__dir__"} & set(names)


def test_public_names_are_derived_from_the_imports():
    code = (
        "import sys, types, delmenu\n"
        "names = delmenu.__all__\n"
        "print(sorted({'delmenu.families', 'delmenu.reductions'} & sys.modules.keys()))\n"
        "print(names == sorted(names), len(names))\n"
        "print([n for n in names if n.startswith('_')])\n"
        "print([n for n in names if isinstance(getattr(delmenu, n), types.ModuleType)])\n"
        "star = {}\n"
        "exec('from delmenu import *', star)\n"
        "print(sorted(star.keys() - {'__builtins__'}) == names)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(delmenu.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True 60", "[]", "[]", "True"]


def test_sweep_workers_clamped():
    assert sweep_workers(64, 200, 2) == (2, 25)
    assert sweep_workers(8, 3, 16) == (3, 1)
    assert sweep_workers(4, 200, None) == (1, 50)
    assert sweep_workers(0, 10, 4) == (1, 3)
    assert sweep_workers(2, 0, 4) == (1, 1)


def test_sweep_counts_the_cpus_of_its_affinity_mask(tmp_path, capsys, monkeypatch):
    # Under `taskset -c 0` a machine of 8 CPUs runs the sweep on one: the
    # clamp must count the one, and the machine's count only where the
    # platform has no affinity mask.
    calls = []
    monkeypatch.setattr(cli_mod, "sweep_workers", lambda *a: calls.append(a) or sweep_workers(*a))
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    spec = write_spec(tmp_path, {"generator": "log", "k": 3})
    out_file = str(tmp_path / "rows.csv")
    assert run(capsys, "sweep", spec, "-o", out_file, "--jobs", "2")[0] == 0
    monkeypatch.delattr(os, "sched_getaffinity")
    assert run(capsys, "sweep", spec, "-o", out_file, "--jobs", "2")[0] == 0
    assert calls == [(2, 1, 1), (2, 1, 8)]


def test_sweep_skips_over_cap(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        {"generator": "random", "kind": "independent", "count": 1, "seed0": 1, "n": 5},
    )
    out_file = str(tmp_path / "rows.csv")
    code, _, _ = run(capsys, "sweep", spec, "-o", out_file, "--cap-n", "4")
    assert code == 0
    rows = read_rows(out_file)
    assert rows[0]["status"].startswith("skipped")


def test_sweep_over_the_row_cap_exits_3_and_writes_no_csv(tmp_path):
    # A subprocess with a timeout: without the cap, the sweep builds 10**8
    # jobs until it is killed.
    env = {**os.environ, "PYTHONPATH": str(Path(delmenu.__file__).resolve().parents[1])}
    spec = write_spec(tmp_path, {"generator": "random", "count": 100000000})
    rows = tmp_path / "rows.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "delmenu.cli", "sweep", spec, "-o", str(rows)],
        capture_output=True, text=True, env=env, timeout=10,
    )
    message = "sweep of at least 100000000 rows exceeds the cap of 100000 rows"
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", f"error: {message}\n")
    assert not rows.exists()


def test_sweep_row_cap_counts_every_block(monkeypatch):
    monkeypatch.setattr(cli_mod, "SWEEP_ROW_CAP", 5)
    log = {"generator": "log", "k": 2}
    assert len(cli_mod._ensemble_jobs([{"generator": "random", "count": 4}, log])) == 5
    assert len(cli_mod._ensemble_jobs([log] * 5)) == 5
    with pytest.raises(CapExceededError, match="sweep of at least 6 rows exceeds the cap of 5"):
        cli_mod._ensemble_jobs([{"generator": "random", "count": 3}] * 2)
    with pytest.raises(CapExceededError, match="sweep of at least 6 rows"):
        cli_mod._ensemble_jobs([log] * 6)


def test_search_deeper_than_the_recursion_limit_solves(tmp_path, capsys):
    # The walk has one level per action, 1,101 here, past the interpreter's
    # default recursion limit of 1,000: it keeps its own stack, so only
    # --cap-n limits the size.
    deep = str(tmp_path / "deep.json")
    fields = ["--kind", "correlated", "--n", "1100", "--support-size", "1", "--seed", "1"]
    assert main(["generate", "random", *fields, "--value-max", "100000", "-o", deep]) == 0
    capsys.readouterr()
    code, out, err = run(capsys, "solve", deep, "--cap-n", "1100")
    assert (code, err) == (0, "")
    result = json.loads(out)
    assert result["opt_menu"] == [966]
    assert result["opt_value"] == {"std": "199619/2", "inf": "0"}
    spec = write_spec(
        tmp_path,
        {
            "generator": "random",
            "kind": "correlated",
            "n": 1100,
            "support_size": 1,
            "value_range": [0, 100000],
            "count": 1,
            "seed0": 1,
        },
    )
    out_file = str(tmp_path / "rows.csv")
    assert run(capsys, "sweep", spec, "-o", out_file, "--cap-n", "1100")[0] == 0
    row = read_rows(out_file)[0]
    assert (row["status"], row["opt_std"]) == ("ok", "199619/2")


def test_reduce_vertex_cover_past_the_recursion_limit_finds_the_cover(tmp_path, capsys):
    # 60 disjoint edges: the cover search has one level per vertex.  The
    # limit is lowered below the graph's 120 vertices; the search keeps its
    # own stack, so the cover is still found.
    edges = tmp_path / "matching.edges"
    edges.write_text("".join(f"{2 * i + 1} {2 * i + 2}\n" for i in range(60)))
    out_file = tmp_path / "vc.json"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 60)
    try:
        code, out, err = run(
            capsys, "reduce", "vertex-cover", str(edges), "--cap-n", "3000", "-o", str(out_file)
        )
    finally:
        sys.setrecursionlimit(limit)
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "actions": 121,
        "profiles": 180,
        "min_vertex_cover": 60,
        "predicted_opt": "10/3",
    }
    assert load_instance(str(out_file)).n == 121


def test_reduce_vertex_cover_of_100_disjoint_edges_finds_the_cover(tmp_path, capsys):
    edges, out_file = tmp_path / "matching.edges", tmp_path / "vc.json"
    edges.write_text("".join(f"{2 * i + 1} {2 * i + 2}\n" for i in range(100)))
    code, out, err = run(
        capsys, "reduce", "vertex-cover", str(edges), "--cap-n", "3000", "-o", str(out_file)
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["min_vertex_cover"] == 100
    assert out_file.exists()


def test_reduce_vertex_cover_over_the_value_cap_exits_3_and_writes_no_file(tmp_path, capsys):
    edges, out_file = tmp_path / "matching.edges", tmp_path / "vc.json"
    edges.write_text("".join(f"{2 * i + 1} {2 * i + 2}\n" for i in range(1100)))
    start = time.perf_counter()
    code, out, err = run(
        capsys, "reduce", "vertex-cover", str(edges), "--cap-n", "3000", "-o", str(out_file)
    )
    assert time.perf_counter() - start < 1
    message = "instance of 3300 profiles of 2201 values exceeds the cap of 1000000 values"
    assert (code, out, err) == (3, "", f"error: {message}\n")
    assert not out_file.exists()


@pytest.mark.parametrize("kind", ["independent", "correlated"])
def test_generate_random_over_the_value_cap_exits_3_and_sweeps_a_skipped_row(tmp_path, kind):
    # Subprocesses with a timeout: without the cap, each call builds 10**8
    # actions or values until it is killed.
    env = {**os.environ, "PYTHONPATH": str(Path(delmenu.__file__).resolve().parents[1])}
    cli = [sys.executable, "-m", "delmenu.cli"]
    message = "instance of 200000000 values exceeds the cap of 1000000 values"
    out_file = tmp_path / "x.json"

    def run_cli(*argv):
        return subprocess.run([*cli, *argv], capture_output=True, text=True, env=env, timeout=10)

    proc = run_cli(
        "generate", "random", "--kind", kind, "--n", "100000000", "--seed", "1", "-o", str(out_file)
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", f"error: {message}\n")
    assert not out_file.exists()
    spec = write_spec(tmp_path, {"generator": "random", "kind": kind, "n": 100000000})
    rows = tmp_path / "rows.csv"
    proc = run_cli("sweep", spec, "-o", str(rows))
    assert proc.returncode == 0, proc.stderr
    assert [r["status"] for r in read_rows(rows)] == [f"skipped: {message}"]


def test_module_entry_point_exits_2_on_an_integer_option_only_int_reads(tmp_path):
    # The entry point the cli-batch benchmark times: `sys.exit(main())`.
    env = {**os.environ, "PYTHONPATH": str(Path(delmenu.__file__).resolve().parents[1])}
    out_file = tmp_path / "x.json"

    def generate_log(k):
        argv = [sys.executable, "-m", "delmenu.cli", "generate", "log", "--k", k, "-o", str(out_file)]
        return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=10)

    proc = generate_log("1_0")
    assert (proc.returncode, proc.stdout) == (2, "") and not out_file.exists()
    assert [line for line in proc.stderr.splitlines() if "error:" in line] == [
        "delmenu generate log: error: argument --k: invalid parse_integer value: '1_0'"
    ]
    proc = generate_log("3")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"wrote {out_file}\n", "")
    assert load_instance(str(out_file)) == gen_log_family(3)


@pytest.mark.parametrize("kind", ["independent", "correlated"])
def test_gen_random_value_cap_counts_the_outside_option(kind, monkeypatch):
    # (n + 1) * support_size values with an outside option, n * support_size without.
    monkeypatch.setattr(delmenu.model, "VALUE_CAP", 12)
    assert gen_random(kind, n=3, support_size=3, seed=1, outside="random").n == 3
    assert gen_random(kind, n=4, support_size=3, seed=1, outside="none").n == 4
    with pytest.raises(CapExceededError, match="instance of 15 values exceeds the cap of 12 values"):
        gen_random(kind, n=4, support_size=3, seed=1, outside="fixed")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_families(tmp_path, capsys):
    for args in (["log", "--k", "3"], ["three-approx", "--eps", "1/100"], ["outside", "--n", "3"]):
        out_file = str(tmp_path / "v.json")
        assert main(["generate", *args, "-o", out_file]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "verify", out_file)
        assert code == 0
        assert "ok: decomposition identity" in out


def verify_lines(tmp_path, capsys, *generate_args, verify_args=()):
    path = str(tmp_path / "v.json")
    assert main(["generate", *generate_args, "-o", path]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "verify", path, *verify_args)
    assert code == 0
    return out.splitlines()


def test_verify_skips_oracle_checks_on_correlated(tmp_path, capsys):
    assert verify_lines(tmp_path, capsys, "log", "--k", "3") == [
        "ok: decomposition identity",
        "skipped: dp/oracle equivalence (correlated instance)",
        "ok: threshold dominance",
        "ok: single-action bound",
        "skipped: derandomization certificates (correlated instance)",
    ]


def test_verify_runs_every_check_on_outside_family(tmp_path, capsys):
    assert verify_lines(tmp_path, capsys, "outside", "--n", "3") == [
        "ok: decomposition identity",
        "ok: dp/oracle equivalence",
        "ok: threshold dominance",
        "ok: single-action bound",
        "ok: derandomization certificates",
    ]


def test_verify_names_why_independent_checks_skipped(tmp_path, capsys):
    # One action with four draws: every sampled menu is {1}, over a cap of 2
    # profiles, and the only threshold menu is the optimal menu itself.
    lines = verify_lines(
        tmp_path, capsys, "random", "--n", "1", "--support-size", "4", "--seed", "0",
        verify_args=("--cap-profiles", "2"),
    )
    assert lines == [
        "ok: decomposition identity",
        "skipped: dp/oracle equivalence (joint support over 2 profiles on every sampled menu)",
        "ok: threshold dominance",
        "ok: single-action bound",
        "skipped: derandomization certificates (every threshold menu lies inside the optimal menu)",
    ]


def test_verify_checks_each_distinct_sampled_menu_once(tmp_path, capsys, monkeypatch):
    # One action: all five sampled menus are {1}, so the oracle runs once.
    real = cli_mod.eval_bruteforce_product
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli_mod, "eval_bruteforce_product", counting)
    lines = verify_lines(tmp_path, capsys, "random", "--n", "1", "--support-size", "4", "--seed", "0")
    assert calls == [frozenset({1})]
    assert lines == [
        "ok: decomposition identity",
        "ok: dp/oracle equivalence",
        "ok: threshold dominance",
        "ok: single-action bound",
        "skipped: derandomization certificates (every threshold menu lies inside the optimal menu)",
    ]


def test_verify_builds_one_threshold_menu_per_distinct_bias(tmp_path, capsys, monkeypatch):
    # 60 actions over 26 distinct biases: every sampled menu's dominance and
    # single-action checks read the threshold menus built so far.
    real = cli_mod.threshold_menu
    calls = []

    def counting(instance, t):
        calls.append(t)
        return real(instance, t)

    monkeypatch.setattr(cli_mod, "threshold_menu", counting)
    lines = verify_lines(
        tmp_path, capsys, "random", "--n", "60", "--support-size", "3", "--seed", "1",
        "--outside", "fixed",
    )
    instance = load_instance(str(tmp_path / "v.json"))
    biases = {a.bias for a in instance.actions}
    assert len(calls) == len(set(calls)) < 60
    assert biases <= set(calls) <= biases | {instance.outside.bias}
    assert "ok: single-action bound" in lines


@pytest.mark.parametrize(
    "generate_args", [("three-approx", "--eps", "1/1000"), ("outside", "--n", "4")]
)
def test_verify_certifies_only_thresholds_that_interfere(
    tmp_path, capsys, monkeypatch, generate_args
):
    # A threshold menu inside the optimal menu has no interference to certify.
    real = cli_mod.derandomize_interference
    calls = []

    def counting(instance, opt_menu, t):
        calls.append(t)
        return real(instance, opt_menu, t)

    monkeypatch.setattr(cli_mod, "derandomize_interference", counting)
    lines = verify_lines(tmp_path, capsys, *generate_args)
    instance = load_instance(str(tmp_path / "v.json"))
    opt_menu, _ = brute_force_opt(instance)
    steps = threshold_menus(instance)
    assert calls == [t for t, menu in steps if not menu <= opt_menu]
    assert 0 < len(calls) < len(steps)  # the first threshold menu, {1} or empty, is skipped
    assert lines == [
        "ok: decomposition identity",
        "ok: dp/oracle equivalence",
        "ok: threshold dominance",
        "ok: single-action bound",
        "ok: derandomization certificates",
    ]


@pytest.mark.parametrize("count", ["0", "-1"])
def test_verify_rejects_menu_counts_below_one(tmp_path, capsys, count):
    path = str(tmp_path / "v.json")
    assert main(["generate", "log", "--k", "3", "-o", path]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["verify", path, "--menus", count])
    assert exc.value.code == 2
    assert "--menus" in capsys.readouterr().err


def test_verify_refuses_more_menus_than_the_cap(tmp_path, capsys):
    # Every sampled menu is kept, so a huge --menus would fill memory.
    path = str(tmp_path / "v.json")
    assert main(["generate", "log", "--k", "3", "-o", path]) == 0
    capsys.readouterr()
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", path, "--menus", str(cli_mod.VERIFY_MENU_CAP + 1))
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == "error: 100001 menus exceed the cap of 100000 menus\n"


def test_verify_one_menu_checks_the_full_menu(tmp_path, capsys, monkeypatch):
    real = cli_mod.eval_bruteforce_product
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli_mod, "eval_bruteforce_product", counting)
    lines = verify_lines(tmp_path, capsys, "outside", "--n", "3", verify_args=("--menus", "1"))
    assert calls == [frozenset(range(1, 6))]  # the full menu alone
    assert lines == [
        "ok: decomposition identity",
        "ok: dp/oracle equivalence",
        "ok: threshold dominance",
        "ok: single-action bound",
        "ok: derandomization certificates",
    ]


def test_verify_survives_profile_cap(tmp_path, capsys):
    # Every threshold menu that needs a certificate has a joint support far
    # over 10 profiles: the cap bounds the product oracle alone, and the
    # certificates, which enumerate no profiles, still run.
    lines = verify_lines(
        tmp_path, capsys, "random", "--seed", "1", "--n", "6", "--support-size", "4",
        verify_args=("--cap-profiles", "10"),
    )
    assert lines == [
        "ok: decomposition identity",
        "ok: dp/oracle equivalence",
        "ok: threshold dominance",
        "ok: single-action bound",
        "ok: derandomization certificates",
    ]


def test_verify_survives_action_cap(tmp_path, capsys):
    # 21 actions: the optimal menu, which the certificates need, is over the
    # exhaustive search's cap of 20; the other checks still report.
    lines = verify_lines(tmp_path, capsys, "random", "--seed", "1", "--n", "21", "--support-size", "2")
    assert lines == [
        "ok: decomposition identity",
        "ok: dp/oracle equivalence",
        "ok: threshold dominance",
        "ok: single-action bound",
        "skipped: derandomization certificates (instance has 21 actions, cap is 20)",
    ]


# The proven checks cannot fail honestly: each test below breaks one input
# of one check and pins the violation contract (exit 4, VIOLATION lines only).


def verify_violations(tmp_path, capsys, *generate_args):
    path = str(tmp_path / "v.json")
    assert main(["generate", *generate_args, "-o", path]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "verify", path)
    lines = out.splitlines()
    assert code == 4
    assert lines and all(line.startswith("VIOLATION: ") for line in lines)
    return lines


def test_verify_reports_broken_decomposition_identity(tmp_path, capsys, monkeypatch):
    real = cli_mod.decompose

    def broken(instance, menu):
        dec = real(instance, menu)
        return dataclasses.replace(dec, bdif=dec.bdif + 1)

    monkeypatch.setattr(cli_mod, "decompose", broken)
    lines = verify_violations(tmp_path, capsys, "log", "--k", "3")
    assert all(line.startswith("VIOLATION: decomposition identity failed on menu [") for line in lines)


def test_verify_reports_decomposition_from_the_minimum_bias(tmp_path, capsys, monkeypatch):
    # sur = f - bdif makes the identity hold by construction; with u_low the
    # least bias instead of the largest, bdif goes negative.
    def min_bias(instance, menu):
        report = cli_mod.evaluate(instance, menu)
        u_low = min(instance.bias_of(i) for i in candidates(instance, menu))
        bdif = u_low - xsum(instance.bias_of(i) * p for i, p in report.freq.items())
        return Decomposition(u_low=u_low, sur=report.f - bdif, bdif=bdif)

    monkeypatch.setattr(cli_mod, "decompose", min_bias)
    lines = verify_violations(tmp_path, capsys, "log", "--k", "3")
    assert any(line.startswith("VIOLATION: decomposition identity failed on menu [") for line in lines)


def test_verify_reports_negative_surplus_standard_part(tmp_path, capsys, monkeypatch):
    real = cli_mod.decompose

    def broken(instance, menu):
        dec = real(instance, menu)
        shift = cli_mod.evaluate(instance, menu).f.std + 1
        return dataclasses.replace(dec, sur=dec.sur - shift, bdif=dec.bdif + shift)

    monkeypatch.setattr(cli_mod, "decompose", broken)
    lines = verify_violations(tmp_path, capsys, "log", "--k", "3")
    assert all(line.startswith("VIOLATION: decomposition identity failed on menu [") for line in lines)


def test_verify_reports_dp_oracle_mismatch(tmp_path, capsys, monkeypatch):
    real = cli_mod.eval_bruteforce_product

    def broken(*args, **kwargs):
        report = real(*args, **kwargs)
        return dataclasses.replace(report, f=report.f + 1)

    monkeypatch.setattr(cli_mod, "eval_bruteforce_product", broken)
    lines = verify_violations(tmp_path, capsys, "outside", "--n", "3")
    assert all(line.startswith("VIOLATION: dp/oracle mismatch on menu [") for line in lines)


def test_verify_reports_contribution_moved_between_actions(tmp_path, capsys, monkeypatch):
    # f and every frequency still match; only the split of f by action differs.
    real = cli_mod.eval_bruteforce_product

    def broken(*args, **kwargs):
        report = real(*args, **kwargs)
        contrib = dict(report.contrib)
        if len(contrib) > 1:  # the empty menu offers the outside option alone
            first, second, *_ = contrib
            contrib[first] += 1
            contrib[second] -= 1
        return dataclasses.replace(report, contrib=contrib)

    monkeypatch.setattr(cli_mod, "eval_bruteforce_product", broken)
    lines = verify_violations(tmp_path, capsys, "outside", "--n", "3")
    assert all(line.startswith("VIOLATION: dp/oracle mismatch on menu [") for line in lines)


def test_verify_reports_bias_difference_mismatch(tmp_path, capsys, monkeypatch):
    # The identity and both signs still hold; only the oracle's frequencies
    # disagree with bdif.
    real = cli_mod.decompose

    def broken(instance, menu):
        dec = real(instance, menu)
        return dataclasses.replace(dec, sur=dec.sur - IOTA, bdif=dec.bdif + IOTA)

    monkeypatch.setattr(cli_mod, "decompose", broken)
    lines = verify_violations(tmp_path, capsys, "outside", "--n", "3")
    assert all(line.startswith("VIOLATION: bias-difference mismatch on menu [") for line in lines)


def test_verify_reports_threshold_dominance_failure(tmp_path, capsys, monkeypatch):
    real = cli_mod.decompose

    def broken(instance, menu):
        dec = real(instance, menu)
        return dataclasses.replace(dec, sur=dec.sur + 100)

    monkeypatch.setattr(cli_mod, "decompose", broken)
    lines = verify_violations(tmp_path, capsys, "log", "--k", "3")
    assert any(line.startswith("VIOLATION: threshold-dominance failed on menu [") for line in lines)


def test_verify_reports_single_action_bound_failure(tmp_path, capsys, monkeypatch):
    # Contributions feed only the single-action bound.
    real = cli_mod.evaluate

    def broken(instance, menu):
        report = real(instance, menu)
        contrib = {i: c + 100 for i, c in report.contrib.items()}
        return dataclasses.replace(report, contrib=contrib)

    monkeypatch.setattr(cli_mod, "evaluate", broken)
    lines = verify_violations(tmp_path, capsys, "log", "--k", "3")
    assert all(line.startswith("VIOLATION: single-action bound failed on menu [") for line in lines)
    assert ", action " in lines[0]


def test_verify_reports_failed_certificate(tmp_path, capsys, monkeypatch):
    real = cli_mod.derandomize_interference

    def broken(*args, **kwargs):
        action, _ = real(*args, **kwargs)
        return action, action is None

    monkeypatch.setattr(cli_mod, "derandomize_interference", broken)
    lines = verify_violations(tmp_path, capsys, "outside", "--n", "3")
    assert all(line.startswith("VIOLATION: derandomization certificate failed at t=") for line in lines)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_exit_code_missing_file(capsys):
    code, _, err = run(capsys, "eval", "/nonexistent.json", "--menu", "all")
    assert code == 2
    assert "error" in err


def test_exit_code_bad_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code, _, err = run(capsys, "eval", str(path), "--menu", "all")
    assert code == 2


def test_exit_code_bad_menu_index(log3_file, capsys):
    code, _, err = run(capsys, "eval", log3_file, "--menu", "9")
    assert code == 3
    assert "out of range" in err


def test_exit_code_unknown_family(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "fancy", "-o", "x.json"])
    capsys.readouterr()
    assert exc.value.code == 2


def test_exit_code_support_as_dict(tmp_path, capsys):
    path = tmp_path / "inst.json"
    assert main(["generate", "three-approx", "--eps", "1/2", "-o", str(path)]) == 0
    obj = json.loads(path.read_text())
    obj["actions"][0]["support"] = {"value": {"std": "1", "inf": "0"}, "prob": "1"}
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "solve", str(path))
    assert code == 2
    assert "support" in err


def test_exit_code_null_label(log3_file, capsys):
    with open(log3_file) as fh:
        obj = json.load(fh)
    obj["actions"][0]["label"] = None
    with open(log3_file, "w") as fh:
        json.dump(obj, fh)
    code, _, err = run(capsys, "eval", log3_file, "--menu", "all")
    assert code == 2
    assert "label" in err


@pytest.mark.parametrize("family", [["three-approx"], ["outside", "--n", "3"]])
@pytest.mark.parametrize("eps", ["0.001", "1e-3", "1_0/3", "1/0"])
def test_generate_eps_reads_rational_literals_only(tmp_path, capsys, family, eps):
    with pytest.raises(SystemExit) as exc:
        main(["generate", *family, "--eps", eps, "-o", str(tmp_path / "g.json")])
    assert exc.value.code == 2
    assert "--eps" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["0.5", " 1_0 ", "1e3", "2/4"])
def test_exit_code_non_canonical_rational(log3_file, capsys, text):
    with open(log3_file) as fh:
        obj = json.load(fh)
    obj["actions"][0]["bias"]["std"] = text
    with open(log3_file, "w") as fh:
        json.dump(obj, fh)
    code, _, err = run(capsys, "eval", log3_file, "--menu", "all")
    assert code == 2
    assert "actions[0].bias.std" in err


@pytest.mark.parametrize(
    "path, field, text, message",
    [
        (("actions", 0, "bias"), "std", "1.5", "actions[0].bias.std: invalid rational '1.5'"),
        (
            ("actions", 0, "support", 0, "value"), "std", "1.5",
            "actions[0].support[0].value.std: invalid rational '1.5'",
        ),
        (("actions", 0), "label", None, "actions[0].label: expected a string, got None"),
        (
            ("outside", "support", 0), "prob", "0.5",
            "outside.support[0].prob: invalid rational '0.5'",
        ),
        # The action's own check has no field of its own: the action names it.
        (
            ("actions", 0, "support", 0), "prob", "7",
            "actions[0]: support probabilities sum to 22/3, not 1",
        ),
    ],
)
def test_instance_file_error_names_its_location_once(tmp_path, capsys, path, field, text, message):
    file = tmp_path / "outside3.json"
    assert main(["generate", "outside", "--n", "3", "-o", str(file)]) == 0
    capsys.readouterr()
    obj = json.loads(file.read_text())
    node = obj
    for key in path:
        node = node[key]
    node[field] = text
    file.write_text(json.dumps(obj))
    assert run(capsys, "solve", str(file)) == (2, "", f"error: {message}\n")


NOT_UTF8 = b"\xff\xfe"
DEEP = b"[" * 100000 + b"]" * 100000  # beyond the JSON decoder's recursion limit
LONG_INT = b'{"schema_version": ' + b"1" * 5000 + b"}"  # beyond int's digit limit


@pytest.mark.parametrize(
    "content, argv",
    [
        (NOT_UTF8, ["eval", "FILE", "--menu", "all"]),
        (NOT_UTF8, ["solve", "FILE"]),
        (NOT_UTF8, ["verify", "FILE"]),
        (NOT_UTF8, ["sweep", "FILE", "-o", "OUT"]),
        (NOT_UTF8, ["reduce", "vertex-cover", "FILE", "-o", "OUT"]),
        (NOT_UTF8, ["reduce", "partition", "FILE", "-o", "OUT"]),
        (DEEP, ["solve", "FILE"]),
        (DEEP, ["sweep", "FILE", "-o", "OUT"]),
        (LONG_INT, ["solve", "FILE"]),
        (LONG_INT, ["sweep", "FILE", "-o", "OUT"]),
    ],
)
def test_malformed_file_exits_2_with_one_error_line(tmp_path, capsys, content, argv):
    file = tmp_path / "input"
    file.write_bytes(content)
    paths = {"FILE": str(file), "OUT": str(tmp_path / "out")}
    code, out, err = run(capsys, *(paths.get(arg, arg) for arg in argv))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


ZERO_OBJ, ONE_OBJ = {"std": "0", "inf": "0"}, {"std": "1", "inf": "0"}
MISSING = object()  # an edit that deletes the field
INDEPENDENT_OBJ = {
    "schema_version": 1,
    "kind": "independent",
    "actions": [{"bias": ZERO_OBJ, "support": [{"value": ONE_OBJ, "prob": "1"}]}],
    "outside": None,
}
CORRELATED_OBJ = {
    "schema_version": 1,
    "kind": "correlated",
    "actions": [{"bias": ZERO_OBJ}],
    "outside": None,
    "profiles": [{"prob": "1", "values": [ONE_OBJ]}],
}


def _edited(base, path, value):
    obj = json.loads(json.dumps(base))
    if not path:
        return value
    node = obj
    for key in path[:-1]:
        node = node[key]
    if value is MISSING:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return obj


@pytest.mark.parametrize(
    "base, path, value, message",
    [
        (INDEPENDENT_OBJ, (), [], "top level: expected an object"),
        (INDEPENDENT_OBJ, ("actions",), [], "actions: expected a nonempty list"),
        (INDEPENDENT_OBJ, ("actions", 0), 5, "actions[0]: expected an object"),
        (
            INDEPENDENT_OBJ, ("actions", 0, "bias"), {"std": "1"},
            "actions[0].bias: expected an object with 'std' and 'inf'",
        ),
        (INDEPENDENT_OBJ, ("actions", 0, "support"), [], "actions[0]: action support is empty"),
        (CORRELATED_OBJ, ("actions", 0, "bias"), MISSING, "actions[0].bias: missing field"),
        (CORRELATED_OBJ, ("outside",), {}, "outside.bias: missing field"),
        (CORRELATED_OBJ, ("profiles",), [], "profiles: expected a nonempty list"),
        (CORRELATED_OBJ, ("profiles", 0), 3, "profiles[0]: expected an object"),
        (CORRELATED_OBJ, ("profiles", 0, "prob"), MISSING, "profiles[0].prob: missing field"),
        (
            CORRELATED_OBJ, ("profiles", 0, "prob"), "0",
            "profiles[0]: profile probability 0 is not positive",
        ),
        (
            CORRELATED_OBJ, ("profiles", 0, "values", 0, "std"), "-1",
            "profiles[0]: profile value -1 has negative standard part",
        ),
        (
            CORRELATED_OBJ, ("profiles",),
            [{"prob": "2/3", "values": [ONE_OBJ]}, {"prob": "2/3", "values": [ZERO_OBJ]}],
            "profile probabilities sum to 4/3, not 1",
        ),
        # Each object holds only its schema's keys.
        (INDEPENDENT_OBJ, ("outisde",), None, "outisde: unknown field"),
        (INDEPENDENT_OBJ, ("profiles",), [], "profiles: unknown field"),
        (INDEPENDENT_OBJ, ("actions", 0, "lable"), "a", "actions[0].lable: unknown field"),
        (
            INDEPENDENT_OBJ, ("actions", 0, "support", 0, "porb"), "1",
            "actions[0].support[0].porb: unknown field",
        ),
        (CORRELATED_OBJ, ("actions", 0, "support"), [], "actions[0].support: unknown field"),
        (
            CORRELATED_OBJ, ("outside",), {"bias": ZERO_OBJ, "label": "o"},
            "outside.label: unknown field",
        ),
        (CORRELATED_OBJ, ("profiles", 0, "weight"), "1", "profiles[0].weight: unknown field"),
        # A missing field is named at the object that lacks it, and a field of
        # the wrong type by its expected type.
        (INDEPENDENT_OBJ, ("actions", 0, "bias"), MISSING, "actions[0].bias: missing field"),
        (
            INDEPENDENT_OBJ, ("actions", 0, "support", 0, "value"), MISSING,
            "actions[0].support[0].value: missing field",
        ),
        (
            INDEPENDENT_OBJ, ("actions", 0, "support", 0, "prob"), MISSING,
            "actions[0].support[0].prob: missing field",
        ),
        (
            INDEPENDENT_OBJ, ("actions", 0, "support", 0), 5,
            "actions[0].support[0]: expected an object",
        ),
        (INDEPENDENT_OBJ, ("actions", 0, "bias"), 5, "actions[0].bias: expected an object, got 5"),
        (CORRELATED_OBJ, ("actions", 0), 5, "actions[0]: expected an object"),
        (CORRELATED_OBJ, ("profiles", 0, "values"), MISSING, "profiles[0].values: missing field"),
        (
            CORRELATED_OBJ, ("profiles", 0, "values"), [ONE_OBJ, ONE_OBJ],
            "profiles[0]: profile has 2 values, expected 1",
        ),
        # Every field's presence and type is checked before any exact number's
        # literals are parsed, so of two faults the label's type is named.
        (
            CORRELATED_OBJ, ("actions", 0), {"bias": {"std": "x", "inf": "0"}, "label": 5},
            "actions[0].label: expected a string, got 5",
        ),
    ],
    ids=[
        "top-level-list", "no-actions", "action-5", "bias-without-inf", "empty-support",
        "correlated-action-without-bias", "outside-without-bias", "no-profiles", "profile-3",
        "profile-without-prob", "prob-0", "negative-value", "probabilities-4/3",
        "outisde", "independent-profiles", "action-lable", "support-porb",
        "correlated-action-support", "correlated-outside-label", "profile-weight",
        "action-without-bias", "support-without-value", "support-without-prob", "support-5",
        "bias-5", "correlated-action-5", "profile-without-values", "profile-of-two-values",
        "bad-bias-and-label-5",
    ],
)
def test_instance_field_errors_exit_2_naming_the_field(
    tmp_path, capsys, base, path, value, message
):
    file = tmp_path / "instance.json"
    file.write_text(json.dumps(_edited(base, path, value)))
    code, out, err = run(capsys, "solve", str(file))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "random", "--support-size", "0", "--seed", "1"],
        ["generate", "outside", "--n", "3", "--eps", "0"],
    ],
)
def test_infeasible_generator_parameters_exit_3_and_write_no_file(tmp_path, capsys, argv):
    out_file = tmp_path / "out.json"
    code, out, err = run(capsys, *argv, "-o", str(out_file))
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not out_file.exists()


def test_reduce_vertex_cover_of_no_vertices_exits_2(tmp_path, capsys):
    edges, out_file = tmp_path / "empty.edges", tmp_path / "vc.json"
    edges.write_text("")
    code, out, err = run(
        capsys, "reduce", "vertex-cover", str(edges), "--vertices", "0", "-o", str(out_file)
    )
    assert (code, out, err) == (2, "", f"error: {edges}: graph needs at least one vertex\n")
    assert not out_file.exists()


LONG_EPS = "1/1" + "0" * 2500  # three-approx results on this eps run past 4300 digits
LONG_FILES = ("two.json", "three.json", "p360.txt", "p400.txt", "spec.json")


@pytest.fixture
def digit_limit_4300():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


def write_long_number_files(tmp_path):
    # Two actions worth 1 with probabilities 1/P, P about 10**2200: the
    # menu's value has a denominator of about 4400 digits.
    actions = tuple(
        Action(xnum(0), ((xnum(0), 1 - Fraction(1, p)), (xnum(1), Fraction(1, p))))
        for p in (10**2200 + 1, 10**2200 + 3)
    )
    dump_instance(IndependentInstance(actions), str(tmp_path / "two.json"))
    assert main(["generate", "three-approx", "--eps", LONG_EPS, "-o", str(tmp_path / "three.json")]) == 0
    (tmp_path / "p360.txt").write_text(f"{10**360}\n")  # M and the threshold run past the limit
    (tmp_path / "p400.txt").write_text(f"{10**400} 3\n")  # so does the instance file
    blocks = [{"generator": "log", "k": 2}, {"generator": "three_approx", "eps": LONG_EPS}]
    write_spec(tmp_path, blocks + [{"generator": "log", "k": 3}])
    write_spec(tmp_path, blocks[:1] + [{"generator": "log", "k": 3}], name="short.json")


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "two.json", "--menu", "all"],
        ["eval", "two.json", "--menu", "all", "--format", "text"],
        ["solve", "two.json"],
        ["solve", "two.json", "--format", "csv"],
        ["solve", "three.json"],
        ["reduce", "partition", "p360.txt", "-o", "OUT"],
        ["reduce", "partition", "p400.txt", "-o", "OUT"],
        ["sweep", "spec.json", "-o", "OUT"],
    ],
)
def test_numbers_beyond_the_digit_limit_are_a_cap(tmp_path, capsys, digit_limit_4300, argv):
    write_long_number_files(tmp_path)
    capsys.readouterr()
    out_file = tmp_path / "out"
    paths = {name: str(tmp_path / name) for name in LONG_FILES} | {"OUT": str(out_file)}
    code, out, err = run(capsys, *(paths.get(arg, arg) for arg in argv))
    reason = "a number exceeds the interpreter's limit of 4300 digits for integer string conversion"
    if argv[0] != "sweep":
        assert (code, out, err) == (3, "", f"error: {reason}\n")
        assert not out_file.exists()
        return
    assert (code, err) == (0, "")
    rows = read_rows(out_file)
    assert rows[1]["status"] == f"skipped: {reason}"
    short = tmp_path / "short.csv"
    assert run(capsys, "sweep", str(tmp_path / "short.json"), "-o", str(short))[0] == 0
    assert [r | {"runtime_ms": ""} for r in rows[::2]] == [
        r | {"runtime_ms": ""} for r in read_rows(short)
    ]


LONG_TOKEN = "1" * 5000  # more digits than int converts under a limit of 4300
OVER_LIMIT = "integer of 5000 digits exceeds the interpreter's limit of 4300 digits"
PARTITION = ["reduce", "partition", "FILE", "-o", "OUT"]
VERTEX_COVER = ["reduce", "vertex-cover", "FILE", "-o", "OUT"]
ENDPOINT = "non-integer endpoint"


@pytest.mark.parametrize(
    "content, argv, code, message",
    [
        (f"{LONG_TOKEN} 3\n", PARTITION, 2, f"FILE: {OVER_LIMIT}"),
        ("1 1_0 2\n", PARTITION, 2, "FILE: invalid integer '1_0'"),
        (f"1 {LONG_TOKEN}\n", VERTEX_COVER, 2, f"FILE: line 1: {ENDPOINT}: {OVER_LIMIT}"),
        ("1 2\n2 \u0663\n", VERTEX_COVER, 2, f"FILE: line 2: {ENDPOINT}: invalid integer '\u0663'"),
        (None, ["eval", "LOG", "--menu", LONG_TOKEN], 3, f"invalid menu spec: {OVER_LIMIT}"),
        (None, ["eval", "LOG", "--menu", "0_1"], 3, "invalid menu spec '0_1'"),
    ],
    ids=["partition-long", "partition-1_0", "edge-long", "edge-arabic-3", "menu-long", "menu-0_1"],
)
def test_integer_tokens_go_through_one_reader(
    tmp_path, capsys, digit_limit_4300, log3_file, content, argv, code, message
):
    # A token over the digit limit is malformed input, as in an instance
    # file, not a result too long to print.
    file, out_file = tmp_path / "input", tmp_path / "out"
    if content is not None:
        file.write_text(content, encoding="utf-8")
    paths = {"FILE": str(file), "OUT": str(out_file), "LOG": log3_file}
    got = run(capsys, *(paths.get(arg, arg) for arg in argv))
    assert got == (code, "", f"error: {message.replace('FILE', str(file))}\n")
    assert not out_file.exists()


NUMERIC_OPTIONS = [
    *INTEGER_OPTIONS,
    ("generate three-approx", "--eps", ["-o", "OUT"]),
    ("generate outside", "--eps", ["--n", "3", "-o", "OUT"]),
]


@pytest.mark.parametrize(
    "command, flag, rest", NUMERIC_OPTIONS, ids=[f"{c} {f}" for c, f, _ in NUMERIC_OPTIONS]
)
def test_numeric_options_name_the_digit_limit_not_the_literal(
    tmp_path, capsys, digit_limit_4300, command, flag, rest
):
    out_file = tmp_path / "out"
    rest = [str(out_file) if arg == "OUT" else arg for arg in rest]
    with pytest.raises(SystemExit) as exc:
        main([*command.split(), *rest, flag, "1" * 5001])
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert exc.value.code == 2 and captured.out == "" and not out_file.exists()
    limit = "integer of 5001 digits exceeds the interpreter's limit of 4300 digits"
    assert errors == [f"delmenu {command}: error: argument {flag}: {limit}"]
    assert len(errors[0]) < 200 and "1" * 100 not in captured.err


@pytest.mark.parametrize(
    "spec, message",
    [
        ("1" * 5001, "invalid menu spec"),
        ("1," + "1" * 5001, "invalid menu spec"),
        ("threshold:" + "1" * 5001, "invalid number literal"),
        ("threshold:1+" + "1" * 5001 + "i", "invalid number literal"),
    ],
    ids=["index", "index-list", "threshold", "threshold-iota"],
)
def test_menu_specs_name_the_digit_limit_not_the_literal(
    capsys, digit_limit_4300, log3_file, spec, message
):
    limit = "integer of 5001 digits exceeds the interpreter's limit of 4300 digits"
    got = run(capsys, "eval", log3_file, "--menu", spec)
    assert got == (3, "", f"error: {message}: {limit}\n")
    assert len(got[2]) < 200


@pytest.mark.parametrize(
    "literal", ["1" * 5001, "-1/" + "3" * 5001], ids=["integer", "denominator"]
)
def test_instance_literal_beyond_the_digit_limit_is_named_not_echoed(
    tmp_path, capsys, digit_limit_4300, literal
):
    file = tmp_path / "outside3.json"
    assert main(["generate", "outside", "--n", "3", "-o", str(file)]) == 0
    capsys.readouterr()
    obj = json.loads(file.read_text())
    obj["actions"][0]["bias"]["std"] = literal
    file.write_text(json.dumps(obj))
    code, out, err = run(capsys, "solve", str(file))
    message = (
        "actions[0].bias.std: integer of 5001 digits exceeds the interpreter's limit of 4300 digits"
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert len(err) < 200


XS = "x" * 5001  # a 5,001-character input that no reader accepts
SWEEP = ["sweep", "FILE", "-o", "OUT"]


def edited_instance(instance, edit):
    """The file text of ``instance`` after ``edit`` changes its JSON object."""
    obj = json.loads(dumps_instance(instance))
    edit(obj)
    return json.dumps(obj)


def set_first_prob(obj):
    obj["actions"][0]["support"][0]["prob"] = XS


LONG_INPUTS = {
    "choice": (["generate", "random", "--kind", XS, "--seed", "1", "-o", "OUT"], None, 2),
    "unrecognized": (["solve", "LOG", XS], None, 2),
    "path": (["solve", XS], None, 2),
    "out-path": (["generate", "log", "--k", "3", "-o", XS], None, 2),
    "kind": (
        ["solve", "FILE"],
        lambda: edited_instance(gen_log_family(3), lambda obj: obj.update(kind=XS)),
        2,
    ),
    "prob": (
        ["solve", "FILE"],
        lambda: edited_instance(gen_random("independent", 2, 2, seed=1), set_first_prob),
        2,
    ),
    "edge": (VERTEX_COVER, lambda: f"1 {XS}\n", 2),
    "token": (PARTITION, lambda: f"{XS}\n", 2),
    "generator": (SWEEP, lambda: json.dumps({"generator": XS}), 2),
    "kind-list": (SWEEP, lambda: json.dumps({"generator": "random", "kind": [0] * 3000}), 2),
    "menu": (["eval", "LOG", "--menu", XS], None, 3),
    "threshold": (["eval", "LOG", "--menu", f"threshold:{XS}"], None, 3),
}


def assert_one_short_error_line(err):
    """``err`` holds one ``error:`` line, cut to under 300 bytes with its length stated."""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and len(errors[0].encode()) < 300, err[:400]
    assert re.search(r"\.\.\. \(\d+ characters\)$", errors[0]), errors[0]


@pytest.mark.parametrize("case", LONG_INPUTS)
def test_no_error_line_grows_with_its_input(tmp_path, monkeypatch, capsys, log3_file, case):
    # Paths, choices, literals and JSON values echoed in an error message
    # are cut with the message; the exit code is the input's own.
    argv, content, expected = LONG_INPUTS[case]
    monkeypatch.chdir(tmp_path)
    if content is not None:
        (tmp_path / "input").write_text(content(), encoding="utf-8")
    before = sorted(os.listdir(tmp_path))
    paths = {"FILE": "input", "OUT": "out", "LOG": log3_file}
    try:
        code = main([paths.get(arg, arg) for arg in argv])
    except SystemExit as exc:  # the argument parser's errors
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (expected, "")
    assert_one_short_error_line(captured.err)
    assert sorted(os.listdir(tmp_path)) == before


def test_module_entry_point_cuts_a_long_choice(tmp_path):
    # The entry point the cli-batch benchmark times: `sys.exit(main())`.
    env = {**os.environ, "PYTHONPATH": str(Path(delmenu.__file__).resolve().parents[1])}
    argv = ["generate", "random", "--kind", XS, "--seed", "1", "-o", "x.json"]
    proc = subprocess.run(
        [sys.executable, "-m", "delmenu.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert_one_short_error_line(proc.stderr)
    assert not (tmp_path / "x.json").exists()


def test_a_message_is_cut_only_past_the_cap():
    head = "m" * cli_mod.MESSAGE_CAP
    assert cli_mod._bounded(head) == head
    assert cli_mod._bounded(head + "mm") == f"{head}... ({cli_mod.MESSAGE_CAP + 2} characters)"


@pytest.mark.parametrize(
    "message, shown",
    [
        ("a\u2028b", "a\\u2028b"),
        ("a\x85b", "a\\x85b"),
        # 150 characters escape to 300, which are then cut.
        ("\n" * 150, "\\n" * 100 + "... (300 characters)"),
    ],
    ids=["u2028", "x85", "cut-after-escaping"],
)
def test_a_message_shows_its_line_breaks_escaped(message, shown):
    assert cli_mod._bounded(message) == shown


def test_no_shown_message_holds_a_line_break():
    breaks = [c for c in map(chr, range(0x3000)) if len(f"a{c}b".splitlines()) > 1]
    assert len(breaks) == 10
    for c in breaks:
        assert len(f"a{cli_mod._bounded(c)}b".splitlines()) == 1


# An input holding a line break: argv, the files to write first, and the exit code.
LINE_BREAK_INPUTS = {
    "unrecognized": (["solve", "LOG", "a\nb"], {}, 2),
    "reduce-path": (["reduce", "partition", "q\n.txt", "-o", "OUT"], {"q\n.txt": b"a\n"}, 2),
    "not-utf8-path": (["solve", "bad\nname.json"], {"bad\nname.json": b"\xff\xfe"}, 2),
    "missing-path": (["solve", "no\nfile.json"], {}, 2),
    "menu": (["eval", "LOG", "--menu", "1\n2"], {}, 3),
    "generator": (SWEEP, {"input": b'{"generator": "a\\nb"}'}, 2),
}


@pytest.mark.parametrize("case", LINE_BREAK_INPUTS)
def test_a_line_break_in_an_input_stays_on_the_error_line(
    tmp_path, monkeypatch, capsys, log3_file, case
):
    argv, files, expected = LINE_BREAK_INPUTS[case]
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        (tmp_path / name).write_bytes(content)
    before = sorted(os.listdir(tmp_path))
    paths = {"FILE": "input", "OUT": "out", "LOG": log3_file}
    try:
        code = main([paths.get(arg, arg) for arg in argv])
    except SystemExit as exc:  # the argument parser's errors
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (expected, "")
    lines = captured.err.splitlines()
    assert [line for line in lines if "error:" in line] == lines[-1:], captured.err
    assert "\\n" in lines[-1]
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize(
    "version, shown", [("true", "True"), ("1.0", "1.0"), ("1e0", "1.0"), ("1", None)]
)
def test_schema_version_is_the_json_integer_1(log3_file, capsys, version, shown):
    text = Path(log3_file).read_text()
    assert '"schema_version": 1,' in text
    Path(log3_file).write_text(text.replace('"schema_version": 1,', f'"schema_version": {version},'))
    code, out, err = run(capsys, "solve", log3_file)
    if shown is None:
        assert (code, err) == (0, "") and json.loads(out)["opt_menu"]
    else:
        assert (code, out, err) == (2, "", f"error: schema_version: expected 1, got {shown}\n")
