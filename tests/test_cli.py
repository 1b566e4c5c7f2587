"""Command line behavior: exit codes, JSON stability, script mode."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import pytest

from lndfilt import cli
from lndfilt.cli import main
from lndfilt.derivations import Derivation
from lndfilt.families import FAMILIES

TOY = ["--family", "new", "--n", "2", "--e", "1", "--P", "s^2", "--Q", "y^2"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_deg_ok(capsys):
    code, out, _ = run(capsys, ["deg", *TOY, "--of", "y*z"])
    assert code == 0
    assert "deg(y*z) = 6" in out


def test_deg_json(capsys):
    code, out, _ = run(capsys, ["deg", *TOY, "--of", "y*z", "--json"])
    assert code == 0
    assert json.loads(out) == {"of": "y*z", "deg": 6}


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, ["deg", *TOY, "--of", "y*("])
    assert code == 2
    assert "parse error" in err


def test_precondition_exit_3(capsys):
    code, _, err = run(capsys, ["deg", "--family", "danielewski",
                                "--n", "1", "--P", "y^2", "--of", "x"])
    assert code == 3
    assert "precondition violated" in err


def test_no_family_exit_1(capsys):
    code, _, err = run(capsys, ["deg", "--of", "x"])
    assert code == 1
    assert "no family in scope" in err


# valid flag values per family, in each row's flag order
FLAG_VALUES = {"danielewski": {"n": "2", "P": "y^2"},
               "kr2": {"n": "2", "e": "3", "l": "2", "Q": "t^2 + x + z*t"},
               "new": {"n": "2", "e": "1", "P": "s^2", "Q": "y^2"}}


def _flag_argv(values):
    return [arg for nm, v in values.items() for arg in ("--" + nm, v)]


@pytest.mark.parametrize("name", list(FAMILIES))
def test_family_flags_missing_or_foreign_exit_1(name, capsys):
    values = FLAG_VALUES[name]
    assert list(values) == [nm for nm, _ in FAMILIES[name].flags]
    deg = ["deg", "--family", name, "--of", "x"]
    assert run(capsys, deg + _flag_argv(values))[0] == 0
    for nm in values:
        rest = {k: v for k, v in values.items() if k != nm}
        code, _, err = run(capsys, deg + _flag_argv(rest))
        assert code == 1
        assert "needs --%s" % nm in err
    foreign = next(nm for nm in cli._FAMILY_FLAGS if nm not in values)
    code, _, err = run(capsys, deg + _flag_argv(values) + ["--" + foreign, "2"])
    assert code == 1
    assert "takes no --%s" % foreign in err


def test_family_describe(capsys):
    code, out, _ = run(capsys, ["family", "danielewski", "--n", "2",
                                "--P", "y^2"])
    assert code == 0
    assert "relation: x^2*z - y^2 = 0" in out
    assert "slice: y" in out


def test_lnd_check_family(capsys):
    code, out, _ = run(capsys, ["lnd-check", *TOY, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["well_defined"] is True
    assert payload["orders"] == {"x": 0, "y": 2, "z": 4}


def test_lnd_check_custom_not_well_defined(capsys):
    code, out, _ = run(capsys, ["lnd-check", "--ring", "x,y,z",
                                "--relations", "x^2*z - y^2",
                                "--images", "0;0;1", "--json"])
    assert code == 5
    assert json.loads(out)["well_defined"] is False


def test_lnd_check_custom_non_nilpotent(capsys):
    # the Euler derivation x d/dx: its tangent map x -> x is not nilpotent
    code, out, _ = run(capsys, ["lnd-check", "--ring", "x",
                                "--images", "x", "--nilp-bound", "12"])
    assert code == 5
    assert out == ("not locally nilpotent: the tangent map x -> x at the "
                   "origin is not nilpotent\n")
    # (1 + x) d/dx moves the origin and x does not divide 1 + x, so no
    # certificate applies and only the bound can end the iteration
    code, out, _ = run(capsys, ["lnd-check", "--ring", "x",
                                "--images", "1 + x", "--nilp-bound", "12"])
    assert code == 4
    assert "no nilpotency certificate" in out


@pytest.mark.parametrize("extra", [
    ["--family", "danielewski", "--n", "2", "--P", "y^2"], ["--n", "2"],
    ["--family", "kr2"]])
def test_lnd_check_custom_mode_takes_no_family_flags(extra, capsys):
    # custom mode reads only --ring, --relations and --images; a family or
    # a family flag beside them would be ignored, so it is a usage error
    code, out, err = run(capsys, ["lnd-check", "--ring", "x", "--images", "0",
                                  *extra, "--json"])
    assert (code, out) == (1, "")
    names = [a for a in extra if a.startswith("--")]
    assert err == ("usage error: custom mode (--ring, --images) takes no "
                   "%s\n" % ", ".join(names))


def test_filtration_layers(capsys):
    code, out, _ = run(capsys, ["filtration", *TOY, "--r", "4", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["layers"]["1"] == ["-x*z + y^2"]
    assert payload["layers"]["4"] == ["z"]
    assert payload["cross_checked"] == 5


def test_filtration_honours_gb_budget(capsys):
    code, out, err = run(capsys, ["filtration", *TOY, "--gb-budget", "1"])
    assert code == 4
    assert out == ""
    assert err == "budget exhausted: reduction budget exhausted\n"


@pytest.mark.parametrize("family", [
    ["--family", "danielewski", "--n", "2", "--P", "y^2"],
    ["--family", "kr2", "--n", "2", "--e", "3", "--l", "2",
     "--Q", "t^2 + x + z*t"],
    TOY,
])
def test_search_honours_gb_budget(capsys, family):
    code, out, err = run(capsys, ["search", *family, "--degree-bound=2",
                                  "--gb-budget=1"])
    assert code == 4
    assert out == ""
    assert err == "budget exhausted: reduction budget exhausted\n"


DAN2 = ["--family=danielewski", "--n=2", "--P=y^2"]
# the nilpotency proof of this derivation takes two reductions (by z^2)
STEPPED = ["lnd-check", "--ring=x,y,z", "--relations=z^2",
           "--images=z;x^2 + x^3;0"]
# the Leibniz top term of s^3 z (s = y^2 - x*z, N = 16) cancels, so deg
# iterates: 7 reductions after the family build's 2
CANCELLING = "--of=(y^2 - x*z)^3*z"
# this build takes 3 reduction steps; --lam=2 --mu=4 alone takes none
TRANSLATING = ["--lam=3", "--mu=2", "--a=1"]


EXHAUSTED = "reduction budget exhausted"


@pytest.mark.parametrize("argv, budget, reason", [
    # the build takes 2 steps and leaves 0, fewer than the 4 terms
    # (y^2 - x*z)^3 may have
    (["deg", *TOY, CANCELLING], 2,
     "(y^2 - x*z)^3 may have more terms than the 0 reduction steps left"),
    (["auto", *DAN2, *TRANSLATING], 1, EXHAUSTED),
    (STEPPED, 1, EXHAUSTED),
])
def test_deg_lnd_check_auto_honour_gb_budget(capsys, argv, budget, reason):
    assert run(capsys, argv)[0] == 0
    code, out, err = run(capsys, [*argv, "--gb-budget=%d" % budget])
    assert code == 4
    assert out == ""
    assert err == "budget exhausted: %s\n" % reason


def test_huge_power_of_a_sum_exits_4_before_expanding(capsys):
    # (x+y)^e may have e + 1 terms, over the default 10^6 steps
    start = time.perf_counter()
    code, out, err = run(capsys, ["deg", *DAN2, "--of=(x+y)^100000000"])
    assert time.perf_counter() - start < 1
    assert (code, out) == (4, "")
    assert err == ("budget exhausted: (x+y)^100000000 may have more terms "
                   "than the 1000000 reduction steps left\n")
    assert run(capsys, ["deg", *DAN2, "--of=(x+y)^3"])[:2] == (0, "deg((x+y)^3) = 3\n")


KR2 = ["--family=kr2", "--n=2", "--e=3", "--l=2", "--Q=t^2 + x + z*t"]


@pytest.mark.parametrize("argv, power", [
    # (x+y)^10000 has few terms, but binary powering forms over 16 million
    # term products
    (["deg", *DAN2, "--of=(x+y)^10000"], "(x+y)^10000"),
    # T = ((x^2 + z^3)^2)^3000 / 1!, formed by deg's Leibniz top term
    (["deg", *KR2, "--of=t^3000"], "the top term's power (D^1(t)/1!)^3000"),
])
def test_unaffordable_powers_exit_4_before_expanding(capsys, argv, power):
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (4, "")
    assert err == ("budget exhausted: %s may need more than 1000000 term "
                   "products\n" % power)


def test_large_constant_term_exits_4_within_the_budget(capsys):
    # moving the origin onto y^2 = 10^20 + 39 would trial-divide up to
    # 10^10; each division and each candidate root draws a budget step
    argv = ["deg", "--family=danielewski", "--n=2",
            "--P=y^2 - 100000000000000000039", "--of=y"]
    for extra, seconds in (([], 2), (["--gb-budget=100"], 0.25)):
        start = time.perf_counter()
        code, out, err = run(capsys, argv + extra)
        assert time.perf_counter() - start < seconds
        assert (code, out, err) == (
            4, "", "budget exhausted: rational-root search of "
            "P = y^2 - 100000000000000000039 in y (to move the origin onto "
            "the hypersurface): reduction budget exhausted\n")


def test_an_order_above_the_default_bound_names_bound_and_degrees(capsys):
    # z has order 257 on x^2 z = y^257, past the certificate and the
    # default bound of the iteration that checks the declared degrees
    argv = ["deg", "--family=danielewski", "--n=2", "--P=y^257", "--of=y"]
    assert run(capsys, argv) == (
        4, "", "budget exhausted: no nilpotency certificate for default "
        "bound 256; declared degrees x:0, y:1, z:257\n")


def test_a_power_whose_products_collide_is_admitted(capsys):
    # ((x^2 + z^3)^2)^100 has 201 terms, not the C(102, 2) that three
    # unrelated terms would give, so its products are counted on supports
    assert run(capsys, ["deg", *KR2, "--of=t^100"])[:2] == (0, "deg(t^100) = 100\n")


# one valid call per subcommand
EVERY_SUBCOMMAND = {
    "family": ["family", "danielewski", "--n=2", "--P=y^2"],
    "deg": ["deg", *DAN2, "--of=y"],
    "lnd-check": ["lnd-check", *DAN2],
    "filtration": ["filtration", *DAN2, "--r=2"],
    "gr": ["gr", *DAN2],
    "search": ["search", *DAN2, "--degree-bound=2"],
    "auto": ["auto", *DAN2, "--lam=2", "--mu=4"],
    "iso": ["iso", "--n=2", "--P1=y^2 + x", "--P2=y^2 + 2*x"],
    "selftest": ["selftest"],
    "script": ["script", "-"],
}


def test_every_subcommand_is_listed():
    subparsers = next(a for a in cli._parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert sorted(subparsers.choices) == sorted(EVERY_SUBCOMMAND)


@pytest.mark.parametrize("limit", ["--gb-budget", "--nilp-bound"])
@pytest.mark.parametrize("cmd", sorted(EVERY_SUBCOMMAND))
def test_negative_limit_is_a_usage_error(capsys, cmd, limit):
    code, out, err = run(capsys, [*EVERY_SUBCOMMAND[cmd], limit + "=-1"])
    assert code == 1
    assert out == ""
    assert err == "usage error: argument %s: must be >= 0, got -1\n" % limit


@pytest.mark.parametrize("bound", [1, 2])
def test_lnd_check_family_and_custom_agree_on_nilp_bound(capsys, bound):
    # the family derivation caches orders x:0, y:1, z:2 when it is built
    custom = ["--ring=x,y,z", "--relations=x^2*z - y^2", "--images=0;x^2;2*y"]
    family = run(capsys, ["lnd-check", *DAN2, "--nilp-bound=%d" % bound])
    assert family == run(capsys, ["lnd-check", *custom,
                                  "--nilp-bound=%d" % bound])
    assert family[0] == (4 if bound == 1 else 0)


def test_closed_stdout_exits_1_without_traceback():
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    read_end, write_end = os.pipe()
    os.close(read_end)  # a reader that is gone before the first write
    try:
        child = subprocess.run(
            [sys.executable, "-m", "lndfilt.cli", "deg", *DAN2, "--of=y"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src})
    finally:
        os.close(write_end)
    assert (child.returncode, child.stderr) == (1, "")


def test_deg_defaults_to_leibniz_bound(capsys):
    code, out, _ = run(capsys, ["deg", *DAN2, "--of=z^40"])
    assert (code, out) == (0, "deg(z^40) = 80\n")
    # an explicit bound still wins
    code, out, err = run(capsys, ["deg", *DAN2, "--of=z^40", "--nilp-bound=64"])
    assert (code, out) == (4, "")
    assert err == "budget exhausted: degree iteration exceeded bound 64\n"


def test_auto_honours_nilp_bound(capsys):
    # y has order 1, so its degree check needs one application
    argv = ["auto", *DAN2, *TRANSLATING]
    assert run(capsys, argv)[0] == 0
    code, out, err = run(capsys, [*argv, "--nilp-bound=0"])
    assert (code, out) == (4, "")
    assert err == "budget exhausted: degree iteration exceeded bound 0\n"


def test_degree_bound_is_a_search_option(capsys):
    code, out, err = run(capsys, ["gr", *DAN2, "--degree-bound=0"])
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --degree-bound=0" in err


def test_parser_is_built_once(capsys, monkeypatch):
    from lndfilt import cli
    run(capsys, ["deg", *TOY, "--of", "y"])
    monkeypatch.setattr(cli, "build_parser", None)  # a rebuild would fail
    code, out, _ = run(capsys, ["deg", *TOY, "--of", "y*z"])
    assert (code, out) == (0, "deg(y*z) = 6\n")


def test_filtration_oracle_mismatch_exit_5(capsys, monkeypatch):
    true_deg = Derivation.deg

    def wrong_deg(self, p, bound=None):
        # the family's own degree checks pass no bound; the command's do
        d = true_deg(self, p, bound)
        return d + 1 if bound == 63 else d

    monkeypatch.setattr(Derivation, "deg", wrong_deg)
    code, out, err = run(capsys, ["filtration", *TOY, "--r", "2",
                                  "--nilp-bound", "63"])
    assert code == 5
    assert out == ""
    assert err.startswith("internal: oracle degree of ")
    assert err.count("\n") == 1


def test_gr_proper_with_induced_derivation(capsys):
    code, out, _ = run(capsys, ["gr", *TOY, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "proper"
    assert payload["induced_degree"] == -1
    assert payload["induced_derivation"]["s"] == "x^3"
    assert payload["induced_derivation"]["y"] == "2*x*s"


def test_search_bounded(capsys):
    code, out, _ = run(capsys, ["search", *TOY, "--degree-bound", "3",
                                "--nilp-bound", "24", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["solution_dimension"] == 21
    assert len(payload["candidates"]) == 1
    assert payload["candidates"][0]["classification"] == "multiple-of-canonical"


def test_auto_valid(capsys):
    code, out, _ = run(capsys, ["auto", "--family", "danielewski", "--n", "2",
                                "--P", "y^2", "--lam", "3", "--mu", "2",
                                "--a", "1", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["inverse_verified"] is True
    assert payload["images"]["z"] == "1/9*x^2 + 4/9*y + 4/9*z"


def test_auto_invalid_exit_5(capsys):
    code, out, _ = run(capsys, ["auto", *TOY, "--lam", "2", "--mu", "3",
                                "--json"])
    assert code == 5
    payload = json.loads(out)
    assert payload["valid"] is False
    assert "scaling constraint" in payload["reason"]


def test_auto_bad_rational_exit_1(capsys):
    code, _, err = run(capsys, ["auto", *TOY, "--lam", "q", "--mu", "1"])
    assert code == 1
    assert "rational" in err


def test_iso_isomorphic_json_frozen(capsys):
    argv = ["iso", "--n", "2", "--P1", "y^2 + x", "--P2", "y^2 + 2*x",
            "--json"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert json.loads(out) == {
        "conditions": [], "lambda": "2", "mu": "1", "reason": "",
        "verdict": "isomorphic",
        "witness": {"x": "2*x", "y": "y", "z": "1/4*z"}}
    # byte-for-byte stable across runs
    code2, out2, _ = run(capsys, argv)
    assert (code2, out2) == (code, out)


def test_iso_negative_exit_5(capsys):
    code, out, _ = run(capsys, ["iso", "--n", "2", "--P1", "y^2 + x",
                                "--P2", "y^2", "--json"])
    assert code == 5
    payload = json.loads(out)
    assert payload["verdict"] == "not-isomorphic"
    assert "vanishes only on the left side" in payload["reason"]


def test_iso_not_over_rationals_exit_5(capsys):
    code, out, _ = run(capsys, ["iso", "--n", "3", "--P1", "y^2 + x^2",
                                "--P2", "y^2 + 2*x^2", "--json"])
    assert code == 5
    payload = json.loads(out)
    assert payload["verdict"] == "not-over-rationals"
    assert payload["conditions"] == ["t^2 = 2"]


def test_selftest(capsys):
    code, out, _ = run(capsys, ["selftest"])
    assert code == 0
    assert "6/6 checks passed" in out
    assert "FAIL" not in out


def test_script_keeps_family_in_scope(tmp_path, capsys):
    script = tmp_path / "demo.txt"
    script.write_text(
        '# set the family once\n'
        'family new --n 2 --e 1 --P "s^2" --Q "y^2"\n'
        '\n'
        'deg --of "y*z"\n'
        'deg --of "z"\n')
    code, out, _ = run(capsys, ["script", str(script)])
    assert code == 0
    assert "deg(y*z) = 6" in out
    assert "deg(z) = 4" in out


def test_script_lines_each_get_their_own_budget(tmp_path, capsys):
    # the family line takes 1 reduction step and the deg line 7, so one
    # budget of 7 shared by both lines would run out
    script = tmp_path / "budget.txt"
    script.write_text(
        'family new --n 2 --e 1 --P "s^2" --Q "y^2" --gb-budget=7\n'
        'deg --of "(y^2 - x*z)^3*z" --gb-budget=7\n'
        'deg --of "(y^2 - x*z)^3*z" --gb-budget=6\n')
    code, out, err = run(capsys, ["script", str(script), "--gb-budget=0"])
    assert code == 4
    assert "deg((y^2 - x*z)^3*z) = 7" in out
    assert err.endswith("script stopped at line 3 (exit 4)\n")


def test_script_stops_on_first_failure(tmp_path, capsys):
    script = tmp_path / "bad.txt"
    script.write_text(
        'family danielewski --n 2 --P "y^2"\n'
        'deg --of "q +"\n'
        'deg --of "x"\n')
    code, out, err = run(capsys, ["script", str(script)])
    assert code == 2
    assert "script stopped at line 2 (exit 2)" in err
    assert "deg(x)" not in out


def test_script_family_flags_need_family(tmp_path, capsys):
    # flags without --family would not describe the family in scope
    script = tmp_path / "flags.txt"
    script.write_text(
        'family danielewski --n 2 --P "y^2"\n'
        'deg --n 5 --P "y^3" --of z\n')
    code, out, err = run(capsys, ["script", str(script)])
    assert code == 1
    assert "--n, --P given without --family" in err
    assert "deg(z)" not in out
    assert err.endswith("script stopped at line 2 (exit 1)\n")


def test_script_cannot_nest(tmp_path, capsys):
    script = tmp_path / "nest.txt"
    script.write_text("script other.txt\n")
    code, _, err = run(capsys, ["script", str(script)])
    assert code == 1
    assert "cannot nest" in err


def test_script_missing_file_exit_1(capsys):
    code, _, err = run(capsys, ["script", "/nonexistent/path.txt"])
    assert code == 1
    assert "cannot read script" in err
