"""Command line driver: output shapes, exit codes, and the result cache."""

import json
import os
import pathlib
import stat

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skeinmod import cli
from skeinmod.chebyshev import parse_int_poly
from skeinmod.handlebody import parse_poly3
from skeinmod.rewrite import SlopeData, normalize, parse_module_element
from skeinmod.seifert import SeifertData, homology
from skeinmod.torus import fg_multiply, format_fg, parse_fg


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# text outputs


def test_torus_mul_text(capsys):
    code, out, _ = run(capsys, "torus-mul", "(1,0)", "(0,1)")
    assert code == 0
    assert out == "A*(1,1) + A^-1*(1,-1)\n"


def test_chebyshev_text(capsys):
    code, out, _ = run(capsys, "chebyshev", "--family", "T", "--n", "5")
    assert code == 0 and out == "x^5 - 5*x^3 + 5*x\n"
    code, out, _ = run(capsys, "chebyshev", "--family", "S", "--n", "3")
    assert code == 0 and out == "x^3 - 2*x\n"


def test_gamma_text(capsys):
    code, out, _ = run(capsys, "gamma", "--p", "1")
    assert code == 0
    assert "x" in out or "y" in out or "z" in out


def test_algebra_closure_text(capsys):
    code, out, _ = run(capsys, "algebra-closure", "--gen", "[[1,1],[0,1]]")
    assert code == 0
    assert out == "J (dim 2)\n"


def test_f12_reduce_text_and_log(capsys):
    code, out, err = run(
        capsys, "f12-reduce", "--slopes", "1,-2,1,1", "--element", "(0,0,0,3)*e"
    )
    assert code == 0
    assert out == "- (0,0,0,1)*e + 2*(0,1,0,2)*e\n"
    assert "step: rewrote" in err


def test_f12_reduce_parses_the_slopes_once(capsys, monkeypatch):
    built = []

    def counting(*args):
        built.append(args)
        return SlopeData(*args)

    monkeypatch.setattr(cli, "SlopeData", counting)
    code, out, _ = run(capsys, "f12-reduce", "--slopes", "1,-2,1,1", "--element", "(0,0,0,3)*e")
    assert code == 0
    assert out == "- (0,0,0,1)*e + 2*(0,1,0,2)*e\n"
    assert built == [(1, -2, 1, 1)]


def _counting(monkeypatch, name):
    calls = []
    plain = getattr(cli, name)

    def counted(text):
        calls.append(text)
        return plain(text)

    monkeypatch.setattr(cli, name, counted)
    return calls


def test_torus_mul_and_f12_reduce_parse_each_operand_once(capsys, monkeypatch):
    fg_calls = _counting(monkeypatch, "parse_fg")
    element_calls = _counting(monkeypatch, "parse_module_element")
    code, env, _ = run_json(capsys, "torus-mul", "--json", "(1,0)", "(0,1)")
    assert code == 0 and fg_calls == ["(1,0)", "(0,1)"]
    assert env["inputs"] == {"left": "(1,0)", "right": "(0,1)"}
    args = ("f12-reduce", "--json", "--slopes", "1,-2,1,1", "--element", "(0,0,0,3)*e")
    code, env, _ = run_json(capsys, *args)
    assert code == 0 and element_calls == ["(0,0,0,3)*e"]
    assert env["inputs"]["element"] == "(0,0,0,3)*e"


def test_operands_are_parsed_once_by_functions_patched_after_the_parser_is_built(capsys, monkeypatch):
    # main keeps its parser; the type= callables still look their parse
    # functions up when they run, so a later rebinding sees every call
    assert cli.main(["--version"]) == 0
    capsys.readouterr()
    assert cli._PARSER is not None
    fg_calls = _counting(monkeypatch, "parse_fg")
    element_calls = _counting(monkeypatch, "parse_module_element")
    gen_calls = _counting(monkeypatch, "_matrix_from_json")
    slopes = []
    monkeypatch.setattr(cli, "SlopeData", lambda *args: slopes.append(args) or SlopeData(*args))
    assert run(capsys, "torus-mul", "(1,0)", "(0,1)")[0] == 0
    assert run(capsys, "f12-reduce", "--slopes", "1,-2,1,1", "--element", "(0,0,0,3)*e")[0] == 0
    assert run(capsys, "algebra-closure", "--gen", "[[1,1],[0,1]]")[0] == 0
    assert fg_calls == ["(1,0)", "(0,1)"]
    assert element_calls == ["(0,0,0,3)*e"]
    assert gen_calls == [[[1, 1], [0, 1]]]
    assert slopes == [(1, -2, 1, 1)]


def test_f12_reduce_fractional_output_reparses(capsys):
    args = ("f12-reduce", "--slopes", "1,-2,1,1")
    code, out, _ = run(capsys, *args, "--element", "(1)/(1 + A)*(0,0,0,3)*e")
    assert code == 0
    assert out == "((-1)/(A + 1))*(0,0,0,1)*e + ((2)/(A + 1))*(0,1,0,2)*e\n"
    element = parse_module_element(out)
    assert element == normalize(
        parse_module_element("(1)/(1 + A)*(0,0,0,3)*e"), SlopeData(1, -2, 1, 1)
    )
    # the printed normal form is accepted back as input and is already reduced
    code, again, err = run(capsys, *args, "--element", out.strip())
    assert code == 0 and again == out and "step:" not in err


# ---------------------------------------------------------------------------
# envelopes


def test_envelope_shape(capsys):
    code, env, _ = run_json(capsys, "torus-mul", "(1,0)", "(0,1)", "--json")
    assert code == 0
    assert env["schema"] == 1
    assert env["tool"] == "skeinmod"
    assert env["subcommand"] == "torus-mul"
    assert env["inputs"] == {"left": "(1,0)", "right": "(0,1)"}
    assert isinstance(env["timing_ms"], int) and env["timing_ms"] >= 0
    got = parse_fg(env["result"]["text"])
    want = fg_multiply(parse_fg("(1,0)"), parse_fg("(0,1)"))
    assert got == want


def test_json_only_subcommands(capsys):
    code, env, _ = run_json(capsys, "homology", "--genus", "-1", "--fiber", "1,2", "--fiber", "1,3")
    assert code == 0
    expected = homology(SeifertData(-1, 0, [(1, 2), (1, 3)]))
    assert env["result"]["invariant_factors"] == expected

    code, env, _ = run_json(capsys, "jprime-check", "--p", "2")
    assert code == 0
    assert env["result"]["contained"] is True
    assert env["verification"]["status"] == "ok"


def test_lens_quotient_envelope(capsys):
    code, env, _ = run_json(
        capsys, "lens-quotient", "--p", "2", "--degree", "4", "--grading", "ee"
    )
    assert code == 0
    res = env["result"]
    assert res["p"] == 2 and res["degree"] == 4
    assert res["dimension"] >= res["lower_bound"] == 3
    assert res["jprime_certified"] is True
    assert set(env["verification"]["families"]) == {str(k) for k in range(1, 9)}


def test_seifert_certify_envelope(capsys):
    code, env, _ = run_json(
        capsys, "seifert-certify", "--genus", "1",
    )
    assert code == 0
    assert env["result"]["kind"] == "nonseparating_torus"
    assert env["verification"]["status"] == "ok"
    assert env["verification"]["verified"] is True


def test_determinism_modulo_timing(capsys, tmp_path):
    args = ("homology", "--genus", "2", "--fiber", "1,2")
    _, env1, _ = run_json(capsys, *args, "--cache-dir", str(tmp_path / "c1"))
    _, env2, _ = run_json(capsys, *args, "--cache-dir", str(tmp_path / "c2"))
    env1.pop("timing_ms"), env2.pop("timing_ms")
    assert env1 == env2


# ---------------------------------------------------------------------------
# exit codes


def test_usage_error_names_flag(capsys):
    code, _out, err = run(capsys, "chebyshev", "--family", "T", "--n", "x")
    assert code == 1
    assert "--n" in err

    code, _out, err = run(capsys, "f12-reduce", "--slopes", "1,1,1,0", "--element", "(0,0,0,1)*e")
    assert code == 1
    assert "--slopes" in err

    code, _out, err = run(capsys, "gamma", "--p", "0")
    assert code == 1
    assert "--p" in err

    # a usage error found after parsing returns 1 too, rather than raising
    code, _out, err = run(capsys, "chebyshev", "--family", "T", "--n", "-1")
    assert code == 1
    assert "--n" in err
    # reported by the subcommand's own parser, as the argparse errors are
    assert err.startswith("usage: skeinmod chebyshev")


def test_missing_required_flag(capsys):
    code, _out, err = run(capsys, "chebyshev", "--family", "T")
    assert code == 1
    assert "--n" in err


def test_unknown_subcommand(capsys):
    code, _out, err = run(capsys, "frobnicate")
    assert code == 1
    assert err


def test_partial_reduction_exits_2(capsys):
    code, out, err = run(
        capsys, "f12-reduce", "--slopes", "1,-2,1,1", "--element", "(5,5,5,5)*e",
        "--max-steps", "2", "--json",
    )
    assert code == 2
    env = json.loads(out)
    assert env["verification"]["status"] == "partial"
    assert env["result"]["complete"] is False


def test_no_certificate_exits_2(capsys):
    code, env, _ = run_json(capsys, "seifert-certify", "--genus", "0", "--boundary", "1", "--fiber", "1,2")
    assert code == 2
    assert env["verification"]["status"] == "no_certificate"
    assert env["result"]["classification"] == "no_essential_torus"


def test_version_flag(capsys):
    assert cli.main(["--version"]) == 0
    assert "0.1.0" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# the parser main keeps across calls


_GOOD_ARGV = [
    ("torus-mul", "(1,1)", "(1,-1)"),
    ("chebyshev", "--family", "S", "--n", "4"),
    ("gamma", "--p", "3", "--prime"),
    ("f12-reduce", "--slopes", "1,-2,1,1", "--element", "(0,0,0,3)*e"),
    ("algebra-closure", "--gen", "[[1,1],[0,1]]", "--gen", "[[1,0],[1,1]]"),
    ("homology", "--genus", "0", "--fiber", "1,2", "--fiber", "1,3"),
    ("jprime-check", "--p", "4"),
]

_BAD_ARGV = [
    ("chebyshev", "--family", "T", "--n", "-1"),
    ("chebyshev", "--family", "T", "--n", "x"),
    ("frobnicate",),
    ("gamma", "--p", "0"),
    ("homology", "--genus", "0", "--fiber", "1,1"),
]


def _comparable(capsys, argv):
    """(exit code, stdout, stderr) of one main call, timing_ms dropped from an
    envelope."""
    code, out, err = run(capsys, *argv)
    if out.startswith("{"):
        env = json.loads(out)
        env.pop("timing_ms")
        out = env
    return code, out, err


def test_kept_parser_answers_as_a_fresh_one_after_usage_errors(capsys, monkeypatch):
    monkeypatch.delenv("SKEINMOD_CACHE_DIR", raising=False)
    fresh = {}
    for argv in _GOOD_ARGV + _BAD_ARGV:
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh[argv] = _comparable(capsys, argv)
    kept = cli._PARSER
    for bad in _BAD_ARGV:
        assert _comparable(capsys, bad) == fresh[bad]
        assert fresh[bad][0] == 1
        for argv in _GOOD_ARGV:
            assert _comparable(capsys, argv) == fresh[argv]
    assert cli._PARSER is kept
    # the handler's own usage error still names its subcommand
    code, _out, err = run(capsys, "chebyshev", "--family", "T", "--n", "-1")
    assert code == 1 and err.startswith("usage: skeinmod chebyshev")


def test_repeated_fiber_flags_do_not_carry_over_between_calls(capsys):
    for _ in range(2):
        code, env, _ = run_json(capsys, "homology", "--genus", "0", "--fiber=1,2")
        assert code == 0 and env["inputs"]["fibers"] == [[1, 2]]
    code, env, _ = run_json(capsys, "homology", "--genus", "0")
    assert code == 0 and env["inputs"]["fibers"] == []


def test_version_flag_on_a_kept_parser(capsys):
    for argv in (["--version"], ["chebyshev", "--family", "T", "--n", "2"], ["--version"]):
        assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("skeinmod %s\n" % cli.__version__) == 2


def test_build_parser_returns_a_fresh_parser():
    assert cli.build_parser() is not cli.build_parser()


# ---------------------------------------------------------------------------
# the cache


def test_cache_replay_is_byte_identical(capsys, tmp_path):
    cache = str(tmp_path)
    args = ("torus-mul", "(2,1)", "(1,1)", "--json", "--cache-dir", cache)
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    files = list(tmp_path.iterdir())
    assert len(files) == 1 and files[0].suffix == ".json"


def test_repeated_store_leaves_one_entry_and_no_temp(tmp_path):
    cache = tmp_path / "cache"
    cli._cache_store(str(cache), "k" * 64, b"first\n")
    cli._cache_store(str(cache), "k" * 64, b"second\n")
    assert [f.name for f in cache.iterdir()] == ["k" * 64 + ".json"]
    assert (cache / ("k" * 64 + ".json")).read_bytes() == b"second\n"


def test_store_leaves_another_writers_temp_alone(tmp_path):
    # a second writer mid-store holds its own temp file; ours must not touch it
    other = tmp_path / ("k" * 64 + ".json.tmp")
    other.write_bytes(b"in flight\n")
    cli._cache_store(str(tmp_path), "k" * 64, b"mine\n")
    assert other.read_bytes() == b"in flight\n"
    assert (tmp_path / ("k" * 64 + ".json")).read_bytes() == b"mine\n"


def test_new_entry_follows_the_umask(tmp_path):
    old = os.umask(0o022)
    try:
        cli._cache_store(str(tmp_path), "k" * 64, b"data\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / ("k" * 64 + ".json")).stat().st_mode) == 0o644


def test_failed_store_removes_its_temp(capsys, tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(cli.os, "replace", refuse)
    cli._cache_store(str(tmp_path), "k" * 64, b"data\n")
    assert list(tmp_path.iterdir()) == []
    assert "could not write cache entry" in capsys.readouterr().err


def test_cache_key_depends_on_inputs_and_version(monkeypatch):
    k1 = cli._cache_key("torus-mul", {"left": "(1,0)", "right": "(0,1)"})
    k2 = cli._cache_key("torus-mul", {"left": "(1,0)", "right": "(1,1)"})
    k3 = cli._cache_key("chebyshev", {"left": "(1,0)", "right": "(0,1)"})
    assert len({k1, k2, k3}) == 3
    monkeypatch.setattr(cli, "__version__", "999.0.0")
    assert cli._cache_key("torus-mul", {"left": "(1,0)", "right": "(0,1)"}) != k1


def test_corrupt_cache_recovers(capsys, tmp_path):
    args = ("homology", "--genus", "1", "--cache-dir", str(tmp_path))
    code1, out1, _ = run(capsys, *args)
    cache_file = next(tmp_path.iterdir())
    cache_file.write_text("{not json")
    code2, out2, err2 = run(capsys, *args)
    assert code2 == 0
    assert json.loads(out2)["result"] == json.loads(out1)["result"]
    assert "cache" in err2.lower()
    # the recomputed result replaced the broken entry
    code3, out3, err3 = run(capsys, *args)
    assert out3 == out2 and "cache" not in err3.lower()


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SKEINMOD_CACHE_DIR", str(tmp_path))
    run(capsys, "chebyshev", "--family", "T", "--n", "9")
    assert len(list(tmp_path.iterdir())) == 1


def test_cached_text_rendering(capsys, tmp_path):
    # a hit on a text-mode command re-renders the stored result
    cache = str(tmp_path)
    args = ("chebyshev", "--family", "T", "--n", "7", "--cache-dir", cache)
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    # and the same key serves the json view of the stored envelope
    _, out3, _ = run(capsys, *args[:-2], "--json", "--cache-dir", cache)
    assert json.loads(out3)["result"]["text"] == out1.strip()


# ---------------------------------------------------------------------------
# malformed cyclotomic matrix entries: exit 1 with the entry named, no traceback


def _bad_gen(capsys, gen):
    code, out, err = run(capsys, "algebra-closure", "--gen", gen)
    assert code == 1 and out == ""
    assert "Traceback" not in err
    return err


def test_gen_entry_without_order(capsys):
    err = _bad_gen(capsys, '[[{"coords": [[1, 1]]}, 0], [0, 1]]')
    assert '{"coords": [[1, 1]]}' in err and '"order"' in err


def test_gen_rational_pair_with_zero_denominator(capsys):
    err = _bad_gen(capsys, "[[[1, 0], 0], [0, 1]]")
    assert "[1, 0] has a zero denominator" in err


def test_gen_cyclotomic_coordinate_with_zero_denominator(capsys):
    err = _bad_gen(capsys, '[[{"order": 1, "coords": [[1, 0]]}, 0], [0, 1]]')
    assert '{"order": 1, "coords": [[1, 0]]} has a zero denominator' in err


def test_gen_ragged_rows(capsys):
    err = _bad_gen(capsys, "[[1, 2], [3]]")
    assert "row [3]" in err


_GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "cli_envelopes.json").read_text()
)


def test_closure_basis_round_trips_as_generators(capsys):
    # every basis matrix algebra-closure prints is accepted back by --gen
    cases = [c["envelope"]["result"] for c in _GOLDEN if c["argv"][0] == "algebra-closure"]
    assert cases
    for result in cases:
        argv = ["algebra-closure", "--json"]
        for mat in result["basis"]:
            argv += ["--gen", json.dumps(mat)]
        code, env, err = run_json(capsys, *argv)
        assert code == 0, err
        got = env["result"]
        assert (got["tag"], got["dim"]) == (result["tag"], result["dim"])
        want = [cli._matrix_from_json(m) for m in result["basis"]]
        assert [cli._matrix_from_json(m) for m in got["basis"]] == want


def test_each_gen_is_parsed_once(capsys, monkeypatch):
    calls = []
    plain = cli._matrix_from_json

    def counted(obj):
        calls.append(obj)
        return plain(obj)

    monkeypatch.setattr(cli, "_matrix_from_json", counted)
    code, env, _ = run_json(
        capsys, "algebra-closure", "--json", "--gen", "[[1,1],[0,1]]", "--gen", "[[1,0],[1,1]]"
    )
    assert code == 0 and env["result"]["tag"] == "M2"
    assert len(calls) == 2
    assert env["inputs"] == {"gens": ["[[1,1],[0,1]]", "[[1,0],[1,1]]"]}


def test_gen_printed_form_with_three_entries(capsys):
    err = _bad_gen(capsys, '{"order": 1, "entries": [[[1, 1]], [[0, 1]], [[0, 1]]]}')
    assert '"entries"' in err and "four" in err


def test_gen_printed_form_with_a_bad_coordinate_count(capsys):
    err = _bad_gen(capsys, '{"order": 8, "entries": [[[1, 1]], [[0, 1]], [[0, 1]], [[1, 1]]]}')
    assert '{"order": 8, "coords": [[1, 1]]}' in err and "needs 4 coordinates" in err


def test_f12_reduce_zero_denominator_exits_1(capsys):
    for coeff in ("(1)/(0)", "(1)/(A - A)"):
        code, out, err = run(
            capsys, "f12-reduce", "--slopes", "1,-2,1,1", "--element", coeff + "*(0,0,0,1)*e"
        )
        assert code == 1 and out == ""
        assert "Traceback" not in err
        assert "--element" in err and "zero denominator" in err and coeff in err


def test_lens_quotient_degree_above_the_cap_exits_1(capsys, monkeypatch):
    from skeinmod import handlebody

    def boom(*args, **kwargs):
        raise AssertionError("monomials were listed above the degree cap")

    monkeypatch.setattr(handlebody, "_multipliers", boom)
    for degree in (handlebody.MAX_DEGREE + 1, 10**9):
        code, out, err = run(capsys, "lens-quotient", "--p", "4", "--degree", str(degree))
        assert code == 1 and out == ""
        assert "Traceback" not in err
        assert "--degree" in err and "at most %d" % handlebody.MAX_DEGREE in err


def test_odd_p_is_rejected_by_the_even_p_subcommands(capsys, monkeypatch):
    from skeinmod import handlebody

    def boom(*args, **kwargs):
        raise AssertionError("a computation ran for odd p")

    for name in ("truncated_quotient_dimension", "verify_Jprime_containment"):
        monkeypatch.setattr(cli, name, boom)
    for p in (1, 3, 5, handlebody.MAX_P - 1):
        for argv in (("lens-quotient", "--p", str(p), "--degree", "3"),
                     ("jprime-check", "--p", str(p))):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == ""
            assert "Traceback" not in err
            assert err.startswith("usage: skeinmod %s" % argv[0])
            assert "argument --p: must be even" in err
            assert "grading" not in err.splitlines()[-1]
    # the library keeps its own messages
    with pytest.raises(ValueError, match="requires even p"):
        handlebody.truncated_quotient_dimension(3, 3, (0, 0))
    with pytest.raises(ValueError, match="needs even p >= 2"):
        handlebody.verify_Jprime_containment(3)


def test_p_and_n_above_their_caps_exit_1(capsys, monkeypatch):
    from skeinmod import chebyshev, handlebody

    def boom(*args, **kwargs):
        raise AssertionError("a computation ran above the cap")

    for name in ("gamma", "gamma_prime", "truncated_quotient_dimension",
                 "verify_Jprime_containment", "chebyshev_T", "chebyshev_S"):
        monkeypatch.setattr(cli, name, boom)
    for p in (handlebody.MAX_P + 1, 10**9):
        for argv in (("gamma", "--p", str(p)), ("gamma", "--p", str(p), "--prime"),
                     ("lens-quotient", "--p", str(p), "--degree", "12"),
                     ("jprime-check", "--p", str(p))):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == ""
            assert "Traceback" not in err
            assert "argument --p: must be at most %d" % handlebody.MAX_P in err
    for n in (chebyshev.MAX_N + 1, 10**9):
        for family in ("T", "S"):
            code, out, err = run(capsys, "chebyshev", "--family", family, "--n", str(n))
            assert code == 1 and out == ""
            assert "Traceback" not in err
            assert "argument --n: must be at most %d" % chebyshev.MAX_N in err


def test_seifert_inputs_above_their_caps_exit_1(capsys, monkeypatch):
    from skeinmod import seifert

    def boom(*args, **kwargs):
        raise AssertionError("a space was built above the cap")

    monkeypatch.setattr(cli, "SeifertData", boom)
    g, n = seifert.MAX_GENUS, seifert.MAX_BOUNDARY
    for sub in ("homology", "seifert-certify"):
        for flags, message in (
            (("--genus", str(g + 1)), "argument --genus: must be at most %d" % g),
            (("--genus=%d" % (-g - 1),), "argument --genus: must be at least %d" % -g),
            (("--genus", "0", "--boundary", str(n + 1)), "argument --boundary: must be at most %d" % n),
            (("--genus", "0", "--boundary", str(10**9)), "argument --boundary: must be at most %d" % n),
            (("--genus", "0", "--boundary=-1"), "argument --boundary: must be at least 0"),
        ):
            code, out, err = run(capsys, sub, *flags)
            assert code == 1 and out == ""
            assert "Traceback" not in err
            assert message in err
    monkeypatch.undo()
    # the fiber count is checked when the space is built, before homology runs
    monkeypatch.setattr(cli, "homology", boom)
    argv = ["homology", "--genus", "0"] + ["--fiber=1,2"] * (seifert.MAX_FIBERS + 1)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: %d fibers exceed the limit %d\n" % (seifert.MAX_FIBERS + 1, seifert.MAX_FIBERS)


def test_certify_above_the_field_order_cap_exits_1(capsys):
    argv = ["seifert-certify", "--genus", "0"]
    for fiber in ("1,2", "1,3", "1,5", "1,7", "1,11"):
        argv += ["--fiber", fiber]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert "Traceback" not in err
    assert err == (
        "error: fibers [(1, 2), (1, 3), (1, 5), (1, 7), (1, 11)] need a certificate "
        "field of order 4620 = lcm(4, 4, 6, 10, 14, 22), above the limit 4096\n"
    )


# ---------------------------------------------------------------------------
# argument fuzz: any argv exits 0, 1 or 2 without a traceback


def _free_text(alphabet):
    # unrestricted text, and text over the characters of the flag's grammar
    return st.one_of(st.text(max_size=12), st.text(alphabet=alphabet, max_size=20))


_SMALL = st.integers(-3, 3)


def _sums(term):
    # "term + term + ...": well-formed input, so that runs reach the output
    return st.lists(term, min_size=1, max_size=3).map(" + ".join)


_FG_TEXT = st.one_of(
    _free_text("()0123456789,-+*A^ "),
    _sums(st.tuples(_SMALL, _SMALL, _SMALL).map(lambda v: "A^%d*(%d,%d)" % v)),
)
_MODULE_TEXT = st.one_of(
    _free_text("()0123456789,-+*/A^e "),
    _sums(st.lists(_SMALL, min_size=5, max_size=5).map(lambda v: "%d*(%d,%d,%d,%d)*e" % tuple(v))),
)
_SLOPES_TEXT = st.one_of(
    _free_text("0123456789,- "),
    # a1 > 0 > b1 and a2 > 0, so that some draws pass SlopeData's other checks
    st.tuples(st.integers(1, 3), st.integers(-3, -1), st.integers(1, 3), _SMALL).map(
        lambda v: "%d,%d,%d,%d" % v
    ),
)
_GEN_TEXT = st.one_of(
    _free_text('[]{}0123456789,-:" orderc'),
    st.lists(st.lists(_SMALL, min_size=2, max_size=2), min_size=2, max_size=2).map(json.dumps),
)
_FIBER_TEXT = st.one_of(
    _free_text("0123456789,- "),
    st.tuples(st.integers(-7, 7), st.integers(-1, 7)).map(lambda f: "%d,%d" % f),
)

# subcommand -> (argv strategy, parser for its text output or None)
_FUZZ_COMMANDS = {
    "torus-mul": (st.tuples(_FG_TEXT, _FG_TEXT).map(list), parse_fg),
    "chebyshev": (
        st.tuples(st.sampled_from("TS"), st.integers(-1, 40)).map(
            lambda v: ["--family", v[0], "--n", str(v[1])]
        ),
        parse_int_poly,
    ),
    "gamma": (
        st.tuples(st.integers(1, 4), st.booleans()).map(
            lambda v: ["--p", str(v[0])] + ["--prime"] * v[1]
        ),
        parse_poly3,
    ),
    "lens-quotient": (
        st.tuples(st.integers(1, 4), st.integers(1, 8), st.sampled_from(["ee", "eo", "oe", "oo"])).map(
            lambda v: ["--p", str(v[0]), "--degree", str(v[1]), "--grading", v[2]]
        ),
        None,
    ),
    "jprime-check": (st.integers(1, 4).map(lambda p: ["--p", str(p)]), None),
    "f12-reduce": (
        st.tuples(_SLOPES_TEXT, _MODULE_TEXT, st.integers(1, 30)).map(
            lambda v: ["--slopes", v[0], "--element", v[1], "--max-steps", str(v[2])]
        ),
        parse_module_element,
    ),
    "algebra-closure": (
        st.lists(_GEN_TEXT, min_size=1, max_size=3).map(
            lambda gens: [t for g in gens for t in ("--gen", g)]
        ),
        None,
    ),
}
for _name in ("seifert-certify", "homology"):
    _FUZZ_COMMANDS[_name] = (
        st.tuples(st.integers(-2, 2), st.integers(0, 2), st.lists(_FIBER_TEXT, max_size=3)).map(
            lambda v: ["--genus", str(v[0]), "--boundary", str(v[1])]
            + [t for f in v[2] for t in ("--fiber", f)]
        ),
        None,
    )


@st.composite
def _fuzz_argv(draw):
    name = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    argv, parse = _FUZZ_COMMANDS[name]
    json_switch = name not in ("lens-quotient", "jprime-check", "seifert-certify", "homology")
    as_json = json_switch and draw(st.booleans())
    return [name, *draw(argv), *(["--json"] * as_json)], None if as_json else parse


@given(_fuzz_argv())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_arguments_exit_cleanly(capsys, monkeypatch, case):
    monkeypatch.delenv("SKEINMOD_CACHE_DIR", raising=False)
    argv, parse = case
    code, out, err = run(capsys, *argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err
    if code == 0 and parse is not None:
        parse(out.rstrip("\n"))
