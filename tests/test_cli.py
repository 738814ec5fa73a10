"""Command line driver: output shapes, exit codes, and the result cache."""

import json
import os
import stat

from skeinmod import cli
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
        raise AssertionError("monomials_leq ran above the degree cap")

    monkeypatch.setattr(handlebody, "monomials_leq", boom)
    for degree in (handlebody.MAX_DEGREE + 1, 10**9):
        code, out, err = run(capsys, "lens-quotient", "--p", "4", "--degree", str(degree))
        assert code == 1 and out == ""
        assert "Traceback" not in err
        assert "--degree" in err and "at most %d" % handlebody.MAX_DEGREE in err
