"""Golden CLI envelopes: exact outputs must not drift across refactors.

tests/golden/cli_envelopes.json holds the JSON envelope each command
printed when the corpus was captured, with timing_ms set to 0. The CLI
writes envelopes as json.dumps(..., sort_keys=True, indent=2), so
re-serializing a stored envelope the same way gives the expected stdout
byte for byte. The corpus covers seifert-certify on the five criterion-7
spaces, algebra-closure on rational and order-8 generators (OTHER at
dimensions 1, 2 and 3, whose bases are the field echelon's rows; every named
tag, with L and D from rational generators, J also from the nilpotent
[[0,1],[0,0]], and M2 also from a triple of which no pair is irreducible), f12-reduce on
multi-step elements for each benchmark slope and on Q(A) coefficients in the
canonical LaurentFraction form (a fraction that cancels to a polynomial, a
denominator with a negative leading coefficient, a common factor and an
integer content that cancel), torus-mul on a product whose
terms cancel and one that reaches the (0,0) unit slot, gamma and gamma',
lens-quotient (p = 2, 4, 8 in every grading at degree 12, and p = 6 at
degree 12 ee, 24 ee and 16 oo), jprime-check, chebyshev T and S from the
smallest n up to n = 40, and homology on two fiber sets. A case with a
"stderr" field also pins what the command wrote to stderr, which for f12-reduce is
the `step: rewrote ...` log in rewrite order. A case with an "exit" field pins a
nonzero exit code (2 for an f12-reduce partial result under --max-steps); every
other case must exit 0. The f12-reduce cases also cover a step budget that runs
out, a fractional and an integral term that meet in one output key, and two
terms with different denominators.
"""

import json
import pathlib
import re

import pytest

from skeinmod import cli

_CORPUS = json.loads((pathlib.Path(__file__).parent / "golden" / "cli_envelopes.json").read_text())


@pytest.mark.parametrize(
    "case", _CORPUS, ids=["%s-%d" % (c["argv"][0], i) for i, c in enumerate(_CORPUS)]
)
def test_envelope_is_byte_identical(case, capsys):
    code = cli.main(case["argv"])
    captured = capsys.readouterr()
    out = captured.out
    assert code == case.get("exit", 0)
    if "stderr" in case:
        assert captured.err == case["stderr"]
    masked = re.sub(r'"timing_ms": \d+', '"timing_ms": 0', out)
    assert masked == json.dumps(case["envelope"], sort_keys=True, indent=2) + "\n"
