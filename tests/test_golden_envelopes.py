"""Golden CLI envelopes: exact outputs must not drift across refactors.

tests/golden/cli_envelopes.json holds the JSON envelope each command
printed when the corpus was captured, with timing_ms set to 0. The CLI
writes envelopes as json.dumps(..., sort_keys=True, indent=2), so
re-serializing a stored envelope the same way gives the expected stdout
byte for byte. The corpus covers seifert-certify on the five criterion-7
spaces, algebra-closure on rational and order-8 generators, f12-reduce on
multi-step elements for each benchmark slope, torus-mul on a product whose
terms cancel and one that reaches the (0,0) unit slot, gamma and gamma',
lens-quotient (p = 2, 4, 8 in every grading at degree 12, and p = 6 at
degree 12 ee, 24 ee and 16 oo), jprime-check, chebyshev T and S from the
smallest n up to n = 40, and homology on two fiber sets. A case with a
"stderr" field also pins what the command wrote to stderr, which for f12-reduce is
the `step: rewrote ...` log in rewrite order.
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
    assert code == 0
    if "stderr" in case:
        assert captured.err == case["stderr"]
    masked = re.sub(r'"timing_ms": \d+', '"timing_ms": 0', out)
    assert masked == json.dumps(case["envelope"], sort_keys=True, indent=2) + "\n"
