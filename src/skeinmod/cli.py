"""Command line front end.

Every subcommand wraps its answer in a versioned JSON envelope so results
can be cached and replayed byte for byte.  Text-oriented subcommands print
a plain rendering by default and switch to the envelope with --json; the
certificate and dimension subcommands always emit JSON.

Exit codes: 0 success, 1 usage or construction error, 2 "no result of the
requested kind" (budget exhausted before full reduction, or no torsion
certificate produced).
"""

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .chebyshev import chebyshev_S, chebyshev_T, format_int_poly
from .cyclotomic import CycNum
from .handlebody import (
    MAX_DEGREE,
    gamma,
    gamma_prime,
    parse_poly3,
    truncated_quotient_dimension,
    verify_Jprime_containment,
)
from .mat2 import Mat2, algebra_closure
from .rewrite import (
    SlopeData,
    StepBudgetExceeded,
    format_module_element,
    normalize,
    parse_module_element,
)
from .seifert import BuildError, NoTorsionResult, SeifertData, certify, homology
from .torus import fg_multiply, format_fg, parse_fg

TOOL_NAME = "skeinmod"
SCHEMA_VERSION = 1

_GRADING = {"ee": (0, 0), "eo": (0, 1), "oe": (1, 0), "oo": (1, 1)}


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


# ---------------------------------------------------------------------------
# argument validators (argparse `type=` callables; ArgumentTypeError gets
# reported against the offending flag by name)


def _parsed_by(parse):
    # keeps the text as given once `parse` accepts it
    def check(text):
        try:
            parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        return text

    return check


def _slopes_text(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected a1,b1,a2,b2")
    try:
        a1, b1, a2, b2 = (int(p) for p in parts)
        SlopeData(a1, b1, a2, b2)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return text


def _fiber_text(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected beta,alpha")
    try:
        beta, alpha = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError("expected two integers beta,alpha")
    if alpha < 2:
        raise argparse.ArgumentTypeError("fiber order alpha must be at least 2")
    return (beta, alpha)


def _gen_text(text):
    try:
        _matrix_from_json(json.loads(text))
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return text


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer")
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _degree_int(text):
    value = _positive_int(text)
    if value > MAX_DEGREE:
        raise argparse.ArgumentTypeError("must be at most %d" % MAX_DEGREE)
    return value


# ---------------------------------------------------------------------------
# JSON serialization of exact values


def _cyc_to_json(value):
    den = value.den
    return {
        "order": value.order,
        "coords": [[c // (g := math.gcd(c, den)), den // g] for c in value.num],
    }


def _mat_to_json(mat):
    order = mat.order
    return {
        "order": order,
        "entries": [_cyc_to_json(e.lift(order))["coords"] for e in mat.entries],
    }


def _fraction_from_pair(pair, entry):
    if (
        not isinstance(pair, list)
        or len(pair) != 2
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in pair)
    ):
        raise ValueError(
            "matrix entry %s: expected [numerator, denominator] integer pairs" % json.dumps(entry)
        )
    if pair[1] == 0:
        raise ValueError("matrix entry %s has a zero denominator" % json.dumps(entry))
    return Fraction(pair[0], pair[1])


def _entry_from_json(obj):
    if isinstance(obj, bool):
        raise ValueError("matrix entries must be numbers, not booleans")
    if isinstance(obj, int):
        return CycNum.rational(Fraction(obj))
    if isinstance(obj, str):
        try:
            return CycNum.rational(Fraction(obj))
        except (ValueError, ZeroDivisionError):
            raise ValueError("matrix entry %s is not a rational number" % json.dumps(obj))
    if isinstance(obj, list) and len(obj) == 2:
        return CycNum.rational(_fraction_from_pair(obj, obj))
    if isinstance(obj, dict):
        if "order" not in obj or not isinstance(obj.get("coords"), list):
            raise ValueError('cyclotomic entry %s needs "order" and a "coords" list' % json.dumps(obj))
        coords = [_fraction_from_pair(pair, obj) for pair in obj["coords"]]
        try:
            return CycNum(obj["order"], coords)
        except ValueError as exc:
            raise ValueError("cyclotomic entry %s: %s" % (json.dumps(obj), exc))
    raise ValueError("unrecognized matrix entry %r" % (obj,))


def _matrix_from_json(obj):
    if isinstance(obj, list) and len(obj) == 4:
        return Mat2(*(_entry_from_json(e) for e in obj))
    rows = obj["entries"] if isinstance(obj, dict) and "entries" in obj else obj
    if not (isinstance(rows, list) and len(rows) == 2):
        raise ValueError("expected a 2x2 matrix as [[a,b],[c,d]]")
    for row in rows:
        if not (isinstance(row, list) and len(row) == 2):
            raise ValueError("matrix row %s does not have two entries" % json.dumps(row))
    return Mat2(*(_entry_from_json(e) for row in rows for e in row))


# ---------------------------------------------------------------------------
# result cache: content-addressed by (tool version, subcommand, inputs)


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _cache_key(subcommand, inputs):
    payload = {"version": __version__, "subcommand": subcommand, "inputs": inputs}
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


def _cache_dir(args):
    return getattr(args, "cache_dir", None) or os.environ.get("SKEINMOD_CACHE_DIR")


def _cache_load(cdir, key):
    if not cdir:
        return None
    path = os.path.join(cdir, key + ".json")
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError:
        return None
    try:
        envelope = json.loads(raw.decode("utf-8"))
        if not isinstance(envelope, dict) or envelope.get("schema") != SCHEMA_VERSION:
            raise ValueError("unexpected envelope shape")
    except (ValueError, UnicodeDecodeError) as exc:
        print(
            "warning: ignoring corrupt cache entry %s (%s)" % (path, exc),
            file=sys.stderr,
        )
        return None
    return raw, envelope


def _cache_store(cdir, key, raw):
    if not cdir:
        return
    tmp = None
    try:
        os.makedirs(cdir, exist_ok=True)
        # a temp name of its own per writer, so concurrent stores never share
        # one; creating it with mode 0o666 lets the umask set the entry's mode
        name = os.path.join(cdir, "%s.%s.tmp" % (key, os.urandom(8).hex()))
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp = name
        with os.fdopen(fd, "wb") as fh:
            fh.write(raw)
        os.replace(tmp, os.path.join(cdir, key + ".json"))
    except OSError as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        print("warning: could not write cache entry (%s)" % exc, file=sys.stderr)


def _exit_code_for(envelope):
    verification = envelope.get("verification")
    if isinstance(verification, dict):
        status = verification.get("status")
        if status in ("partial", "no_certificate"):
            return 2
    return 0


def _emit(args, subcommand, inputs, compute, render_text):
    """Shared driver: cache lookup, compute, envelope, print, exit code.

    `compute` returns (result, verification).  `render_text` maps the result
    dict to the plain-text form; passing None forces JSON output.
    """
    json_out = render_text is None or getattr(args, "json_out", False)
    cdir = _cache_dir(args)
    key = _cache_key(subcommand, inputs)
    hit = _cache_load(cdir, key)
    if hit is not None:
        raw, envelope = hit
        if json_out:
            sys.stdout.buffer.write(raw)
            sys.stdout.flush()
        else:
            print(render_text(envelope["result"]))
        return _exit_code_for(envelope)

    started = time.perf_counter()
    result, verification = compute()
    elapsed_ms = int(round((time.perf_counter() - started) * 1000))
    envelope = {
        "schema": SCHEMA_VERSION,
        "tool": TOOL_NAME,
        "version": __version__,
        "subcommand": subcommand,
        "inputs": inputs,
        "result": result,
        "verification": verification,
        "timing_ms": elapsed_ms,
    }
    raw = (json.dumps(envelope, sort_keys=True, indent=2) + "\n").encode("utf-8")
    _cache_store(cdir, key, raw)
    if json_out:
        sys.stdout.buffer.write(raw)
        sys.stdout.flush()
    else:
        print(render_text(result))
    return _exit_code_for(envelope)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_torus_mul(args):
    inputs = {"left": args.left, "right": args.right}

    def compute():
        product = fg_multiply(parse_fg(args.left), parse_fg(args.right))
        return {"text": format_fg(product)}, None

    return _emit(args, "torus-mul", inputs, compute, lambda r: r["text"])


def _cmd_chebyshev(args):
    if args.family == "T" and args.n < 0:
        raise _usage(args, "argument --n: T requires n >= 0")
    if args.family == "S" and args.n < -1:
        raise _usage(args, "argument --n: S requires n >= -1")
    inputs = {"family": args.family, "n": args.n}

    def compute():
        poly = chebyshev_T(args.n) if args.family == "T" else chebyshev_S(args.n)
        return {"text": format_int_poly(poly)}, None

    return _emit(args, "chebyshev", inputs, compute, lambda r: r["text"])


def _cmd_gamma(args):
    inputs = {"p": args.p, "prime": bool(args.prime)}

    def compute():
        poly = gamma_prime(args.p) if args.prime else gamma(args.p)
        text = str(poly)
        # parseability is part of the output contract
        if parse_poly3(text).terms != poly.terms:
            raise AssertionError("gamma text form failed to round-trip")
        return {"text": text}, None

    return _emit(args, "gamma", inputs, compute, lambda r: r["text"])


def _cmd_lens_quotient(args):
    inputs = {"p": args.p, "degree": args.degree, "grading": args.grading}

    def compute():
        grading = _GRADING[args.grading]
        dimension = truncated_quotient_dimension(args.p, args.degree, grading)
        certified, detail = verify_Jprime_containment(args.p)
        result = {
            "p": args.p,
            "degree": args.degree,
            "grading": args.grading,
            "dimension": dimension,
            "lower_bound": args.degree // 2 + 1,
            "jprime_certified": certified,
        }
        verification = {
            "status": "ok",
            "jprime_certified": certified,
            "families": {str(k): v for k, v in detail.items()},
        }
        return result, verification

    return _emit(args, "lens-quotient", inputs, compute, None)


def _cmd_jprime_check(args):
    inputs = {"p": args.p}

    def compute():
        contained, detail = verify_Jprime_containment(args.p)
        return (
            {"p": args.p, "contained": contained},
            {
                "status": "ok",
                "jprime_certified": contained,
                "families": {str(k): v for k, v in detail.items()},
            },
        )

    return _emit(args, "jprime-check", inputs, compute, None)


def _cmd_f12_reduce(args):
    inputs = {
        "slopes": args.slopes,
        "element": args.element,
        "max_steps": args.max_steps,
    }

    def compute():
        a1, b1, a2, b2 = (int(p) for p in args.slopes.split(","))
        slopes = SlopeData(a1, b1, a2, b2)
        element = parse_module_element(args.element)
        log = []
        try:
            reduced = normalize(element, slopes, max_steps=args.max_steps, log=log)
            complete = True
        except StepBudgetExceeded as exc:
            reduced = exc.partial
            complete = False
        for label, gen, nterms in log:
            print(
                "step: rewrote %s*%s into %d terms" % (label, gen, nterms),
                file=sys.stderr,
            )
        result = {
            "text": format_module_element(reduced),
            "steps": len(log),
            "complete": complete,
        }
        status = "ok" if complete else "partial"
        return result, {"status": status, "fully_reduced": complete}

    return _emit(args, "f12-reduce", inputs, compute, lambda r: r["text"])


def _cmd_algebra_closure(args):
    inputs = {"gens": args.gen}

    def compute():
        gens = [_matrix_from_json(json.loads(text)) for text in args.gen]
        closure = algebra_closure(gens)
        result = {
            "tag": closure.tag,
            "dim": closure.dim,
            "basis": [_mat_to_json(mat) for mat in closure.basis],
        }
        return result, None

    return _emit(args, "algebra-closure", inputs, compute,
                 lambda r: "%s (dim %d)" % (r["tag"], r["dim"]))


def _cmd_seifert_certify(args):
    fibers = [list(f) for f in args.fiber]
    inputs = {"genus": args.genus, "boundary": args.boundary, "fibers": fibers}

    def compute():
        data = SeifertData(args.genus, args.boundary, tuple(args.fiber))
        outcome = certify(data)
        if isinstance(outcome, NoTorsionResult):
            return outcome.as_dict(), {"status": "no_certificate"}
        return outcome.as_dict(), {"status": "ok", "verified": outcome.verified}

    return _emit(args, "seifert-certify", inputs, compute, None)


def _cmd_homology(args):
    fibers = [list(f) for f in args.fiber]
    inputs = {"genus": args.genus, "boundary": args.boundary, "fibers": fibers}

    def compute():
        data = SeifertData(args.genus, args.boundary, tuple(args.fiber))
        factors = homology(data)
        return {"invariant_factors": factors}, None

    return _emit(args, "homology", inputs, compute, None)


def _usage(args, message):
    parser = args._parser
    parser.error(message)
    return SystemExit(1)  # unreachable; error() raises


# ---------------------------------------------------------------------------
# parser assembly


def _add_common(sub, json_switch=True):
    sub.add_argument("--cache-dir", default=None, help="directory for the result cache")
    if json_switch:
        sub.add_argument(
            "--json",
            dest="json_out",
            action="store_true",
            help="emit the full JSON envelope instead of plain text",
        )


def build_parser():
    parser = _Parser(prog="skeinmod", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version="%(prog)s " + __version__)
    subs = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = subs.add_parser("torus-mul", help="multiply two torus basis combinations")
    p.add_argument("left", type=_parsed_by(parse_fg), help="element text, e.g. \"(1,0)\"")
    p.add_argument("right", type=_parsed_by(parse_fg), help="element text, e.g. \"(0,1)\"")
    _add_common(p)
    p.set_defaults(func=_cmd_torus_mul)

    p = subs.add_parser("chebyshev", help="print a Chebyshev-type polynomial")
    p.add_argument("--family", choices=("T", "S"), required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_chebyshev)

    p = subs.add_parser("gamma", help="print the gamma relation polynomial for p")
    p.add_argument("--p", type=_positive_int, required=True)
    p.add_argument("--prime", action="store_true", help="print the primed variant")
    _add_common(p)
    p.set_defaults(func=_cmd_gamma)

    p = subs.add_parser(
        "lens-quotient",
        help="truncated quotient dimension and torsion lower bound for even p",
    )
    p.add_argument("--p", type=_positive_int, required=True)
    p.add_argument("--degree", type=_degree_int, required=True)
    p.add_argument("--grading", choices=sorted(_GRADING), default="ee")
    _add_common(p, json_switch=False)
    p.set_defaults(func=_cmd_lens_quotient)

    p = subs.add_parser("jprime-check", help="verify the shifted-ideal containment for p")
    p.add_argument("--p", type=_positive_int, required=True)
    _add_common(p, json_switch=False)
    p.set_defaults(func=_cmd_jprime_check)

    p = subs.add_parser("f12-reduce", help="rewrite an element to reduced form")
    p.add_argument("--slopes", type=_slopes_text, required=True, help="a1,b1,a2,b2")
    p.add_argument("--element", type=_parsed_by(parse_module_element), required=True)
    p.add_argument("--max-steps", type=_positive_int, default=100000)
    _add_common(p)
    p.set_defaults(func=_cmd_f12_reduce)

    p = subs.add_parser("algebra-closure", help="classify the algebra spanned by 2x2 generators")
    p.add_argument(
        "--gen",
        type=_gen_text,
        action="append",
        required=True,
        help="JSON 2x2 matrix, repeatable",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_algebra_closure)

    p = subs.add_parser("seifert-certify", help="produce a torsion certificate")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--boundary", type=int, default=0)
    p.add_argument("--fiber", type=_fiber_text, action="append", default=[],
                   help="beta,alpha pair, repeatable")
    _add_common(p, json_switch=False)
    p.set_defaults(func=_cmd_seifert_certify)

    p = subs.add_parser("homology", help="first homology invariant factors")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--boundary", type=int, default=0)
    p.add_argument("--fiber", type=_fiber_text, action="append", default=[],
                   help="beta,alpha pair, repeatable")
    _add_common(p, json_switch=False)
    p.set_defaults(func=_cmd_homology)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse-controlled exits: usage errors carry 1, --help/--version 0
        return exc.code if isinstance(exc.code, int) else 1
    args._parser = parser
    try:
        return args.func(args)
    except BuildError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
