"""Seeded task lists for the benchmark workloads, how a task runs, and how
its output is checked.

A task is a tuple of plain values (its first entry names the kind), so the
library only ever sees generated inputs. Tasks call the library through
module attributes (``seifert.certify(...)``, never a name bound at import
time); that is what lets the tracer's wrappers see every call.

Each workload's mix is stratified: the inputs that set the cost of a task
(Seifert field order, rewrite label complexity, quotient degree and
grading, CLI subcommand) come in fixed counts per pass, and the seed picks
everything else. Two seeds therefore give different inputs of nearly the
same total cost, which keeps the spread between seeds small.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import re
from fractions import Fraction

from skeinmod import chebyshev, cli, cyclotomic, handlebody, rewrite, seifert, torus

def _canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# seifert-census: homology then certify on one SeifertData


# exceptional fibers (beta, alpha) with alpha in 2..7 and 0 < |beta| < alpha
_FIBERS = [(b, a) for a in range(2, 8) for b in range(1 - a, a) if b and math.gcd(b, a) == 1]


def _fiber(rng):
    alpha = rng.randint(2, 7)
    return rng.choice([f for f in _FIBERS if f[1] == alpha])


def _field_order(fibers):
    # the certificate field: lcm of 4 and each fiber's eigenvalue order
    return math.lcm(4, *[a if b % 2 == 0 else 2 * a for b, a in fibers])


# (genus, boundary count, fiber count); every shape has an essential torus
_TORUS_SHAPES = ((0, 0, 4), (0, 0, 5), (0, 1, 3), (-1, 0, 3), (-1, 1, 2))
# The field order sets the cost of a certificate, so every shape gets the
# same orders in every pass and the seed picks fibers that realise them.
_SMALL_ORDERS = (4, 4, 8, 8, 12, 12, 12)
# The slow tail is pinned, like the order-420 instance: fixed fibers at
# these orders, each taking 0.4-1 s, so the 19 slowest tasks are the same
# for every seed and task_p90_ms (the 10th slowest) compares like with like.
# Seeded fibers at these orders vary by 2x in cost. Orders stay at or below
# 84 (a bounded RP2 base at order 140 alone takes over ten seconds), and
# five fibers stop at 28, past which the representation search can take
# seconds.
_TAIL_ORDERS = ((28, 40, 60, 84), (28, 28), (20, 28, 40, 60), (28, 40, 60, 84), (20, 28, 56, 84))
_POSITIVE_GENUS = 36
_CRITERION_8 = 10
PINNED_420 = ("seifert", 0, 0, ((1, 2), (1, 3), (1, 5), (1, 7)), "separating_torus")


def _criterion_8_cases():
    """The 111 small bases of acceptance criterion 8 (no effective torus)."""
    types = [(b, a) for a in range(2, 6) for b in range(1, a) if math.gcd(a, b) == 1]
    cases = []
    for fibers in itertools.chain([()], ((f,) for f in types), itertools.product(types, repeat=2)):
        cases.append((0, 1, fibers))
    for fibers in itertools.chain([()], ((f,) for f in types)):
        cases.append((0, 2, fibers))
        cases.append((-1, 1, fibers))
    return cases


def _fibers_of_order(rng, count, order):
    pool = [f for f in _FIBERS if order % _field_order([f]) == 0]
    while True:
        fibers = tuple(rng.choice(pool) for _ in range(count))
        if _field_order(fibers) == order:
            return fibers


def _seifert_tasks(rng):
    tasks = [PINNED_420]
    for (g, n, k), tail in zip(_TORUS_SHAPES, _TAIL_ORDERS):
        for order in _SMALL_ORDERS:
            tasks.append(("seifert", g, n, _fibers_of_order(rng, k, order), "separating_torus"))
        for i, order in enumerate(tail):
            pinned = random.Random("seifert-census/tail/%d/%d/%d/%d" % (g, n, k, i))
            tasks.append(("seifert", g, n, _fibers_of_order(pinned, k, order), "separating_torus"))
    bases = list(itertools.product((1, 2, -2, -3), (0, 1, 2)))
    for i in range(_POSITIVE_GENUS):
        g, n = bases[i % len(bases)]
        fibers = tuple(_fiber(rng) for _ in range(rng.randint(0, 2)))
        tasks.append(("seifert", g, n, fibers, "nonseparating_torus"))
    for g, n, fibers in rng.sample(_criterion_8_cases(), _CRITERION_8):
        tasks.append(("seifert", g, n, fibers, "no_effective_certificate"))
    return tasks


def _run_seifert(task):
    _, g, n, fibers, _expect = task
    data = seifert.SeifertData(g, n, fibers)
    return seifert.homology(data), seifert.certify(data)


def _digest_seifert(task, out):
    factors, cert = out
    return _sha(_canonical({"homology": factors, "certificate": cert.as_dict()}))


def _check_seifert(task, out):
    _, g, n, fibers, expect = task
    factors, cert = out
    torsion = [d for d in factors if d]
    if factors[len(torsion):] != [0] * (len(factors) - len(torsion)):
        return "free factors are not trailing: %r" % (factors,)
    if any(d < 2 for d in torsion) or any(y % x for x, y in zip(torsion, torsion[1:])):
        return "invariant factors break the divisibility chain: %r" % (factors,)
    if len(fibers) > 1:
        permuted = fibers[1:] + fibers[:1]
        if seifert.homology(seifert.SeifertData(g, n, permuted)) != factors:
            return "homology depends on the fiber order"
    if expect == "no_effective_certificate":
        kind = getattr(cert, "kind", None)
        if kind not in (None, "noneffective_boundary"):
            return "small base got an effective certificate %r" % (kind,)
        if kind is None:
            return None
    elif getattr(cert, "kind", None) != expect:
        return "expected %s, got %r" % (expect, cert)
    if not cert.verified:
        return "certificate is not verified"
    if not seifert.reverify_certificate(cert, seifert.SeifertData(g, n, fibers)):
        return "certificate fails re-verification"
    return None


# ---------------------------------------------------------------------------
# boundary-rewrite: normalize one ModuleElement of 1-3 terms


SLOPES = ((1, -1, 1, 0), (1, -2, 1, 1), (2, -3, 2, 1))
# Lead-term complexity levels per slope. Every (c1, c2) cell on a level gets
# one task per generator, so only the pick inside a cell is random; a cell
# and generator fix the cost to within about a fifth, where a level alone
# leaves a factor of two.
_LEVELS = (
    (6, 9, 11, 12, 13),
    (6, 9, 12, 15, 17),
    (6, 9, Fraction(23, 2), 13, Fraction(29, 2)),
)
_GENS = ("e", "x1", "x2")
_LABEL_RANGE = range(-6, 7)


def _cells(slope):
    a1, b1, a2, b2 = slope
    cells = {}
    for label in itertools.product(_LABEL_RANGE, repeat=4):
        a, b, c, d = label
        key = (abs(a1 * b - b1 * a), abs(a2 * d - b2 * c))
        cells.setdefault(key, []).append(label)
    return cells


def _level(cell, slope):
    return Fraction(cell[0], slope[0]) + Fraction(cell[1], slope[2])


def _coeff_text(rng):
    """A small monomial coefficient as (negative, text); text may be empty."""
    c = rng.choice((-2, -1, 1, 2))
    e = rng.randint(-2, 2)
    parts = ([str(abs(c))] if abs(c) != 1 else []) + ([{1: "A"}.get(e, "A^%d" % e)] if e else [])
    return c < 0, "*".join(parts)


def _rewrite_tasks(rng):
    tasks = []
    for slope, levels in zip(SLOPES, _LEVELS):
        cells = _cells(slope)
        by_level = {}
        for cell in cells:
            by_level.setdefault(_level(cell, slope), []).append(cell)
        for level in levels:
            light = [c for c in cells if _level(c, slope) <= level * Fraction(3, 5)]
            for cell, lead_gen in itertools.product(sorted(by_level[level]), _GENS):
                terms = [(rng.choice(cells[cell]), lead_gen)]
                for _ in range(rng.randrange(3)):
                    terms.append((rng.choice(cells[rng.choice(light)]), rng.choice(_GENS)))
                text = []
                for label, gen in terms:
                    neg, coeff = _coeff_text(rng)
                    body = "(%d,%d,%d,%d)*%s" % (label + (gen,))
                    text.append(("- " if neg else "+ ") + (coeff + "*" if coeff else "") + body)
                element = " ".join(text)
                element = element[2:] if element.startswith("+ ") else element
                tasks.append(("normalize", slope, element))
    return tasks


def _run_rewrite(task):
    _, slope, element = task
    return rewrite.normalize(rewrite.parse_module_element(element), rewrite.SlopeData(*slope))


def _digest_rewrite(task, out):
    return _sha(rewrite.format_module_element(out))


def _check_rewrite(task, out):
    slopes = rewrite.SlopeData(*task[1])
    for label, _gen in out.terms:
        if not rewrite.is_reduced_label(label, slopes):
            return "label %r is not reduced" % (label,)
    return None


# ---------------------------------------------------------------------------
# handle-slide-quotient: truncated quotients, J' containment, criterion 1


GRADINGS = {"ee": (0, 0), "eo": (0, 1), "oe": (1, 0), "oo": (1, 1)}
_PS = (2, 4, 6, 8)
# (grading, degrees with two seeded p values, degrees with every p). Above
# the cut the cost depends on p by up to 7x, so every p runs there and the
# pass cost stays the same for every seed; oo takes one seeded p below it.
_QUOTIENT_CELLS = (
    ("ee", range(2, 13, 2), range(14, 19, 2)),
    ("eo", range(2, 17, 2), range(18, 25, 2)),
    ("oe", range(2, 17, 2), range(18, 25, 2)),
    ("oo", range(2, 7, 2), range(8, 13, 2)),
)
# Sizes pinned in every pass: the degree-24 lens quotient and the largest
# odd-odd quotients, the widest eliminations of the mix.
_QUOTIENT_ANCHORS = (("quotient", 6, 24, "ee"), ("quotient", 6, 14, "oo"), ("quotient", 6, 16, "oo"))
_JPRIME = 4
_CRITERION_1 = 24


def _quotient_tasks(rng):
    tasks = list(_QUOTIENT_ANCHORS)
    for grading, seeded, every in _QUOTIENT_CELLS:
        for degree in seeded:
            for p in rng.sample(_PS, 1 if grading == "oo" else 2):
                tasks.append(("quotient", p, degree, grading))
        tasks += [("quotient", p, degree, grading) for degree in every for p in _PS]
    tasks += [("jprime", rng.choice(_PS)) for _ in range(_JPRIME)]
    tasks += [("criterion1", rng.randint(1, 16)) for _ in range(_CRITERION_1)]
    return tasks


def _run_quotient(task):
    kind = task[0]
    if kind == "quotient":
        _, p, degree, grading = task
        return handlebody.truncated_quotient_dimension(p, degree, GRADINGS[grading])
    if kind == "jprime":
        return handlebody.verify_Jprime_containment(task[1])
    p = task[1]
    return handlebody.specialize_at_i(handlebody.gamma(p)) == handlebody.gamma_at_i_closed(p)


def _digest_quotient(task, out):
    return _sha(_canonical(out))


def _check_quotient(task, out):
    kind = task[0]
    if kind == "quotient":
        _, _p, degree, grading = task
        if grading == "ee" and out < degree // 2 + 1:
            return "ee dimension %d is below floor(D/2)+1" % out
        return None
    if kind == "jprime":
        ok, report = out
        if not ok or not report or not all(r["contained"] for r in report.values()):
            return "J' containment rejected"
        return None
    return None if out is True else "gamma at i differs from its closed form"


def _check_quotient_list(tasks, outputs):
    """ee dimensions must strictly grow with D for each p."""
    dims = {}
    for task, out in zip(tasks, outputs):
        if task[0] == "quotient" and task[3] == "ee":
            dims.setdefault(task[1], {})[task[2]] = out
    problems = []
    for p, by_degree in dims.items():
        seq = [by_degree[d] for d in sorted(by_degree)]
        if any(b <= a for a, b in zip(seq, seq[1:])):
            problems.append("ee dimensions for p=%d do not grow with D: %r" % (p, by_degree))
    return problems


# ---------------------------------------------------------------------------
# cli-queries: one in-process skeinmod.cli.main(argv) call


# subcommand -> tasks per pass
_CLI_MIX = (
    ("torus-mul", 40),
    ("chebyshev", 30),
    ("gamma", 30),
    ("algebra-closure", 30),
    ("homology", 30),
    ("f12-reduce", 20),
    ("jprime-check", 20),
)


def _fg_text(rng):
    parts = []
    for _ in range(rng.randint(1, 3)):
        neg, coeff = _coeff_text(rng)
        pair = "(%d,%d)" % (rng.randint(-4, 4), rng.randint(1, 4))
        parts.append(("- " if neg else "+ ") + (coeff + "*" if coeff else "") + pair)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def _entry(rng):
    if rng.random() < 0.5:
        return rng.randint(-3, 3)
    return "%d/%d" % (rng.randint(-5, 5), rng.randint(1, 4))


def _cli_argv(rng, sub):
    if sub == "torus-mul":
        return [sub, _fg_text(rng), _fg_text(rng)]
    if sub == "chebyshev":
        return [sub, "--family", rng.choice("TS"), "--n", str(rng.randint(0, 40))]
    if sub == "gamma":
        return [sub, "--p", str(rng.randint(1, 12))] + (["--prime"] if rng.random() < 0.5 else [])
    if sub == "algebra-closure":
        argv = [sub]
        for _ in range(rng.randint(1, 2)):
            mat = [[_entry(rng), _entry(rng)], [_entry(rng), _entry(rng)]]
            argv += ["--gen", json.dumps(mat)]
        return argv
    if sub == "homology":
        argv = [sub, "--genus", str(rng.randint(-2, 2)), "--boundary", str(rng.randint(0, 2))]
        for _ in range(rng.randint(0, 3)):
            beta, alpha = _fiber(rng)
            argv.append("--fiber=%d,%d" % (beta, alpha))  # "-1,4" alone reads as a flag
        return argv
    if sub == "f12-reduce":
        slope = rng.choice(SLOPES)
        label = tuple(rng.randint(-3, 3) for _ in range(4))
        neg, coeff = _coeff_text(rng)
        element = ("- " if neg else "") + (coeff + "*" if coeff else "")
        element += "(%d,%d,%d,%d)*%s" % (label + (rng.choice(_GENS),))
        return [sub, "--slopes=%d,%d,%d,%d" % slope, "--element=" + element]
    return [sub, "--p", str(rng.choice(_PS))]


def _cli_tasks(rng):
    return [("cli", tuple(_cli_argv(rng, sub))) for sub, count in _CLI_MIX for _ in range(count)]


def _run_cli(task):
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(task[1]))
    out.flush()
    return code, out.buffer.getvalue().decode("utf-8"), err.getvalue()


def _masked(stdout):
    # JSON envelopes carry a wall-clock timing_ms; mask it before hashing
    if not stdout.startswith("{"):
        return stdout
    envelope = json.loads(stdout)
    envelope["timing_ms"] = 0
    return _canonical(envelope)


def _digest_cli(task, out):
    code, stdout, stderr = out
    return _sha(_canonical([code, _masked(stdout), stderr]))


_CLOSURE_TEXT = re.compile(r"^(D|U|L|J|M2|OTHER) \(dim [1-4]\)$")


def _check_cli(task, out):
    argv = task[1]
    sub = argv[0]
    code, stdout, _stderr = out
    if code != 0:
        return "exit code %d" % code
    text = stdout.rstrip("\n")
    if sub in ("homology", "jprime-check"):
        envelope = json.loads(stdout)
        if envelope.get("subcommand") != sub:
            return "envelope names subcommand %r" % envelope.get("subcommand")
        if sub == "jprime-check" and envelope["result"]["contained"] is not True:
            return "J' containment rejected"
        return None
    if sub == "torus-mul":
        ok = torus.format_fg(torus.parse_fg(text)) == text
    elif sub == "chebyshev":
        poly = chebyshev.parse_int_poly(text)
        # at x = 2 every T_n is 2 and S_n is n + 1
        at_two = sum(c * 2**e for e, c in poly.items())
        n = int(argv[argv.index("--n") + 1])
        ok = chebyshev.format_int_poly(poly) == text and at_two == (2 if argv[2] == "T" else n + 1)
    elif sub == "gamma":
        ok = bool(handlebody.parse_poly3(text).terms)
    elif sub == "algebra-closure":
        ok = bool(_CLOSURE_TEXT.match(text))
    else:
        slopes = rewrite.SlopeData(*(int(v) for v in argv[1].split("=")[1].split(",")))
        element = rewrite.parse_module_element(text)
        ok = all(rewrite.is_reduced_label(label, slopes) for label, _gen in element.terms)
    return None if ok else "output %r does not re-parse" % text[:80]


# ---------------------------------------------------------------------------


class Workload:
    """The task generator, runner, digest and checks of one workload."""

    def __init__(self, name, build, run, digest, check, check_list=None):
        self.name = name
        self._build = build
        self.run = run
        self.digest = digest
        self.check = check
        self.check_list = check_list or (lambda tasks, outputs: [])

    def tasks(self, seed):
        rng = random.Random("%s/%d" % (self.name, seed))
        tasks = self._build(rng)
        rng.shuffle(tasks)
        return tasks


REGISTRY = {
    "seifert-census": Workload(
        "seifert-census", _seifert_tasks, _run_seifert, _digest_seifert, _check_seifert
    ),
    "boundary-rewrite": Workload(
        "boundary-rewrite", _rewrite_tasks, _run_rewrite, _digest_rewrite, _check_rewrite
    ),
    "handle-slide-quotient": Workload(
        "handle-slide-quotient",
        _quotient_tasks,
        _run_quotient,
        _digest_quotient,
        _check_quotient,
        _check_quotient_list,
    ),
    "cli-queries": Workload("cli-queries", _cli_tasks, _run_cli, _digest_cli, _check_cli),
}


# Field orders the seifert-census mix can reach, closed under the lcm with
# the orders that root_of_unity_with_trace scans and under doubling (square
# roots of traces live one order up). Warm-up fills their tables.
def _warm_orders():
    base = {4, 420, *_SMALL_ORDERS, *itertools.chain(*_TAIL_ORDERS)}
    fiber_orders = {a if b % 2 == 0 else 2 * a for a in range(2, 8) for b in (0, 1)}
    for d in fiber_orders:
        base.add(math.lcm(4, d))
    out = set()
    for m in base:
        for mult in (1, 4, 8, 12, 24):
            out.add(math.lcm(m, mult))
    return sorted(out | {2 * m for m in out if 2 * m <= 840})


WARM_ORDERS = _warm_orders()


def warm_up():
    """Fill the lazy cyclotomic tables (cyclotomic polynomials and power
    rows) for every order the workloads reach, the same for every seed."""
    for m in WARM_ORDERS:
        cyclotomic.root_of_unity(m, m - 1)
