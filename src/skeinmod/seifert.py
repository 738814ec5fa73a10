"""Seifert fibered spaces: presentations, homology, and torsion certificates.

A space is described by its base genus g (negative = non-orientable base of
genus |g|), the number n of boundary tori, and exceptional fibers (beta,
alpha). From that data this module builds the standard fundamental group
presentation, computes H1 by Smith normal form, decides which essential
vertical torus (if any) the case analysis provides, constructs an exact
SL2 representation over a cyclotomic field, and certifies torsion in the
skein module through an exact trace inequality that is re-verified along
an independent evaluation path.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from math import gcd, lcm, prod

from .cyclotomic import MAX_ORDER, CycNum, root_of_unity, trace_roots
from .linalg import smith_normal_form
from .mat2 import (
    Mat2,
    algebra_dim,
    eigenvector,
    is_irreducible,
    sl2_sqrt,
    trace_of_product,
)

# Input limits, checked before anything is built. The Smith normal forms of
# homology and of certify's torus-curve test stay fast up to 64 fibers;
# the fiber cap waits on measurements of the rest of certify past 8 fibers.
# The measurements are in README.md ("Seifert input limits").
MAX_GENUS = 64
MAX_BOUNDARY = 64
MAX_FIBERS = 8


class SeifertData:
    """Base genus, boundary count, and exceptional fibers of a fibered space.

    fibers is a sequence of (beta, alpha) with alpha >= 2 and gcd = 1; g < 0
    means a non-orientable base of genus |g|. Raises TypeError when g, n or
    a fiber entry is not an int (a bool is not), and ValueError when |g|, n
    or the number of fibers exceeds MAX_GENUS, MAX_BOUNDARY or MAX_FIBERS.
    """

    __slots__ = ("g", "n", "fibers")

    def __init__(self, g, n, fibers=()):
        if type(g) is not int or type(n) is not int:
            raise TypeError("genus and boundary count must be integers")
        if abs(g) > MAX_GENUS:
            raise ValueError(f"genus {g} is outside the limit +-{MAX_GENUS}")
        if n < 0:
            raise ValueError("boundary count must be nonnegative")
        if n > MAX_BOUNDARY:
            raise ValueError(f"boundary count {n} exceeds the limit {MAX_BOUNDARY}")
        if len(fibers) > MAX_FIBERS:
            raise ValueError(f"{len(fibers)} fibers exceed the limit {MAX_FIBERS}")
        clean = []
        for beta, alpha in fibers:
            if type(beta) is not int or type(alpha) is not int:
                raise TypeError(f"fiber ({beta!r},{alpha!r}) needs integer entries")
            if alpha < 2:
                raise ValueError(f"fiber ({beta},{alpha}) needs alpha >= 2")
            if gcd(alpha, beta) != 1:
                raise ValueError(f"fiber ({beta},{alpha}) is not coprime")
            clean.append((beta, alpha))
        self.g = g
        self.n = n
        self.fibers = tuple(clean)

    def __eq__(self, other):
        if not isinstance(other, SeifertData):
            return NotImplemented
        return (self.g, self.n, self.fibers) == (other.g, other.n, other.fibers)

    __hash__ = None

    def __repr__(self):
        return f"SeifertData(g={self.g}, n={self.n}, fibers={list(self.fibers)})"


Presentation = namedtuple("Presentation", "generators relators")


class BuildError(Exception):
    """Representation construction failed: the fibers need a certificate
    field above cyclotomic.MAX_ORDER, or a parameter schedule ran out.
    Also raised, as a bug and never for bad input, when a relator fails:
    in build_representation's check of the representation it returns, or
    in reverify_certificate on a certificate certify built."""


def word_inverse(word):
    return tuple((sym, -e) for sym, e in reversed(word))


def word_mul(*words):
    """Concatenate words with free reduction at the seams."""
    out = []
    for w in words:
        for sym, e in w:
            if out and out[-1][0] == sym:
                psym, pe = out.pop()
                if pe + e:
                    out.append((psym, pe + e))
            else:
                out.append((sym, e))
    return tuple(out)


def format_word(word):
    if not word:
        return "1"
    return " ".join(sym if e == 1 else f"{sym}^{e}" for sym, e in word)


def _commutator(x, y):
    return ((x, 1), (y, 1), (x, -1), (y, -1))


def presentation(data):
    """Standard presentation of the fundamental group.

    Orientable base (g >= 0): surface pairs a_i, b_i, fiber loops q_l,
    boundary loops c_j, central fiber h; relators make h central, pin each
    q_l^alpha h^beta, and close up the long product ending in commutators.
    Non-orientable base (g < 0): |g| crosscap loops a_i with a h a^-1 = h^-1,
    and the long product ends in the squares a_i^2.
    """
    qs = [f"q{l + 1}" for l in range(len(data.fibers))]
    cs = [f"c{j + 1}" for j in range(data.n)]
    if data.g >= 0:
        surf = [f"{s}{i + 1}" for i in range(data.g) for s in "ab"]
        rel = [_commutator("h", s) for s in surf]
        tail = tuple(t for a, b in zip(surf[::2], surf[1::2]) for t in _commutator(a, b))
    else:
        surf = [f"a{i + 1}" for i in range(-data.g)]
        rel = [((s, 1), ("h", 1), (s, -1), ("h", 1)) for s in surf]
        tail = tuple((s, 2) for s in surf)
    rel += [_commutator("h", s) for s in cs + qs]
    rel += [((q, alpha), ("h", beta)) for q, (beta, alpha) in zip(qs, data.fibers)]
    rel.append(tuple((s, 1) for s in qs + cs) + tail)
    return Presentation(tuple(surf + qs + cs + ["h"]), tuple(rel))


def _abelianized_rows(pres):
    idx = {s: i for i, s in enumerate(pres.generators)}
    rows = []
    for rel in pres.relators:
        row = [0] * len(pres.generators)
        for sym, e in rel:
            row[idx[sym]] += e
        if any(row):
            rows.append(row)
    return rows


def homology(data):
    """Invariant factors of H1: torsion entries (each > 1) then zeros for
    the free rank."""
    pres = presentation(data)
    rows = _abelianized_rows(pres)
    ncols = len(pres.generators)
    if not rows:
        return [0] * ncols
    diag = smith_normal_form(rows)
    rank = sum(1 for d in diag if d)
    return [d for d in diag if d > 1] + [0] * (ncols - rank)


def _doubled_class_nonzero(data, word):
    # is 2*[word] nonzero in H1? the doubled row lies in the relator lattice
    # exactly when adjoining it changes neither rank nor invariant factors
    pres = presentation(data)
    idx = {s: i for i, s in enumerate(pres.generators)}
    rows = _abelianized_rows(pres)
    v = [0] * len(pres.generators)
    for sym, e in word:
        v[idx[sym]] += 2 * e
    if not any(v):
        return False
    if not rows:
        return True
    before = [d for d in smith_normal_form(rows) if d]
    after = [d for d in smith_normal_form(rows + [v]) if d]
    return before != after


def classify(data):
    """Case tag for the essential-vertical-torus analysis.

    no_essential_torus covers the small bases (disk with <= 2 exceptional
    fibers and their relatives); the two noneffective labels mark cases
    whose torsion argument has no computable witness.
    """
    k = len(data.fibers)
    if data.g > 0 or data.g < -1:
        return "positive_genus"
    if data.g == 0:
        return "sphere_base" if data.n + k >= 4 else "no_essential_torus"
    if data.n + k >= 3:
        return "rp2_base"
    if data.n + k == 2:
        return "closed_haken_noneffective" if data.n == 0 else "rp2_small"
    return "no_essential_torus"


def _det1_power(m, n):
    """m ** n for det m = 1, n != 0, from the trace t by Cayley-Hamilton with
    chebyshev's S (S_0 = 1, S_1 = t): m^n = S_(n-1) m - S_(n-2) I for n >= 2,
    m^n = S_|n| I - S_(|n|-1) m for n < 0. Scalar products only."""
    if n == 1:
        return m
    t = m.trace()
    lo, hi = 1, t  # S_(k-1), S_k
    for _ in range(n - 2 if n > 0 else -n - 1):
        lo, hi = hi, t * hi - lo
    x, y = (hi, -lo) if n > 0 else (-lo, hi)  # m^n = x m + y I
    return Mat2(x * m.a + y, x * m.b, x * m.c, x * m.d + y)


class Representation:
    """Generator images in SL2 over one cyclotomic field.

    All entries are lifted to a common order on construction (at least 4,
    so that i is always available downstream). `units` maps 0, 1 and -1 to
    one CycNum each at that order; every image entry of one of those values
    is that object, and so is every entry of the +-I that an evaluator
    returns for a word that reduces to no letter. `signs` maps each generator
    whose image is exactly +-I (the central fiber h, as a rule) to +1 or -1;
    both word evaluators read a word through `reduced`, so a central letter
    costs nothing, nor does a relator such as [h, g] that reduces to 1.
    """

    __slots__ = ("images", "order", "units", "signs")

    def __init__(self, images):
        order = 4
        for m in images.values():
            order = lcm(order, m.order)
        units = {c: CycNum.rational(c).lift(order) for c in (-1, 0, 1)}

        def entry(e):
            if e.den == 1 and e.num[0] in units and e.is_rational:
                return units[e.num[0]]
            return e.lift(order)

        self.images = {sym: Mat2(*map(entry, m.entries)) for sym, m in images.items()}
        self.order = order
        self.units = units
        self.signs = {
            sym: 1 if m.a == 1 else -1 for sym, m in self.images.items() if m.is_central_sl2()
        }

    def image(self, sym):
        return self.images[sym]

    def reduced(self, word):
        """(sign, letters) with image(word) = sign * image(letters): central
        letters fold into the sign, the others are freely reduced."""
        signs = self.signs
        sign = prod(signs[sym] for sym, e in word if sym in signs and e % 2)
        return sign, word_mul([(sym, e) for sym, e in word if sym not in signs and e])

    def _signed(self, acc, sign):
        if acc is None:  # no letter left: +-I from the shared units
            u = self.units
            return Mat2(u[sign], u[0], u[0], u[sign])
        return -acc if sign < 0 else acc

    def word_image(self, word):
        """Left to right over the reduced letters, each power binary."""
        sign, letters = self.reduced(word)
        acc = None
        for sym, e in letters:
            m = self.images[sym] ** e
            acc = m if acc is None else acc * m
        return self._signed(acc, sign)

    def word_image_alt(self, word):
        """word_image's value in a second order: right to left over the
        reduced letters, one product per letter after the first, each power
        from its trace (`_det1_power`), no inverse. Nothing is cached, so
        the paths share the symbolic reduction but no numeric result. Every
        image must have det 1; reverify_certificate checks that first."""
        sign, letters = self.reduced(word)
        acc = None
        for sym, e in reversed(letters):
            m = _det1_power(self.images[sym], e)
            acc = m if acc is None else m * acc
        return self._signed(acc, sign)

    def satisfies(self, relators, evaluator=None):
        ev = evaluator if evaluator is not None else self.word_image
        ident = Mat2.identity()
        return all(ev(rel) == ident for rel in relators)

    def as_dict(self):
        return {
            "order": self.order,
            "images": {
                sym: [entry.as_dict()["coords"] for entry in m.entries]
                for sym, m in self.images.items()
            },
        }


def _coords_text(x):
    """The certificate's text form of x: its power-basis coordinates, ascending,
    as `c*z<order>^j` summands joined by " + " (`1*z20^4 + -1*z20^6`).

    The golden certificate envelopes and the benchmark's golden digests pin
    the `crossing_trace` side condition in this form, which differs from the
    signed power sum str(x) writes (`-z20^6 + z20^4`).
    """
    terms = [f"{c}*z{x.order}^{j}" if j else str(c) for j, c in enumerate(x.coords) if c]
    return " + ".join(terms) or "0"


class TorsionCertificate:
    """Verified witness that the skein module has torsion.

    kind is one of separating_torus, nonseparating_torus, noneffective_closed,
    noneffective_boundary. Effective kinds carry a representation and a
    witness with two unequal exact traces; noneffective kinds carry only the
    criterion label and checkable side conditions.
    """

    __slots__ = ("kind", "representation", "witness", "criterion_ref", "side_conditions", "verified")

    def __init__(self, kind, representation, witness, criterion_ref, side_conditions, verified=False):
        self.kind = kind
        self.representation = representation
        self.witness = witness
        self.criterion_ref = criterion_ref
        self.side_conditions = side_conditions
        self.verified = verified

    def as_dict(self):
        out = {
            "kind": self.kind,
            "criterion_ref": self.criterion_ref,
            "side_conditions": self.side_conditions,
            "verified": self.verified,
        }
        if self.representation is not None:
            out["representation"] = self.representation.as_dict()
        if self.witness is not None:
            w = {}
            for key, val in self.witness.items():
                if key.startswith("trace"):
                    w[key] = val.as_dict()
                else:
                    w[key] = {"letters": [[s, e] for s, e in val], "text": format_word(val)}
            out["witness"] = w
        return out

    def __repr__(self):
        return f"TorsionCertificate(kind={self.kind!r}, verified={self.verified})"


class NoTorsionResult:
    """Outcome for bases too small to carry an essential vertical torus."""

    __slots__ = ("classification", "message")

    def __init__(self, classification, message):
        self.classification = classification
        self.message = message

    def as_dict(self):
        return {
            "kind": "no_certificate",
            "classification": self.classification,
            "message": self.message,
        }

    def __repr__(self):
        return f"NoTorsionResult({self.classification!r})"


def psi_evaluate(word_list, rep):
    """Product over the words of minus the trace of the image."""
    acc = CycNum.one()
    for w in word_list:
        acc = acc * (-rep.word_image(w).trace())
    return acc


# ---------------------------------------------------------------------------
# representation constructions

_SQRT_TAUS = (-1, 0, 1, -3, 2)  # traces t with t+2 a square of a known cyclotomic
_MAX_CANDIDATES = 512  # chain parameter choices tried per case before BuildError


def _exponent_schedule(order):
    # exponents e with zeta^e != +-1; the quarter turn first since a trace of
    # zero is the friendliest value downstream
    cands = [order // 4, 1, 2, 3, 4, 5]
    out = []
    seen = set()
    for e in cands:
        r = e % order
        if r in (0, order // 2) or r in seen:
            continue
        seen.add(r)
        out.append(e)
    return out


def _fiber_orders(data):
    # q_l must have eigenvalue order alpha (beta even) or 2*alpha (beta odd)
    # so that q^alpha equals h^-beta = (-1)^beta
    return [alpha if beta % 2 == 0 else 2 * alpha for beta, alpha in data.fibers]


def _root(order, e):
    # zeta_order^e in its minimal cyclotomic field, to keep coordinate
    # vectors short when e shares a factor with the order
    e %= order
    if e == 0:
        return CycNum.one()
    d = gcd(e, order)
    return root_of_unity(order // d, e // d)


def _root_trace(order, e):
    return _root(order, e) + _root(order, -e)


class _Skip(Exception):
    """Internal: this parameter choice cannot complete, try the next one."""


def _recognized_eigenvalue(trace):
    """(mu, mu^-1) for a root of unity mu != +-1 with mu + mu^-1 = trace."""
    roots = trace_roots(trace)
    if roots is None or roots[0] == 1 or roots[0] == -1:
        raise _Skip
    return roots


def _extend_chain(p_prev, mu, muinv, letter_trace, target_trace):
    """(letter, e, e^-1): the next chain letter, with trace letter_trace and
    product trace with the running partial product equal to target_trace,
    and the eigenframe e of the partial product (columns: eigenvectors for
    mu and muinv, so e^-1 p_prev e is diagonal) with its inverse. mu and
    muinv must be the eigenvalues of the partial product, with mu != muinv,
    both at one order (as trace_roots gives them)."""
    inv = (mu - muinv).inverse()
    a = (target_trace - muinv * letter_trace) * inv
    d = (mu * letter_trace - target_trace) * inv
    local = Mat2(a, 1, a * d - 1, d)
    e, e_inv = _eigenframe(p_prev, mu, muinv, inv)
    return e * local * e_inv, e, e_inv


def _eigenframe(p, mu, muinv, inv):
    """(e, e^-1) for the eigenframe e = [[x1, x2], [1, 1]] of the det-1
    matrix p = [[a, b], [c, d]] with eigenvalues mu != muinv, given inv =
    1/(mu - muinv): the matrices, entries and orders that eigenvector and
    Mat2.inverse give, from one field inverse, of c.

    (a - mu)(a - muinv) = a^2 - a(a + d) + 1 = -bc, so eigenvector's
    -b/(a - mu) and -b/(a - muinv) are x1 = (a - muinv)/c and x2 =
    (a - mu)/c, at the same order when b and c have one order. det e =
    x1 - x2 = (mu - muinv)/c, so e^-1 = c inv [[1, -x2], [-1, x1]], each
    entry at the order of x1 as Mat2.inverse leaves it. When b or c is
    zero (then a is mu or muinv) or their orders differ, e comes from
    eigenvector and e^-1 from Mat2.inverse.
    """
    b, c = p.b, p.c
    if b.is_zero or c.is_zero or b.order != c.order or mu.order != muinv.order:
        e = Mat2.from_columns(eigenvector(p, mu), eigenvector(p, muinv))
        return e, e.inverse()
    cinv = c.inverse()
    x1 = (p.a - muinv) * cinv
    x2 = (p.a - mu) * cinv
    s = (c * inv).lift(x1.order)
    one = CycNum.one()
    return Mat2(x1, x2, one, one), Mat2(s, -(x2 * s), -s, x1 * s)


_ChainLayout = namedtuple("_ChainLayout", "chain delta side1 side2")


def _chain_layout(data, case):
    """The letter order, and the torus word chain[0] chain[1] with the
    generators on its two sides (None for rp2_small, with no torus pair)."""
    qs = [f"q{l + 1}" for l in range(len(data.fibers))]
    cs = [f"c{j + 1}" for j in range(data.n)]
    if case == "rp2_small":
        return _ChainLayout(qs + cs, None, None, None)  # relator order
    chain = cs + qs  # the boundary loops rotated to the front
    side2 = chain[2:] + (["a1"] if case == "rp2_base" else [])
    return _ChainLayout(chain, ((chain[0], 1), (chain[1], 1)), chain[:2], side2)


def _chain_candidates(data, case, layout):
    """Representations for the sphere_base / rp2_base / rp2_small chains.

    Yields (rep, assignment, irreducible_pair) for every parameter choice
    that completes; the pair is None for rp2_small. In the separating cases
    every non-central image is in the torus frame, where delta's image is
    diagonal. The relators hold by construction and are not evaluated here:
    reverify_certificate checks them on every certificate certify returns,
    and build_representation on the one representation it returns. The
    schedule is deterministic and capped at _MAX_CANDIDATES. Raises
    BuildError before the search when the field that the fiber letters need
    is above cyclotomic.MAX_ORDER.
    """
    d_orders = _fiber_orders(data)
    field_order = lcm(4, *d_orders)
    if field_order > MAX_ORDER:
        raise BuildError(
            f"fibers {list(data.fibers)} need a certificate field of order "
            f"{field_order} = lcm(4, {', '.join(map(str, d_orders))}), "
            f"above the limit {MAX_ORDER}"
        )
    m = len(layout.chain)
    d_by_sym = {f"q{l + 1}": d for l, d in enumerate(d_orders)}
    exps = _exponent_schedule(field_order)

    # schedule slots; the rightmost slot cycles fastest under product()
    slots = []
    for sym in layout.chain:
        if sym not in d_by_sym:
            slots.append((f"trace_{sym}", exps))
    if case == "sphere_base":
        sched_range = range(3, m - 1)  # the step at m-1 is forced to t_m
    elif case == "rp2_base":
        sched_range = range(3, m)  # the step at m takes the sqrt-friendly slot
    else:
        sched_range = range(0)
    for j in sched_range:
        slots.append((f"tau_{j}", exps))
    if case == "rp2_base":
        slots.append(("final_tau", list(_SQRT_TAUS)))
    if case == "rp2_small":
        s_cands = [("raw", 1), ("raw", 2)] + [("target_tau", t) for t in _SQRT_TAUS]
    else:
        s_cands = [("raw", 1), ("raw", 2)] + [("target_exp", e) for e in exps]
    slots.append(("s", s_cands))

    names = [name for name, _ in slots]
    spaces = [cands for _, cands in slots]
    for combo in itertools.islice(itertools.product(*spaces), _MAX_CANDIDATES):
        assign = dict(zip(names, combo))
        try:
            rep, pair = _attempt_chain(data, case, layout, d_by_sym, field_order, assign)
        except _Skip:
            continue
        yield rep, assign, pair


def _attempt_chain(data, case, layout, d_by_sym, field_order, assign):
    chain = layout.chain
    m = len(chain)
    traces = [
        _root_trace(d_by_sym[sym], 1) if sym in d_by_sym
        else _root_trace(field_order, assign[f"trace_{sym}"])
        for sym in chain
    ]

    # the first two letters, from the eigenvalues their traces give
    eta1, eta1inv = _recognized_eigenvalue(traces[0])
    eta2, eta2inv = _recognized_eigenvalue(traces[1])
    base = eta1 * eta2 + eta1inv * eta2inv
    s_kind, s_val = assign["s"]
    if s_kind == "raw":
        s = CycNum.rational(s_val)
    elif s_kind == "target_tau":
        s = CycNum.rational(s_val) - base
    else:  # target_exp: aim the product trace at a scheduled root of unity
        s = _root_trace(field_order, s_val) - base
    p1 = Mat2(eta1, 1, 0, eta1inv)
    p2 = Mat2(eta2, 0, s, eta2inv)
    letters = [p1, p2]
    partial = p1 * p2

    for j in range(3, m + 1):
        letter_trace = traces[j - 1]
        if case == "sphere_base" and j == m:
            # step m - 1 forced tr(partial) = t_m, and tr P^-1 = tr P in SL2
            letters.append(partial.inverse())
            break
        if case == "sphere_base" and j == m - 1:
            target = traces[m - 1]  # force the product trace to the last letter's
        elif case == "rp2_base" and j == m:
            target = CycNum.rational(assign["final_tau"])
        else:
            target = _root_trace(field_order, assign[f"tau_{j}"])
        mu, muinv = _recognized_eigenvalue(partial.trace())
        nxt, e, e_inv = _extend_chain(partial, mu, muinv, letter_trace, target)
        if j == 3:
            # partial is p1 p2, the torus image: e diagonalizes it
            frame, frame_inv = e, e_inv
        letters.append(nxt)
        partial = partial * nxt

    images = {sym: mat for sym, mat in zip(chain, letters)}
    images["h"] = -Mat2.identity()

    if case in ("rp2_base", "rp2_small"):
        try:
            root = sl2_sqrt(partial.inverse())
        except ValueError:
            raise _Skip from None
        if case == "rp2_base" and data.n and data.fibers:
            # the chain was rotated: conjugate the square root back
            u = images["q1"]
            for l in range(1, len(data.fibers)):
                u = u * images[f"q{l + 1}"]
            root = u * root * u.inverse()
        images["a1"] = root

    if case == "rp2_small":
        return Representation(images), None
    # commutator determinants are the same in every frame and at every order
    pair = _irreducible_pair(images, layout.side1 + layout.side2)
    if pair is None:
        raise _Skip
    # a central image commutes with the frame and is kept as it is
    return Representation(
        {sym: mat if mat.is_central_sl2() else frame_inv * mat * frame for sym, mat in images.items()}
    ), pair


def _irreducible_pair(images, syms):
    mats = [images[s] for s in syms]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if is_irreducible(mats[i], mats[j]):
                return [syms[i], syms[j]]
    return None


def _diagonal_representation(data):
    """(rep, gammas, delta) for positive_genus: every generator maps to
    diag(lambda^e, lambda^-e), lambda = zeta_5, for an exponent vector
    orthogonal to the abelianized relators. Diagonal images commute, so the
    image of a word depends only on its exponent sums, and the integer check
    that the vector misses every abelianized relator proves every relator;
    none is evaluated. gammas are the candidate torus curves and delta the
    crossing curve, whose witness traces already differ at zeta_5."""
    pres = presentation(data)
    exponents = {sym: 0 for sym in pres.generators}
    if data.g > 0:
        exponents["a1"] = 1
        exponents["b1"] = 1
        gammas = [(("a1", 1),)]
        delta = (("b1", 1),)
    else:  # g < -1
        exponents["a1"] = 1
        exponents["a2"] = -1
        gammas = [(("a1", 1), ("a2", -1)), (("a1", 1), ("a2", 1))]
        delta = (("a1", 1),)
    idx = {s: i for i, s in enumerate(pres.generators)}
    for row in _abelianized_rows(pres):
        if sum(row[idx[s]] * e for s, e in exponents.items()):
            raise BuildError("exponent vector misses the abelianized relators")
    rep = Representation(
        {
            sym: Mat2.diagonal(root_of_unity(5, e), root_of_unity(5, -e))
            for sym, e in exponents.items()
        }
    )
    return rep, gammas, delta


def _first_chain_candidate(data, case, layout):
    for candidate in _chain_candidates(data, case, layout):
        return candidate
    raise BuildError(f"parameter schedule exhausted for case {case!r}")


def build_representation(data, case):
    """The representation the certificate for the case is built on: the
    diagonal one for positive_genus, else the first in the chain schedule,
    which certify takes as it is unless it yields no certificate.

    Raises BuildError when the schedule is exhausted, and also when a
    relator fails under word_image on the representation returned (that
    one indicates a bug, not bad input). Certify does not call this: it
    checks the relators once, in reverify_certificate.
    """
    if case == "positive_genus":
        rep = _diagonal_representation(data)[0]
    elif case in ("sphere_base", "rp2_base", "rp2_small"):
        rep = _first_chain_candidate(data, case, _chain_layout(data, case))[0]
    else:
        raise ValueError(f"no representation construction for case {case!r}")
    if not rep.satisfies(presentation(data).relators):
        raise BuildError(f"relation verification failed for case {case!r}")
    return rep


# ---------------------------------------------------------------------------
# certification

def _loop_words(syms):
    singles = []
    for s in syms:
        singles.append(((s, 1),))
        singles.append(((s, -1),))
    words = list(singles)
    for w1 in singles:
        for w2 in singles:
            w = word_mul(w1, w2)
            if w and w not in words:
                words.append(w)
    return words


def _word_witness(rep, side1, side2, delta_word):
    # no gamma h: h maps to -I, which negates both traces, so gamma h hits
    # exactly when gamma does, and gamma is tried first
    gammas = [delta_word, word_inverse(delta_word)]
    gamma_mats = [rep.word_image(g) for g in gammas]
    for x1 in _loop_words(side1):
        m1 = rep.word_image(x1)
        for x2 in _loop_words(side2):
            m2 = rep.word_image(x2)
            m12 = m1 * m2
            for gw, mg in zip(gammas, gamma_mats):
                # tr(m1 m2 mg) and tr(m1 mg m2), as the full products give them
                fwd = trace_of_product(m12, mg)
                swp = trace_of_product(m1 * mg, m2)
                if not (fwd == swp):
                    return x1, x2, gw, fwd, swp
    return None


def reverify_certificate(cert, data):
    """Re-check a certificate from scratch: every image has det 1 (first, as
    word_image_alt assumes it), every relator holds under that alternate
    evaluation order, and the witness traces are reproduced and differ."""
    rep = cert.representation
    if rep is not None:
        pres = presentation(data)
        for m in rep.images.values():
            if not (m.det() == 1):
                return False
        if not rep.satisfies(pres.relators, evaluator=rep.word_image_alt):
            return False
    w = cert.witness
    if w is None:
        return cert.kind in ("noneffective_closed", "noneffective_boundary")
    if cert.kind == "separating_torus":
        fwd = rep.word_image_alt(word_mul(w["x1"], w["x2"], w["gamma"])).trace()
        swp = rep.word_image_alt(word_mul(w["x1"], w["gamma"], w["x2"])).trace()
    elif cert.kind == "nonseparating_torus":
        fwd = rep.word_image_alt(word_mul(w["gamma"], w["delta"])).trace()
        swp = rep.word_image_alt(word_mul(word_inverse(w["gamma"]), w["delta"])).trace()
    else:
        return False
    if fwd == swp:
        return False
    return fwd == w["trace_fwd"] and swp == w["trace_swapped"]


def _reverified(cert, data, attempt):
    """cert, marked verified, once reverify_certificate accepts it. That is
    the only relator check certify makes, and the construction makes every
    check true, so a failure is a bug: BuildError names the attempt."""
    if not reverify_certificate(cert, data):
        raise BuildError(f"certificate for {attempt} failed re-verification")
    cert.verified = True
    return cert


def _separating_certificate(data, case):
    layout = _chain_layout(data, case)
    for rep, assign, pair in _chain_candidates(data, case, layout):
        dims = [algebra_dim([rep.image(s) for s in side]) for side in (layout.side1, layout.side2)]
        if min(dims) < 3:
            continue
        hit = _word_witness(rep, layout.side1, layout.side2, layout.delta)
        if hit is None:
            continue
        x1, x2, gamma, fwd, swp = hit
        cert = TorsionCertificate(
            kind="separating_torus",
            representation=rep,
            witness={"x1": x1, "x2": x2, "gamma": gamma, "trace_fwd": fwd, "trace_swapped": swp},
            criterion_ref="separating vertical torus trace criterion",
            side_conditions={
                "classification": case,
                "irreducible_pair": pair,
                "side_algebra_dims": dims,
                # at j = 3 _recognized_eigenvalue skips every p1 p2 of trace
                # +-2, so the torus image has distinct eigenvalues
                "torus_algebra": "D",
                "torus_image_noncentral": True,
            },
        )
        return _reverified(cert, data, f"{case} with assignment {assign!r}")
    raise BuildError(f"parameter schedule exhausted for case {case!r}")


def _nonseparating_certificate(data):
    rep, gammas, delta = _diagonal_representation(data)
    for gamma in gammas:
        if not _doubled_class_nonzero(data, gamma):
            continue
        fwd = rep.word_image(word_mul(gamma, delta)).trace()
        swp = rep.word_image(word_mul(word_inverse(gamma), delta)).trace()
        cert = TorsionCertificate(
            kind="nonseparating_torus",
            representation=rep,
            witness={"gamma": gamma, "delta": delta, "trace_fwd": fwd, "trace_swapped": swp},
            criterion_ref="nonseparating vertical torus trace criterion",
            side_conditions={
                "classification": "positive_genus",
                "torus_curve_doubled_class_nonzero": True,
                "crossing_trace": _coords_text(rep.word_image(delta).trace()),
            },
        )
        return _reverified(cert, data, f"positive_genus with gamma = {format_word(gamma)}")
    raise BuildError("no candidate torus curve has a nonzero doubled class")


def certify(data):
    """Torsion certificate for the space, or NoTorsionResult when the case
    analysis provides no essential vertical torus."""
    case = classify(data)
    if case == "no_essential_torus":
        return NoTorsionResult(case, "no torsion claimed by these criteria")
    if case == "closed_haken_noneffective":
        return TorsionCertificate(
            kind="noneffective_closed",
            representation=None,
            witness=None,
            criterion_ref="closed Haken double-branched criterion (non-constructive)",
            side_conditions={"classification": case, "homology": homology(data)},
            verified=True,
        )
    if case == "rp2_small":
        layout = _chain_layout(data, case)
        rep, assign, _pair = _first_chain_candidate(data, case, layout)
        cert = TorsionCertificate(
            kind="noneffective_boundary",
            representation=rep,
            witness=None,
            criterion_ref="independent boundary trace functions criterion (non-constructive)",
            side_conditions={
                "classification": case,
                "homology": homology(data),
                "independent_trace_loops": layout.chain,
            },
        )
        return _reverified(cert, data, f"{case} with assignment {assign!r}")
    if case == "positive_genus":
        return _nonseparating_certificate(data)
    return _separating_certificate(data, case)
