"""Seifert data, group presentations, homology, and torsion certificates."""

import hashlib
import json
import math
import operator
import random
import time
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from skeinmod import cyclotomic, linalg, mat2, seifert
from skeinmod.cyclotomic import CycNum, root_of_unity
from skeinmod.linalg import bareiss_rank, smith_normal_form
from skeinmod.mat2 import Mat2, algebra_closure, standardize_pair
from skeinmod.seifert import (
    BuildError,
    NoTorsionResult,
    Representation,
    SeifertData,
    TorsionCertificate,
    build_representation,
    certify,
    classify,
    format_word,
    homology,
    presentation,
    psi_evaluate,
    reverify_certificate,
    word_inverse,
    word_mul,
)

FIVE_INSTANCES = [
    SeifertData(0, 0, [(1, 2), (1, 2), (1, 3), (1, 3)]),
    SeifertData(0, 0, [(1, 2), (1, 3), (1, 5), (1, 7)]),
    SeifertData(-1, 0, [(1, 2), (1, 3), (1, 3)]),
    SeifertData(1, 0, []),
    SeifertData(2, 1, [(1, 2)]),
]


def seifert_datas(max_fibers=4):
    fibers = st.lists(
        st.tuples(st.integers(-5, 5), st.integers(2, 5)).filter(
            lambda f: __import__("math").gcd(f[0], f[1]) == 1
        ),
        max_size=max_fibers,
    )
    return st.builds(SeifertData, st.integers(-2, 2), st.integers(0, 2), fibers)


# ---------------------------------------------------------------------------
# data and words


def test_data_validation():
    d = SeifertData(0, 1, [(1, 2)])
    assert d.fibers == ((1, 2),)
    with pytest.raises(ValueError):
        SeifertData(0, 0, [(1, 1)])
    with pytest.raises(ValueError):
        SeifertData(0, 0, [(2, 4)])
    with pytest.raises(ValueError):
        SeifertData(0, -1)
    with pytest.raises(TypeError):
        SeifertData(0.0, 0)


@pytest.mark.parametrize(
    "fiber", [(1, 2.5), (1.0, 3), ("1", "3"), (True, 2), (1, Fraction(3))], ids=repr
)
def test_fiber_entries_must_be_ints(fiber):
    # no entry is truncated or converted: (1, 2.5) is not the fiber (1, 2)
    with pytest.raises(TypeError, match="needs integer entries"):
        SeifertData(0, 0, [(1, 3), fiber])


def test_genus_and_boundary_count_must_not_be_bools():
    for g, n in ((True, 0), (0, False)):
        with pytest.raises(TypeError, match="genus and boundary count"):
            SeifertData(g, n)


class _HugeFibers:
    # claims more fibers than the cap and fails if anything reads one
    def __len__(self):
        return seifert.MAX_FIBERS + 1

    def __iter__(self):
        raise AssertionError("fibers were read past the cap")


def test_input_caps_fire_before_anything_is_built(monkeypatch):
    def unreachable(*args):
        raise AssertionError("built past the cap")

    monkeypatch.setattr(seifert, "presentation", unreachable)
    monkeypatch.setattr(seifert, "smith_normal_form", unreachable)
    g, n = seifert.MAX_GENUS, seifert.MAX_BOUNDARY
    cases = [(g + 1, 0, ()), (-g - 1, 0, ()), (10**18, 0, ()), (0, n + 1, ()),
             (0, 10**18, ()), (0, 0, _HugeFibers())]
    for genus, boundary, fibers in cases:
        with pytest.raises(ValueError, match="limit"):
            homology(SeifertData(genus, boundary, fibers))
    # the caps themselves are admitted
    data = SeifertData(-g, n, [(1, 2)] * seifert.MAX_FIBERS)
    assert (data.g, data.n, len(data.fibers)) == (-g, n, seifert.MAX_FIBERS)


def test_word_helpers():
    w = (("a", 1), ("b", -2))
    assert word_inverse(w) == (("b", 2), ("a", -1))
    assert word_mul(w, word_inverse(w)) == ()
    assert word_mul((("a", 2),), (("a", -1),)) == (("a", 1),)
    assert word_mul((("a", 1),), (("b", 1),)) == (("a", 1), ("b", 1))
    assert format_word(w) == "a b^-2"
    assert format_word(()) == "1"


@given(st.lists(st.tuples(st.sampled_from("abc"), st.integers(-2, 2).filter(bool)), max_size=6))
def test_word_inverse_cancels(letters):
    w = word_mul(tuple((s, e) for s, e in letters))
    assert word_mul(w, word_inverse(w)) == ()
    assert word_inverse(word_inverse(w)) == w


# ---------------------------------------------------------------------------
# presentations


def test_presentation_orientable():
    pres = presentation(SeifertData(0, 0, [(1, 2), (1, 3)]))
    assert pres.generators == ("q1", "q2", "h")
    # two centrality relators, two fiber relators, one long relator
    assert len(pres.relators) == 5
    assert (("q1", 2), ("h", 1)) in pres.relators
    assert (("q1", 1), ("q2", 1)) in pres.relators


def test_presentation_with_genus_and_boundary():
    pres = presentation(SeifertData(1, 1, [(1, 2)]))
    assert pres.generators == ("a1", "b1", "q1", "c1", "h")
    long = pres.relators[-1]
    assert long[:2] == (("q1", 1), ("c1", 1))
    assert long[2:] == (("a1", 1), ("b1", 1), ("a1", -1), ("b1", -1))


def test_presentation_nonorientable():
    pres = presentation(SeifertData(-1, 0, [(1, 2)]))
    assert pres.generators == ("a1", "q1", "h")
    assert (("a1", 1), ("h", 1), ("a1", -1), ("h", 1)) in pres.relators
    assert pres.relators[-1] == (("q1", 1), ("a1", 2))


# ---------------------------------------------------------------------------
# homology


HOMOLOGY_ANCHORS = [
    (SeifertData(1, 0, []), [0, 0, 0]),
    (SeifertData(0, 0, [(1, 2), (1, 2), (1, 3), (1, 3)]), [60]),
    (SeifertData(0, 0, [(1, 2), (1, 3), (1, 5), (1, 7)]), [247]),
    (SeifertData(-1, 0, [(1, 2), (1, 3), (1, 3)]), [3, 24]),
    (SeifertData(2, 1, [(1, 2)]), [0, 0, 0, 0, 0]),
    (SeifertData(-1, 0, [(1, 2), (1, 3)]), [24]),
    (SeifertData(-1, 1, [(1, 2)]), [4, 0]),
    (SeifertData(0, 0, [(1, 2), (1, 2), (1, 2), (1, 2)]), [2, 2, 8]),
    (SeifertData(-2, 0, [(1, 2)]), [8, 0]),
]


@pytest.mark.parametrize("data,expected", HOMOLOGY_ANCHORS, ids=repr)
def test_homology_anchors(data, expected):
    # closed orientable sphere-base cases double as an oracle: the order of
    # the torsion equals |alpha1*...*alphak * sum(beta/alpha)|
    assert homology(data) == expected


def test_homology_order_oracle():
    import math
    from fractions import Fraction

    for data, expected in HOMOLOGY_ANCHORS:
        if data.g != 0 or data.n != 0 or not data.fibers:
            continue
        e = sum(Fraction(b, a) for b, a in data.fibers)
        prod = math.prod(a for _b, a in data.fibers)
        assert math.prod(expected) == abs(prod * e)


@given(seifert_datas())
@settings(max_examples=60, deadline=None)
def test_homology_fiber_permutation_invariance(data):
    perm = SeifertData(data.g, data.n, tuple(reversed(data.fibers)))
    assert homology(data) == homology(perm)


@given(seifert_datas())
@settings(max_examples=60, deadline=None)
def test_homology_divisibility_chain(data):
    inv = homology(data)
    torsion = [d for d in inv if d]
    for x, y in zip(torsion, torsion[1:]):
        assert y % x == 0
    assert all(d == 0 for d in inv[len(torsion):])


def _relator_rows(data, keep_zero_rows=False):
    # the abelianized relators of the public presentation, in presentation
    # order; without the zero rows that the commutators give, this is the
    # matrix homology reduces
    pres = presentation(data)
    idx = {s: i for i, s in enumerate(pres.generators)}
    rows = []
    for rel in pres.relators:
        row = [0] * len(pres.generators)
        for sym, e in rel:
            row[idx[sym]] += e
        if keep_zero_rows or any(row):
            rows.append(row)
    return rows


def _sympy_factors(rows):
    sm = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
    return [abs(int(sm[i, i])) for i in range(min(sm.shape)) if sm[i, i]]


def _random_fibers(seed, count=16, max_order=1000):
    rng = random.Random(seed)
    fibers = []
    while len(fibers) < count:
        alpha = rng.randint(2, max_order)
        beta = rng.randint(1, alpha - 1)
        if math.gcd(alpha, beta) == 1:
            fibers.append((beta, alpha))
    return fibers


def test_smith_form_stays_fast_past_the_fiber_cap(monkeypatch):
    # bases of either orientation with more fibers than MAX_FIBERS: an
    # elimination that let its entries grow took 0.7 s to over 10 s on most
    monkeypatch.setattr(seifert, "MAX_FIBERS", 64)
    spaces = [(SeifertData(-1, 0, [(1, 2 + i % 12) for i in range(k)]), k == 32) for k in (32, 64)]
    spaces += [(SeifertData(-64, 64, _random_fibers(seed)), False) for seed in (0, 2, 4)]
    spaces += [(SeifertData(64, 64, _random_fibers(seed, count=32)), True) for seed in (0, 1, 2)]
    spaces.append((SeifertData(-64, 0, _random_fibers(0, count=32)), True))
    cases = [(data, _relator_rows(data), against_sympy) for data, against_sympy in spaces]
    # the 64-fiber RP^2 base again, its zero commutator rows left in place
    one_crosscap = spaces[1][0]
    cases.append((one_crosscap, _relator_rows(one_crosscap, keep_zero_rows=True), True))
    for data, rows, against_sympy in cases:
        start = time.perf_counter()
        diag = smith_normal_form(rows)
        assert time.perf_counter() - start < 1.0, data
        nonzero = [d for d in diag if d]
        assert len(nonzero) == bareiss_rank(rows)
        assert all(y % x == 0 for x, y in zip(nonzero, nonzero[1:]))
        if against_sympy:
            assert nonzero == _sympy_factors(rows)


@st.composite
def nonorientable_spaces(draw):
    fiber = st.tuples(st.integers(-30, 30), st.integers(2, 30)).filter(lambda f: math.gcd(*f) == 1)
    fibers = draw(st.lists(fiber, max_size=16))
    with mock.patch.object(seifert, "MAX_FIBERS", 16):
        return SeifertData(draw(st.integers(-3, -1)), draw(st.integers(0, 3)), fibers)


@given(nonorientable_spaces())
@settings(max_examples=40, deadline=None)
def test_smith_form_of_nonorientable_relators_matches_sympy(data):
    rows = _relator_rows(data)
    assert [d for d in smith_normal_form(rows) if d] == _sympy_factors(rows)


# ---------------------------------------------------------------------------
# classification


def test_classification_table():
    assert classify(SeifertData(0, 0, [(1, 2), (1, 3), (1, 5)])) == "no_essential_torus"
    assert classify(SeifertData(0, 2, [])) == "no_essential_torus"
    assert classify(SeifertData(0, 1, [(1, 2)])) == "no_essential_torus"
    assert classify(SeifertData(0, 0, [(1, 2)] * 4)) == "sphere_base"
    assert classify(SeifertData(0, 2, [(1, 2), (1, 3)])) == "sphere_base"
    assert classify(SeifertData(1, 0, [])) == "positive_genus"
    assert classify(SeifertData(-2, 0, [])) == "positive_genus"
    assert classify(SeifertData(-1, 0, [(1, 2), (1, 3), (1, 3)])) == "rp2_base"
    assert classify(SeifertData(-1, 0, [(1, 2), (1, 3)])) == "closed_haken_noneffective"
    assert classify(SeifertData(-1, 1, [(1, 2)])) == "rp2_small"
    assert classify(SeifertData(-1, 0, [(1, 2)])) == "no_essential_torus"
    assert classify(SeifertData(-1, 0, [])) == "no_essential_torus"


# ---------------------------------------------------------------------------
# representations


@pytest.mark.parametrize("data", FIVE_INSTANCES, ids=repr)
def test_representation_satisfies_relators(data):
    rep = build_representation(data, classify(data))
    pres = presentation(data)
    assert rep.satisfies(pres.relators)
    assert rep.satisfies(pres.relators, evaluator=rep.word_image_alt)
    for m in rep.images.values():
        assert m.det() == 1


def test_representation_common_order():
    rep = Representation({"x": Mat2.diagonal(1, 1)})
    assert rep.order == 4  # i must stay available
    assert rep.word_image((("x", 3),)) == Mat2.identity()


def test_word_image_paths_agree():
    data = FIVE_INSTANCES[0]
    rep = build_representation(data, classify(data))
    pres = presentation(data)
    for rel in pres.relators:
        assert rep.word_image(rel) == rep.word_image_alt(rel)
    w = (("q1", 2), ("h", -1), ("q2", 1))
    assert rep.word_image(w) == rep.word_image_alt(w)


def test_empty_word_image_is_the_identity():
    rep = build_representation(FIVE_INSTANCES[0], "sphere_base")
    assert rep.word_image(()) == Mat2.identity()
    assert rep.word_image_alt(()) == Mat2.identity()
    # a zero exponent is the identity on both paths, also as the only letter
    for ev in (rep.word_image, rep.word_image_alt):
        assert ev((("q1", 0),)) == Mat2.identity()
        assert ev((("q2", 1), ("q1", 0), ("q2", -1))) == Mat2.identity()


@pytest.fixture
def mat2_products(monkeypatch):
    """A list that grows by one entry per Mat2 product taken."""
    calls = []
    plain = Mat2.__mul__

    def counted(self, other):
        if isinstance(other, Mat2):
            calls.append(1)
        return plain(self, other)

    monkeypatch.setattr(Mat2, "__mul__", counted)
    return calls


def test_no_wasted_products_in_powers_and_word_images(mat2_products):
    rep = build_representation(FIVE_INSTANCES[0], "sphere_base")
    m = rep.image("q1")

    def products(fn, *args):
        mat2_products.clear()
        value = fn(*args)
        return len(mat2_products), value

    assert products(lambda: m ** 1) == (0, m)
    assert products(lambda: m ** 8)[0] == 3
    assert products(rep.word_image, (("q1", 1),))[0] == 0
    assert products(rep.word_image, (("q1", -1),))[0] == 0
    letters = (("q1", 1), ("q2", -1), ("h", 1), ("q3", 1), ("q4", -1), ("q1", -1))
    for k in range(1, len(letters) + 1):
        count, value = products(rep.word_image, letters[:k])
        # h maps to -I: a sign, not a product
        assert count == sum(1 for sym, _ in letters[:k] if sym != "h") - 1
        assert value == rep.word_image_alt(letters[:k])


@pytest.fixture
def mat2_inverses(monkeypatch):
    """A list that grows by one entry per Mat2.inverse call."""
    calls = []
    plain = Mat2.inverse

    def counted(self):
        calls.append(1)
        return plain(self)

    monkeypatch.setattr(Mat2, "inverse", counted)
    return calls


def test_alternate_path_costs_one_product_per_letter_step(mat2_products, mat2_inverses):
    rep = build_representation(FIVE_INSTANCES[0], "sphere_base")
    assert rep.signs == {"h": -1}
    letters = (("q1", 2), ("h", 3), ("q2", -1), ("q3", 1), ("h", -1), ("q4", -3), ("q1", -1))
    for k in range(1, len(letters) + 1):
        word = letters[:k]
        mat2_products.clear()
        mat2_inverses.clear()
        value = rep.word_image_alt(word)
        # each power comes from its letter's trace: no inverse, and one
        # product per non-central letter of the reduced word after the first
        moving = word_mul([(sym, e) for sym, e in word if sym != "h"])
        assert len(mat2_products) == len(moving) - 1
        assert len(mat2_inverses) == 0
        assert value == rep.word_image(word)


def test_relators_that_reduce_to_the_empty_word_cost_nothing(mat2_products, mat2_inverses):
    sphere = build_representation(FIVE_INSTANCES[0], "sphere_base")
    rp2 = build_representation(FIVE_INSTANCES[2], "rp2_base")
    cases = [
        (sphere, (("h", 1), ("q1", 1), ("h", -1), ("q1", -1))),
        (rp2, (("a1", 1), ("h", 1), ("a1", -1), ("h", 1))),
    ]
    for rep, relator in cases:
        assert rep.reduced(relator) == (1, ())
        for ev in (rep.word_image, rep.word_image_alt):
            mat2_products.clear()
            mat2_inverses.clear()
            assert ev(relator) == Mat2.identity()
            assert (len(mat2_products), len(mat2_inverses)) == (0, 0)
    # the forward path keeps binary powers; the alternate one takes none
    for ev, products in ((sphere.word_image, 3), (sphere.word_image_alt, 0)):
        mat2_products.clear()
        ev((("q1", 8),))
        assert len(mat2_products) == products


def _plain_word_image(rep, word):
    # reference: right to left, one letter at a time with no free
    # reduction, central letters folded into a sign, Mat2.inverse for
    # negative exponents
    acc, sign = None, 1
    for sym, e in reversed(word):
        if sym in rep.signs:
            if e % 2:
                sign *= rep.signs[sym]
            continue
        m = rep.images[sym]
        if e < 0:
            m = m.inverse()
            e = -e
        if acc is None:
            acc = m
            e -= 1
        for _ in range(e):
            acc = m * acc
    return rep._signed(acc, sign)


def _random_word(rng, syms, central, length):
    exps = [e for e in range(-13, 14) if e]
    word = []
    while len(word) < length:
        kind = rng.random()
        if kind < 0.2:
            word.append((rng.choice(central), rng.choice(exps)))
        elif kind < 0.4:  # a cancelling pair, reduced away by both paths
            sym, e = rng.choice(syms), rng.choice(exps)
            word += [(sym, e), (sym, -e)]
        else:
            word.append((rng.choice(syms), rng.choice(exps)))
    return tuple(word)


@pytest.mark.parametrize("data", [FIVE_INSTANCES[0], FIVE_INSTANCES[4]], ids=repr)
def test_word_images_match_the_plain_product_on_random_words(data):
    rep = build_representation(data, classify(data))
    central = sorted(rep.signs)
    syms = sorted(set(rep.images) - set(rep.signs))
    assert central and syms
    rng = random.Random(1)
    for _ in range(25):
        word = _random_word(rng, syms, central, rng.randint(0, 7))
        want = _entry_dicts(_plain_word_image(rep, word))
        assert _entry_dicts(rep.word_image(word)) == want
        assert _entry_dicts(rep.word_image_alt(word)) == want


def test_all_central_words_are_signed_identities():
    rep = build_representation(FIVE_INSTANCES[0], "sphere_base")
    for word, sign in (((("h", 1),), -1), ((("h", 2),), 1), ((("h", -3), ("h", 2)), -1)):
        for ev in (rep.word_image, rep.word_image_alt):
            value = ev(word)
            assert value == Mat2.identity() * sign
            assert value.order == rep.order


def test_psi_evaluate_is_minus_trace_product():
    data = FIVE_INSTANCES[0]
    rep = build_representation(data, classify(data))
    h = (("h", 1),)
    q = (("q1", 1),)
    th = -rep.word_image(h).trace()
    tq = -rep.word_image(q).trace()
    assert psi_evaluate([h], rep) == th
    assert psi_evaluate([h, q], rep) == th * tq
    assert psi_evaluate([], rep) == CycNum.one()


def test_build_representation_rejects_exhausted_schedule(monkeypatch):
    monkeypatch.setattr(seifert, "_MAX_CANDIDATES", 0)
    data = SeifertData(0, 0, [(1, 2)] * 4)
    with pytest.raises(BuildError):
        build_representation(data, "sphere_base")


def test_certificate_field_above_the_order_cap_fails_before_the_search():
    data = SeifertData(0, 0, [(1, 2), (1, 3), (1, 5), (1, 7), (1, 11)])
    start = time.perf_counter()
    with pytest.raises(BuildError) as info:
        certify(data)
    assert time.perf_counter() - start < 0.5
    message = str(info.value)
    assert "[(1, 2), (1, 3), (1, 5), (1, 7), (1, 11)]" in message
    assert "order 4620" in message and "limit 4096" in message


# ---------------------------------------------------------------------------
# certificates


def test_certify_past_the_fiber_cap(monkeypatch):
    # the homology side condition and the torus-curve test read H1 through
    # Smith forms of a 33 x 225 relator matrix here
    monkeypatch.setattr(seifert, "MAX_FIBERS", 32)
    data = SeifertData(64, 64, _random_fibers(0, count=32))
    start = time.perf_counter()
    cert = certify(data)
    assert time.perf_counter() - start < 2.0
    assert cert.verified
    assert reverify_certificate(cert, data)


@pytest.mark.parametrize("data", FIVE_INSTANCES[:3], ids=repr)
def test_separating_certificates(data):
    cert = certify(data)
    assert isinstance(cert, TorsionCertificate)
    assert cert.kind == "separating_torus"
    assert cert.verified
    assert reverify_certificate(cert, data)
    w = cert.witness
    assert not (w["trace_fwd"] == w["trace_swapped"])
    d = cert.as_dict()
    assert d["kind"] == "separating_torus"
    assert set(d) >= {"kind", "witness", "representation", "side_conditions", "verified"}


@pytest.mark.parametrize(
    "torus, tag",
    [
        (Mat2(1, 1, 0, 1), "J"),
        (Mat2(3, -2, 2, -1), "J"),
        (Mat2(-1, 0, 5, -1), "J"),
        (Mat2(2, 1, 1, 1), "D"),
        (Mat2(0, -1, 1, 0), "D"),
        (Mat2(1, 1, -1, 0), "D"),
    ],
)
def test_torus_algebra_tag_is_read_from_the_trace(torus, tag):
    # a non-central image conjugated by standardize_pair closes to "J" when
    # tr^2 == 4 and to "D" otherwise; certify writes "D", because its torus
    # images never have trace +-2
    tr = torus.trace()
    assert ("J" if tr * tr == 4 else "D") == tag
    p = standardize_pair(torus)
    conj = p.inverse() * torus * p
    assert algebra_closure([conj]).tag == tag


@pytest.mark.parametrize("data", FIVE_INSTANCES[3:], ids=repr)
def test_nonseparating_certificates(data):
    cert = certify(data)
    assert cert.kind == "nonseparating_torus"
    assert cert.verified
    assert reverify_certificate(cert, data)
    assert cert.side_conditions["torus_curve_doubled_class_nonzero"] is True


def _reference_inverse(m):
    inv = m.det().inverse()
    return Mat2(m.d * inv, -m.b * inv, -m.c * inv, m.a * inv)


def _reference_word_image(rep, word):
    # every letter, central ones included, multiplied in from the identity
    acc = Mat2.identity()
    for sym, e in word:
        m = rep.images[sym]
        if e < 0:
            m, e = _reference_inverse(m), -e
        for _ in range(e):
            acc = acc * m
    return acc


def _entry_dicts(m):
    return [e.as_dict() for e in m.entries]


@pytest.mark.parametrize(
    "data",
    FIVE_INSTANCES + [SeifertData(-1, 1, [(1, 2), (1, 5)]), SeifertData(0, 1, [(1, 2), (1, 3), (1, 5)])],
    ids=repr,
)
def test_word_images_match_the_full_product_reference(data):
    cert = certify(data)
    w = cert.witness
    words = list(presentation(data).relators)
    if cert.kind == "separating_torus":
        words += [w["x1"], w["x2"], w["gamma"]]
        words += [word_mul(w["x1"], w["x2"], w["gamma"]), word_mul(w["x1"], w["gamma"], w["x2"])]
    else:
        words += [w["gamma"], w["delta"]]
        words += [word_mul(w["gamma"], w["delta"]), word_mul(word_inverse(w["gamma"]), w["delta"])]
    for rep in (cert.representation, build_representation(data, classify(data))):
        for word in words:
            want = _entry_dicts(_reference_word_image(rep, word))
            assert _entry_dicts(rep.word_image(word)) == want
            assert _entry_dicts(rep.word_image_alt(word)) == want


# certify(...).as_dict() over these spaces, hashed before central letters
# became signs and det-1 inverses became adjugates
PINNED_SPACES = [
    SeifertData(0, 0, [(1, 2), (1, 3), (1, 5)]),
    SeifertData(0, 0, [(1, 2), (1, 2), (1, 3), (1, 3)]),
    SeifertData(0, 0, [(1, 2), (1, 3), (1, 5), (1, 7)]),
    SeifertData(0, 0, [(-1, 3), (1, 4), (2, 5), (1, 2)]),
    SeifertData(0, 1, [(1, 2), (1, 3), (1, 5)]),
    SeifertData(0, 2, [(1, 3), (1, 4)]),
    SeifertData(-1, 0, [(1, 2), (1, 3), (1, 3)]),
    SeifertData(-1, 1, [(1, 2), (1, 5)]),
    SeifertData(-1, 2, [(1, 3)]),
    SeifertData(-1, 1, [(1, 2)]),
    SeifertData(-1, 0, [(1, 2), (1, 3)]),
    SeifertData(1, 0, []),
    SeifertData(2, 1, [(1, 2)]),
    SeifertData(-2, 0, [(1, 3)]),
]
PINNED_CERTIFICATES_SHA256 = "45876716e055582e53c17b362b2a73fadd3c1903dcdee9ba6de80bee1453879f"


def _certificates_sha256(spaces):
    h = hashlib.sha256()
    for data in spaces:
        h.update(json.dumps(certify(data).as_dict(), sort_keys=True).encode())
    return h.hexdigest()


def test_certificates_are_pinned():
    assert _certificates_sha256(PINNED_SPACES) == PINNED_CERTIFICATES_SHA256


# certify(...).as_dict() over spaces of scripts/seifert_census.py's
# censuses, hashed before certify took its torus frame from the chain:
# sphere bases with 4 and 5 fibers and with 1-2 boundary tori, RP^2 bases
# with and without boundary, fields of order 420, 468, 660, 780 and 840
CENSUS_PINNED_SPACES = [
    SeifertData(0, 0, [(1, 2), (1, 3), (1, 4), (1, 5)]),
    SeifertData(0, 0, [(1, 3), (1, 3), (1, 4), (1, 5)]),
    SeifertData(0, 0, [(1, 2), (1, 3), (1, 5), (1, 11)]),
    SeifertData(0, 0, [(1, 3), (1, 4), (1, 5), (1, 7)]),
    SeifertData(0, 0, [(1, 2), (1, 3), (1, 5), (1, 13)]),
    SeifertData(0, 0, [(1, 2), (1, 4), (1, 5), (1, 7)]),
    SeifertData(0, 0, [(1, 2), (2, 3), (3, 4), (2, 5)]),
    SeifertData(0, 0, [(1, 2), (5, 6), (1, 7), (3, 7)]),
    SeifertData(0, 0, [(1, 2), (1, 2), (1, 3), (1, 3), (1, 5)]),
    SeifertData(0, 0, [(1, 2), (1, 3), (1, 4), (1, 5), (1, 5)]),
    SeifertData(0, 0, [(1, 2), (1, 2), (1, 2), (1, 2), (1, 2)]),
    SeifertData(0, 0, [(1, 3), (1, 3), (1, 4), (1, 4), (1, 5)]),
    SeifertData(0, 1, [(1, 2), (2, 3), (1, 4)]),
    SeifertData(0, 1, [(3, 5), (5, 6), (1, 7)]),
    SeifertData(0, 2, [(1, 2), (3, 5)]),
    SeifertData(0, 2, [(1, 6), (2, 7)]),
    SeifertData(0, 2, [(4, 5), (4, 5)]),
    SeifertData(-1, 0, [(1, 2), (1, 3), (1, 5)]),
    SeifertData(-1, 0, [(1, 4), (1, 5), (1, 7)]),
    SeifertData(-1, 0, [(1, 3), (1, 5), (1, 11)]),
    SeifertData(-1, 0, [(1, 2), (1, 9), (1, 13)]),
    SeifertData(-1, 1, [(1, 2), (2, 5)]),
    SeifertData(-1, 1, [(2, 5), (3, 7)]),
    SeifertData(-1, 1, [(1, 6), (5, 7)]),
]
CENSUS_CERTIFICATES_SHA256 = "ab0d84d3ffdba4c20339f9389369394619d2e5b206175d991ecbd850202d04e6"


def test_census_certificates_are_pinned():
    assert _certificates_sha256(CENSUS_PINNED_SPACES) == CENSUS_CERTIFICATES_SHA256


def _chain_steps(spaces, monkeypatch):
    """(p, mu, muinv) of every chain extension step certify makes on the spaces."""
    steps = []
    extend = seifert._extend_chain

    def recording(p_prev, mu, muinv, *rest):
        steps.append((p_prev, mu, muinv))
        return extend(p_prev, mu, muinv, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(seifert, "_extend_chain", recording)
        for data in spaces:
            certify(data)
    return steps


def _eigenvector_frame(p, mu, muinv):
    e = Mat2.from_columns(mat2.eigenvector(p, mu), mat2.eigenvector(p, muinv))
    return e, e.inverse()


def _frame_dicts(frame):
    return [[x.as_dict() for x in m.entries] for m in frame]


def _eigenframe_and_fallback(p, mu, muinv, monkeypatch):
    """_eigenframe's (e, e^-1) and whether it called eigenvector."""
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(seifert, "eigenvector", lambda *args: calls.append(args) or mat2.eigenvector(*args))
        frame = seifert._eigenframe(p, mu, muinv, (mu - muinv).inverse())
    return frame, bool(calls)


def test_closed_form_eigenframe_is_the_eigenvector_frame(monkeypatch):
    # on every chain step of the pinned spaces: the same entries at the
    # same orders, and eigenvector only where b or c is zero or their
    # orders differ
    steps = _chain_steps(FIVE_INSTANCES + CENSUS_PINNED_SPACES, monkeypatch)
    closed = 0
    for p, mu, muinv in steps:
        frame, fell_back = _eigenframe_and_fallback(p, mu, muinv, monkeypatch)
        assert _frame_dicts(frame) == _frame_dicts(_eigenvector_frame(p, mu, muinv))
        assert fell_back == (p.b.is_zero or p.c.is_zero or p.b.order != p.c.order)
        closed += not fell_back
    assert len(steps) >= 30 and 0 < closed < len(steps)  # both paths run


def _fallback_frames():
    mu, muinv = root_of_unity(5, 1), root_of_unity(5, 4)
    tr = mu + muinv
    yield Mat2(mu, 3, 0, muinv), mu, muinv  # c = 0
    yield Mat2(muinv, 0, tr, mu), mu, muinv  # b = 0
    # a = 2, b = 1 of order 1, c = -(a - mu)(a - muinv) = 2 tr - 5 of order 5
    yield Mat2(2, 1, tr * 2 - 5, tr - 2), mu, muinv
    # mu and muinv at two orders
    yield Mat2(2, tr, (tr * 2 - 5) / tr, tr - 2), mu.lift(20), muinv


@pytest.mark.parametrize("case", list(_fallback_frames()), ids=["c0", "b0", "orders", "mu-orders"])
def test_eigenframe_falls_back_to_eigenvector(case, monkeypatch):
    p, mu, muinv = case
    assert p.det() == 1 and p.trace() == mu + muinv
    frame, fell_back = _eigenframe_and_fallback(p, mu, muinv, monkeypatch)
    assert fell_back
    assert _frame_dicts(frame) == _frame_dicts(_eigenvector_frame(p, mu, muinv))


def test_certify_takes_its_torus_frame_from_the_chain(monkeypatch):
    # the frame comes from the chain's first extension step, so certify
    # never rebuilds it; the certificates stay the pinned bytes
    def refuse(t):
        raise AssertionError("certify rebuilt the torus frame")

    for module in (mat2, seifert):
        monkeypatch.setattr(module, "standardize_pair", refuse, raising=False)
    assert _certificates_sha256(PINNED_SPACES) == PINNED_CERTIFICATES_SHA256


def test_certify_reads_side_algebra_dims_without_closures(monkeypatch):
    # algebra_dim decides both sides from one commutator each, so certify
    # builds no closure and no field echelon; the certificates stay the
    # pinned bytes
    def refuse(*args):
        raise AssertionError("certify built an algebra closure")

    monkeypatch.setattr(linalg.FieldEchelon, "insert", refuse)
    monkeypatch.setattr(mat2, "algebra_closure", refuse)
    assert _certificates_sha256(PINNED_SPACES) == PINNED_CERTIFICATES_SHA256
    assert _certificates_sha256(CENSUS_PINNED_SPACES) == CENSUS_CERTIFICATES_SHA256


FRAMED_SPACES = [
    SeifertData(0, 0, [(1, 2), (1, 3), (1, 5), (1, 7)]),
    SeifertData(0, 2, [(1, 6), (2, 7)]),
    SeifertData(-1, 1, [(2, 5), (3, 7)]),
]


@pytest.mark.parametrize("data", FRAMED_SPACES, ids=repr)
def test_first_candidate_is_in_the_torus_frame(data):
    # the chain conjugates its images by the eigenframe of p1 p2, so the
    # representation it yields maps delta to diag(mu, mu^-1), mu != mu^-1
    case = classify(data)
    layout = seifert._chain_layout(data, case)
    rep, _assign, _pair = next(seifert._chain_candidates(data, case, layout))
    torus = rep.word_image(layout.delta)
    assert torus.b.is_zero and torus.c.is_zero and not (torus.a == torus.d)


@pytest.mark.parametrize(
    "data", FRAMED_SPACES + [SeifertData(0, 0, [(1, 2), (1, 2), (1, 3), (1, 3)])], ids=repr
)
def test_build_representation_is_the_certified_representation(data):
    # on spaces whose first candidate certifies, certify keeps the
    # representation the chain built
    rep = build_representation(data, classify(data))
    assert rep.as_dict() == certify(data).representation.as_dict()


def test_noneffective_closed_certificate():
    data = SeifertData(-1, 0, [(1, 2), (1, 3)])
    cert = certify(data)
    assert cert.kind == "noneffective_closed"
    assert cert.representation is None and cert.witness is None
    assert cert.verified
    assert reverify_certificate(cert, data)
    assert cert.side_conditions["homology"] == [24]


def test_noneffective_boundary_certificate():
    data = SeifertData(-1, 1, [(1, 2)])
    cert = certify(data)
    assert cert.kind == "noneffective_boundary"
    assert cert.representation is not None and cert.witness is None
    assert cert.verified


RP2_SMALL = SeifertData(-1, 1, [(1, 2)])


@pytest.mark.parametrize(
    "data", FIVE_INSTANCES + [SeifertData(-2, 0, [(1, 3)]), RP2_SMALL], ids=repr
)
def test_certify_checks_relators_once_on_the_alternate_path(data, monkeypatch):
    calls = []
    satisfies = Representation.satisfies

    def counted(rep, relators, evaluator=None):
        calls.append((rep, evaluator))
        return satisfies(rep, relators, evaluator)

    monkeypatch.setattr(Representation, "satisfies", counted)
    cert = certify(data)
    assert cert.verified
    assert len(calls) == 1
    rep, evaluator = calls[0]
    assert rep is cert.representation
    assert evaluator == rep.word_image_alt


@pytest.fixture
def broken_chain(monkeypatch):
    """_attempt_chain returns its representation with the image of the first
    chain letter times a det-1 w: every image keeps det 1, but the relators
    that read that letter fail."""
    attempt = seifert._attempt_chain
    w = Mat2(1, 0, 1, 1)

    def broken(data, case, layout, *args):
        rep, pair = attempt(data, case, layout, *args)
        images = dict(rep.images)
        images[layout.chain[0]] = images[layout.chain[0]] * w
        return Representation(images), pair

    monkeypatch.setattr(seifert, "_attempt_chain", broken)


@pytest.mark.parametrize("data", [FIVE_INSTANCES[0], FIVE_INSTANCES[2], RP2_SMALL], ids=repr)
def test_certify_raises_when_its_certificate_fails_reverification(data, broken_chain):
    case = classify(data)
    with pytest.raises(BuildError, match=f"{case} with assignment .* failed re-verification"):
        certify(data)


def test_build_representation_checks_its_relators(broken_chain):
    with pytest.raises(BuildError, match="relation verification failed for case 'sphere_base'"):
        build_representation(FIVE_INSTANCES[0], "sphere_base")


def test_chain_attempt_recognizes_each_trace_once(monkeypatch):
    # the two first letters and the one extension step of the 4-letter
    # sphere chain each recognize one trace: 3 scans, none repeated
    data = FIVE_INSTANCES[0]
    attempt = seifert._attempt_chain
    args = []

    def recorded(*a):
        args.append(a)
        return attempt(*a)

    monkeypatch.setattr(seifert, "_attempt_chain", recorded)
    next(seifert._chain_candidates(data, "sphere_base", seifert._chain_layout(data, "sphere_base")))
    hit = cyclotomic._trace_hit
    calls = []

    def counted(x):
        calls.append(x)
        return hit(x)

    monkeypatch.setattr(cyclotomic, "_trace_hit", counted)
    _data, _case, layout, d_by_sym, _order, _assign = args[-1]  # the attempt that completed
    rep, _pair = attempt(*args[-1])
    assert len(calls) == 3
    # every fiber letter, the first two included, has its eigenvalue's trace
    for sym in layout.chain:
        assert rep.images[sym].trace() == seifert._root_trace(d_by_sym[sym], 1)


def test_representation_shares_its_units():
    z5 = seifert.root_of_unity(5)
    one_at_5 = z5 * z5.inverse()
    assert one_at_5.order == 5
    built = Representation(
        {"x": Mat2.identity(), "y": Mat2(z5, 0, one_at_5, z5.inverse()), "h": -Mat2.identity()}
    )
    p, pinv = Mat2(1, 1, 0, 1), Mat2(1, -1, 0, 1)
    conj = Representation(
        {sym: m if sym in built.signs else pinv * m * p for sym, m in built.images.items()}
    )
    reps = [built, conj]
    reps += [certify(data).representation for data in (FIVE_INSTANCES[0], FIVE_INSTANCES[3], RP2_SMALL)]
    for rep in reps:
        entries = [e for m in rep.images.values() for e in m.entries]
        for c in (0, 1, -1):
            assert rep.units[c] == c and rep.units[c].order == rep.order
            assert all(e is rep.units[c] for e in entries if e == c)
        for word, sign in (((), 1), ((("h", 1),), rep.signs["h"])):
            units = (rep.units[sign], rep.units[0], rep.units[0], rep.units[sign])
            assert all(map(operator.is_, rep.word_image(word).entries, units))
    for c in (0, 1, -1):
        assert any(e == c for m in built.images.values() for e in m.entries)


def test_no_torsion_result():
    data = SeifertData(0, 1, [(1, 2)])
    out = certify(data)
    assert isinstance(out, NoTorsionResult)
    assert out.classification == "no_essential_torus"
    assert out.as_dict()["classification"] == "no_essential_torus"


def test_reverify_rejects_tampering():
    data = FIVE_INSTANCES[0]
    cert = certify(data)

    forged = dict(cert.witness)
    forged["trace_fwd"] = forged["trace_swapped"]
    bad = TorsionCertificate(
        kind=cert.kind,
        representation=cert.representation,
        witness=forged,
        criterion_ref=cert.criterion_ref,
        side_conditions=cert.side_conditions,
    )
    assert not reverify_certificate(bad, data)

    # breaking a generator image must break the relator re-check
    images = dict(cert.representation.images)
    images["h"] = Mat2.diagonal(2, 2)
    bad2 = TorsionCertificate(
        kind=cert.kind,
        representation=Representation(images),
        witness=cert.witness,
        criterion_ref=cert.criterion_ref,
        side_conditions=cert.side_conditions,
    )
    assert not reverify_certificate(bad2, data)

    # word_image_alt's Cayley-Hamilton powers need det 1, so a non-central
    # image scaled off SL2 must fail the det check
    images = dict(cert.representation.images)
    images["q1"] = images["q1"] * 2
    assert not (images["q1"].det() == 1)
    bad_det = TorsionCertificate(
        kind=cert.kind,
        representation=Representation(images),
        witness=cert.witness,
        criterion_ref=cert.criterion_ref,
        side_conditions=cert.side_conditions,
    )
    assert not reverify_certificate(bad_det, data)

    bad3 = TorsionCertificate(
        kind="unknown_kind",
        representation=cert.representation,
        witness=cert.witness,
        criterion_ref=cert.criterion_ref,
        side_conditions=cert.side_conditions,
    )
    assert not reverify_certificate(bad3, data)
