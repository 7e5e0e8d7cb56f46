import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergodix.folner import (
    FiniteSet,
    FullSet,
    Homomorphism,
    HomSet,
    ProgressionSet,
    ResidueClassSet,
    best_shift_for_density,
    box_schedule,
    box_window,
    custom_window,
    folner_defect,
    inverse_product,
    lower_density,
    relative_density_witness,
    shift_window,
    tempelman_ratio,
)
from test_parallel import schedules


def brute_inverse_product(points):
    return {tuple(-a + b for a, b in zip(p, q)) for p in points for q in points}


class TestBoxWindow:
    def test_q1_n1(self):
        w = box_window(1, 1)
        assert set(w.iter_elements()) == {(-1,), (0,), (1,)}
        assert w.size == 3

    def test_q2_n1_size(self):
        assert box_window(2, 1).size == 9

    def test_q1_n10_size(self):
        assert box_window(1, 10).size == 21

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            box_window(0, 1)
        with pytest.raises(ValueError):
            box_window(1, 0)

    def test_contains(self):
        w = box_window(2, 3)
        assert (3, -3) in w
        assert (4, 0) not in w


class TestInverseProduct:
    def test_box_n1(self):
        ip = inverse_product(box_window(1, 1))
        assert set(ip.iter_elements()) == {(-2,), (-1,), (0,), (1,), (2,)}
        assert ip.size == 5

    def test_box_n3_size(self):
        assert inverse_product(box_window(1, 3)).size == 13

    def test_singleton(self):
        w = custom_window(1, [5])
        assert set(inverse_product(w).iter_elements()) == {(0,)}

    def test_box_matches_enumeration(self):
        for n in (1, 2, 3):
            w = box_window(2, n)
            assert set(inverse_product(w).iter_elements()) == \
                brute_inverse_product(list(w.iter_elements()))


class TestTempelmanRatio:
    def test_q1_n1_enumeration_oracle(self):
        w = box_window(1, 1)
        pts = list(w.iter_elements())
        assert len(brute_inverse_product(pts)) == 5
        assert tempelman_ratio(w) == 5 / 3

    def test_q1_closed_form_and_bound(self):
        for n in range(1, 101):
            r = tempelman_ratio(box_window(1, n))
            assert r == (4 * n + 1) / (2 * n + 1)
            assert r <= 2

    def test_q2_n1_enumeration_oracle(self):
        w = box_window(2, 1)
        assert len(brute_inverse_product(list(w.iter_elements()))) == 25
        assert tempelman_ratio(w) == 25 / 9
        assert tempelman_ratio(w) <= 4

    def test_custom_window(self):
        w = custom_window(1, [0, 1, 3])
        # differences of {0,1,3}: {-3,-2,-1,0,1,2,3}
        assert tempelman_ratio(w) == 7 / 3


class TestFolnerDefect:
    def test_unit_shift_law(self):
        for n in (1, 2, 7, 40):
            w = box_window(1, n)
            # oracle: the symmetric difference is the two extreme points
            pts = set(w.iter_elements())
            moved = {(x + 1,) for (x,) in pts}
            assert len(pts ^ moved) == 2
            assert folner_defect(w, 1) == 2 / (2 * n + 1)

    def test_zero_shift(self):
        assert folner_defect(box_window(3, 2), (0, 0, 0)) == 0.0

    def test_disjoint_translate(self):
        assert folner_defect(box_window(1, 1), 5) == 2.0

    def test_monotone_decay(self):
        g = 3
        vals = [folner_defect(box_window(1, n), g) for n in range(4, 40)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.2

    def test_custom_matches_box(self):
        for n in (1, 2, 3):
            for g in (-2, 0, 1, 4):
                w = box_window(1, n)
                wc = custom_window(1, [x for (x,) in w.iter_elements()])
                assert folner_defect(w, g) == folner_defect(wc, g)


class TestShiftWindow:
    def test_translate(self):
        w = shift_window(box_window(1, 1), 2)
        assert set(w.iter_elements()) == {(1,), (2,), (3,)}

    def test_identity_shift(self):
        w = box_window(2, 2)
        assert set(shift_window(w, (0, 0)).iter_elements()) == set(w.iter_elements())

    def test_size_preserved(self):
        w = box_window(2, 3)
        assert shift_window(w, (5, -7)).size == w.size

    def test_defect_invariance(self):
        w = box_window(1, 4)
        for h in (-3, 2, 11):
            shifted = shift_window(w, h)
            for g in (1, 2, 9):
                assert folner_defect(shifted, g) == folner_defect(w, g)


def test_uniform_defect_over_finite_candidate_set():
    # the worst defect over a fixed finite set of shifts decays monotonically
    candidates = [(g,) for g in range(-3, 4)]
    worst = [max(folner_defect(box_window(1, n), g) for g in candidates)
             for n in range(4, 60)]
    assert all(a >= b for a, b in zip(worst, worst[1:]))
    assert worst[-1] < 0.06


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), q=st.integers(1, 2),
       g=st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
       h=st.tuples(st.integers(-6, 6), st.integers(-6, 6)))
def test_shift_invariance_property(n, q, g, h):
    w = box_window(q, n)
    shifted = shift_window(w, h[:q])
    assert shifted.size == w.size
    assert folner_defect(shifted, g[:q]) == folner_defect(w, g[:q])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 15), q=st.integers(1, 2))
def test_tempelman_bound_property(n, q):
    assert tempelman_ratio(box_window(q, n)) <= 2 ** q


class TestLowerDensity:
    def test_evens(self):
        rep = lower_density(ResidueClassSet(2, (0,)), box_schedule(1, 1, 50))
        for n, ratio in rep.per_n_ratios:
            expected = ((n + 1) if n % 2 == 0 else n) / (2 * n + 1)
            assert ratio == expected
            assert abs(ratio - 0.5) <= 1 / (2 * n + 1)

    def test_full_set(self):
        rep = lower_density(FullSet(), box_schedule(1, 1, 10))
        assert rep.lower_density == 1.0

    def test_squares_thin(self):
        squares = lambda g: g[0] >= 0 and math.isqrt(g[0]) ** 2 == g[0]
        wins = box_schedule(1, 1, 200)
        rep = lower_density(squares, wins)
        ratios = [r for _, r in rep.per_n_ratios]
        # oracle: at most 2*sqrt(n)+1 squares in {-n..n}
        for (n, r) in rep.per_n_ratios:
            assert r <= (2 * math.sqrt(n) + 1) / (2 * n + 1)
        tail = ratios[len(ratios) * 3 // 4:]
        assert min(tail) < 0.08
        assert ratios[-1] < ratios[0]

    def test_complement_sums_to_one(self):
        pred = ResidueClassSet(3, (0, 1))
        comp = lambda g: not pred.contains(g)
        wins = box_schedule(1, 1, 20)
        r1 = lower_density(pred, wins)
        r2 = lower_density(comp, wins)
        for (_, a), (_, b) in zip(r1.per_n_ratios, r2.per_n_ratios):
            assert a + b == 1.0

    @pytest.mark.parametrize("q", [1, 2])
    def test_each_point_tested_once(self, q):
        seen = []
        big_n = 12
        rep = lower_density(lambda g: seen.append(g) or g[0] % 3 == 0,
                            box_schedule(q, 1, big_n))
        assert len(seen) == len(set(seen)) == (2 * big_n + 1) ** q
        assert rep.per_n_ratios[-1][1] == 9 / 25  # multiples of 3 in -12..12

    @pytest.mark.parametrize("q", [1, 2])
    def test_ratios_on_mixed_schedules(self, q):
        pred = ResidueClassSet(3, (0, 2), coeffs=(1,) * q)
        for windows in schedules(q):
            rep = lower_density(pred, windows)
            for w, (n, ratio) in zip(windows, rep.per_n_ratios, strict=True):
                count = sum(1 for g in w.iter_elements() if pred.contains(g))
                assert n == w.index
                assert ratio == count / w.size


class TestRelativeDensityWitness:
    def test_residues_cover(self):
        res = relative_density_witness(
            ResidueClassSet(3, (0,)), box_window(1, 10), [0, 1, 2])
        assert res.accepted

    def test_single_candidate_fails(self):
        res = relative_density_witness(
            ResidueClassSet(3, (0,)), box_window(1, 3), [0])
        assert not res.accepted
        assert res.failing_point is not None
        g = res.failing_point
        assert g[0] % 3 != 0

    def test_full_set_trivial(self):
        res = relative_density_witness(FullSet(), box_window(1, 5), [0])
        assert res.accepted


class TestBestShift:
    def test_ratio_at_least_one_over_r(self):
        shift, ratio = best_shift_for_density(
            box_window(1, 1), ResidueClassSet(3, (0,)), [0, 1, 2])
        assert ratio >= 1 / 3

    def test_full_set(self):
        _, ratio = best_shift_for_density(box_window(1, 4), FullSet(), [2])
        assert ratio == 1.0

    def test_exact_third(self):
        w = custom_window(1, range(0, 9))
        shift, ratio = best_shift_for_density(w, ResidueClassSet(3, (0,)), [0, 1, 2])
        assert ratio == 1 / 3
        assert shift == (0,)  # tie broken toward the lowest index

    def test_tie_break_deterministic(self):
        w = box_window(1, 1)
        shift, _ = best_shift_for_density(w, FullSet(), [5, 6, 7])
        assert shift == (5,)

    def test_tie_break_plane(self):
        # x + y even: 13 of the 25 points of the radius-2 box, 12 after an
        # odd shift; (1, 1) and (2, 0) tie at 13
        even = ResidueClassSet(2, (0,), coeffs=(1, 1))
        shift, ratio = best_shift_for_density(
            box_window(2, 2), even, [(1, 0), (0, 1), (1, 1), (2, 0)])
        assert shift == (1, 1)
        assert ratio == 13 / 25


class TestHomomorphisms:
    def test_scalar_action(self):
        h = Homomorphism.scalar(2, 3)
        assert h((1, -2)) == (3, -6)

    def test_matrix_action_additive(self):
        h = Homomorphism.from_matrix([[1, 2], [0, 1]])
        a, b = (1, 2), (-3, 5)
        ab = tuple(x + y for x, y in zip(a, b))
        assert h(ab) == tuple(x + y for x, y in zip(h(a), h(b)))

    def test_translational_scalars(self):
        homs = tuple(Homomorphism.scalar(1, m) for m in (-2, -1, 1, 2))
        # differences of distinct members: +-1, +-2, +-3, +-4 -> 3,4 missing
        assert not HomSet(homs).is_translational
        homs_full = tuple(Homomorphism.scalar(1, m)
                          for m in range(-4, 5) if m != 0)
        # still not closed (difference can reach 8)
        assert not HomSet(homs_full).is_translational
        small = tuple(Homomorphism.scalar(1, m) for m in (1, 2))
        # 1-2=-1 missing
        assert not HomSet(small).is_translational
        closed = tuple(Homomorphism.scalar(1, m) for m in (-1, 1, 2))
        # 1-2=-1 ok, 2-1=1 ok, -1-1=-2 missing -> still not translational
        assert not HomSet(closed).is_translational

    def test_singleton_vacuously_translational(self):
        # integer homomorphisms are torsion-free, so no finite set with two
        # or more members can be closed under differences; the singleton is
        # the (vacuous) positive case
        assert HomSet((Homomorphism.scalar(2, 3),)).is_translational

    def test_zero_member_rejected(self):
        with pytest.raises(ValueError):
            HomSet((Homomorphism.scalar(1, 0),))

    def test_predicate_serialization(self):
        preds = [
            ResidueClassSet(3, (0, 2)),
            FiniteSet(frozenset({(1,), (4,)})),
            ProgressionSet((0,), (3,)),
            FullSet(),
        ]
        for p in preds:
            assert "kind" in p.to_json()

    def test_progression_membership(self):
        p = ProgressionSet((1, 0), (2, 3))
        assert p.contains((1, 0))
        assert p.contains((5, 6))
        assert not p.contains((5, 5))
        assert p.contains((-1, -3))


class TestResidueClassSet:
    @pytest.mark.parametrize("modulus,residues,coeffs,reduced", [
        (3, (-1, 5), None, (2,)),
        (4, (7, -8, 4), None, (3, 0)),
        (3, (-1, 5), (1, 1), (2,)),
        (5, (-3, 12, 9), (2, -1), (2, 4)),
    ])
    def test_residues_reduced_like_canonical(self, modulus, residues, coeffs, reduced):
        raw = ResidueClassSet(modulus, residues, coeffs)
        canonical = ResidueClassSet(modulus, reduced, coeffs)
        q = 1 if coeffs is None else len(coeffs)
        for g in box_window(q, 7).iter_elements():
            assert raw.contains(g) == canonical.contains(g)

    def test_equality_hash_repr_json_ignore_the_reduction(self):
        a = ResidueClassSet(3, (-1, 5), (1, 1))
        b = ResidueClassSet(3, (-1, 5), (1, 1))
        assert a == b
        assert hash(a) == hash(b)
        assert repr(a) == "ResidueClassSet(modulus=3, residues=(-1, 5), coeffs=(1, 1))"
        assert a.to_json() == {"kind": "residue", "modulus": 3,
                               "residues": [-1, 5], "coeffs": [1, 1]}
        # same reduced residues, different inputs: still distinct values
        assert a != ResidueClassSet(3, (2,), (1, 1))
