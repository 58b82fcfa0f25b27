import json
import math

import numpy as np
import pytest

from conftest import poly1, poly2, poly3
import nonalter.classify as classify
import nonalter.quad_core as quad_core
from nonalter import corpus, qp1qc
from nonalter.canonical import AffineChange
from nonalter.classify import (
    ArrangementClass,
    InclusionStatus,
    Verdict,
    _ray_candidates,
    _zero_set_empty,
    check_assumption1,
    check_assumption2,
    check_assumption3,
    check_assumption4,
    check_assumption5,
    check_inclusion_zeroset,
    classify_problem,
    detect_separation_by_hyperplane,
    pencil_psd_search,
    slater_two_sided,
)
from nonalter.instances import random_triple
from nonalter.solve import solve_nonalter
from nonalter.problem_io import dumps_report, parse_problem_dict, problem_to_dict
from nonalter.quad_core import (
    DEFAULT_TOL,
    QuadForm,
    evaluate,
    find_negative_point,
    lift,
    nonneg_everywhere,
)


class TestSlaterTwoSided:
    def test_circle(self):
        ts = slater_two_sided(poly2(axx=1, ayy=1, c=-1))
        assert ts.takes_negative and ts.takes_positive

    def test_square(self):
        ts = slater_two_sided(poly2(axx=1))
        assert not ts.takes_negative and ts.takes_positive

    def test_negative_constant(self):
        ts = slater_two_sided(QuadForm.constant(2, -1.0))
        assert ts.takes_negative and not ts.takes_positive

    def test_one_decomposition_serves_both_signs(self, eig_calls):
        f, g, h, _ = corpus.load("ex24")
        ts = slater_two_sided(g)
        assert eig_calls[0] == 1
        assert ts.takes_negative and ts.takes_positive
        for x, q in ((ts.negative_point, g), (ts.positive_point, -g)):
            assert evaluate(q, x) < 0
        for q in (g, h, poly2(axx=1), poly2(axx=-1, ayy=-1, c=-1), poly2(axx=1, ayy=-1)):
            ts = slater_two_sided(q)
            assert ts.takes_negative == (find_negative_point(q) is not None)
            assert ts.takes_positive == (find_negative_point(-q) is not None)


class TestSeparationDetection:
    def test_branch_splitting_line(self):
        g = poly2(axx=-1, ayy=1, c=9)
        h = poly2(bx=-1, c=1)  # 1 - x
        cert = detect_separation_by_hyperplane(g, h)
        assert cert is not None
        assert cert.restriction_nonneg.min_eig >= -1e-9
        a_minus, a_plus = cert.witnesses
        assert evaluate(g, a_minus) < 0 and evaluate(g, a_plus) < 0
        assert evaluate(h, a_minus) * evaluate(h, a_plus) < 0

    def test_wrong_direction_line(self):
        g = poly2(axx=-1, ayy=1, c=9)
        h = poly2(by=1)  # the line y = 0 does not split the branches
        assert detect_separation_by_hyperplane(g, h) is None

    def test_convex_g_never_separated(self):
        g = poly2(axx=1, ayy=1, c=-1)
        for h in (poly2(bx=1), poly2(bx=-1, c=1), poly2(by=2, c=-3)):
            assert detect_separation_by_hyperplane(g, h) is None

    def test_quadratic_companion_rejected(self):
        f, g, h, _ = corpus.load("ex23")
        assert detect_separation_by_hyperplane(g, h) is None


class TestPencilSearch:
    def test_opposite_squares(self):
        p, q = poly1(axx=1), poly1(axx=-1)
        lam = pencil_psd_search(p, q)
        assert lam is not None
        assert nonneg_everywhere(p + lam * q)
        assert -1e-6 <= lam <= 1 + 1e-6

    def test_algebraic_identity(self):
        # h = -g - 40, so -h + lam*g is nonnegative exactly at lam = -1.
        f, g, h, _ = corpus.load("ex24")
        lam = pencil_psd_search(-1.0 * h, g)
        assert lam == pytest.approx(-1.0, abs=1e-6)

    def test_two_affine_functions(self):
        assert pencil_psd_search(poly2(bx=1), poly2(by=1)) is None

    def test_eigendecomposition_budget(self, rng, eig_calls):
        # The lifted pencil has 2(n+1)+1 test points; three bisections over
        # them take O(log n) decompositions.
        f, g, h, _ = corpus.load("ex24")
        pairs = [(-1.0 * h, g), (poly2(axx=1, ayy=1, c=-1), poly2(axx=1, c=-0.5))]
        for n in (2, 6, 20, 50):
            for _ in range(5):
                p = QuadForm(rng.normal(size=(n, n)), rng.normal(size=n), rng.normal())
                L = rng.normal(size=(n, n))
                pairs.append((p, QuadForm(L @ L.T, rng.normal(size=n), abs(rng.normal()) + 10.0)))
        found = 0
        for p, q in pairs:
            eig_calls[0] = 0
            lam = pencil_psd_search(p, q)
            assert eig_calls[0] <= 3 * math.ceil(math.log2(2 * p.n + 3)) + 2
            if lam is not None:
                found += 1
                assert nonneg_everywhere(p + lam * q)
        assert found >= 2

    def test_certificate_rechecks_a_failing_end(self):
        # lift(p) + lam*lift(q) = diag(-d, lam - 1, 3 - lam, 10 + 10 lam): the
        # cutoff grows with the spectral radius, so at d = 2.6e-8 the root 1
        # fails while the midpoint 2 and the root 3 pass.  The interval is
        # [1, 3], and its lower end is no certificate.
        p = QuadForm(np.diag([-1.0, 3.0, 10.0]), np.zeros(3), -2.6e-8)
        q = QuadForm(np.diag([1.0, -1.0, 10.0]), np.zeros(3), 0.0)
        lam = pencil_psd_search(p, q)
        assert lam == pytest.approx(1.0, abs=1e-12)
        assert not nonneg_everywhere(p + lam * q)
        assert classify._pencil_certificate(p, q) is None
        # Through the bisection, which hands on no decomposition, likewise.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quad_core, "_SCAN_MAX", 0)
            p, q = QuadForm(p.A, p.a, p.a0), QuadForm(q.A, q.a, q.a0)
            assert classify._pencil_certificate(p, q) is None

    def test_min_eig_concavity(self, rng):
        for _ in range(40):
            p = QuadForm(rng.normal(size=(2, 2)), rng.normal(size=2), rng.normal())
            q = QuadForm(rng.normal(size=(2, 2)), rng.normal(size=2), rng.normal())
            Mp, Mq = lift(p), lift(q)
            l1, l2, l3 = sorted(rng.uniform(-5, 5, size=3))
            if l3 - l1 < 1e-6:
                continue
            r = lambda lam: float(np.linalg.eigvalsh(Mp + lam * Mq)[0])
            t = (l2 - l1) / (l3 - l1)
            chord = (1 - t) * r(l1) + t * r(l3)
            assert r(l2) >= chord - 1e-8


class TestInclusion:
    def test_certified_by_identity(self):
        f, g, h, _ = corpus.load("ex24")
        v = check_inclusion_zeroset(g, h, +1)
        assert v.status is InclusionStatus.CERTIFIED_PENCIL
        assert v.lam == pytest.approx(-1.0, abs=1e-6)
        assert nonneg_everywhere((-1.0) * h + v.lam * g)

    def test_refuted_on_left_branch(self):
        f, g, h, _ = corpus.load("ex22")
        v = check_inclusion_zeroset(g, h, +1)
        assert v.status is InclusionStatus.REFUTED_WITNESS
        x = v.witness
        assert abs(evaluate(g, x)) <= 1e-6
        assert evaluate(h, x) > 1e-8

    def test_constant_h_certified(self):
        g = poly2(axx=1, ayy=1, c=-1)
        v = check_inclusion_zeroset(g, QuadForm.constant(2, -1.0), +1)
        assert v.status is InclusionStatus.CERTIFIED_PENCIL
        assert v.lam == pytest.approx(0.0, abs=1e-6)

    def test_vacuous_empty_zero_set(self):
        g = poly2(axx=1, ayy=1, c=1)  # strictly positive
        v = check_inclusion_zeroset(g, poly2(bx=1), +1)
        assert v.status is InclusionStatus.VACUOUS

    def test_zero_set_emptiness_decomposes_once(self, workspace, eig_calls):
        f, g, h, _ = corpus.load("ex24")
        assert not _zero_set_empty(g, DEFAULT_TOL)  # both signs are tested
        assert eig_calls[0] == 1
        eig_calls[0] = 0
        assert _zero_set_empty(poly2(axx=-1, ayy=-1, c=-1), DEFAULT_TOL)  # strictly negative
        assert eig_calls[0] == 1


class TestAssumption2:
    def test_holds_on_nested_hyperbolas(self):
        f, g, h, _ = corpus.load("ex24")
        verdict, _ = check_assumption2(g, h)
        assert verdict.verdict is Verdict.HOLDS

    def test_fails_on_split_branches(self):
        f, g, h, _ = corpus.load("ex22")
        verdict, _ = check_assumption2(g, h)
        assert verdict.verdict is Verdict.FAILS

    def test_fails_on_crossing_disks(self):
        f, g, h, _ = corpus.load("cdt_s2")
        verdict, _ = check_assumption2(g, h)
        assert verdict.verdict is Verdict.FAILS


class TestAssumption1:
    def test_interior_point(self):
        g = poly2(axx=1, ayy=1, c=-1)
        v = check_assumption1(g, QuadForm.constant(2, -1.0))
        assert v.verdict is Verdict.HOLDS

    def test_two_point_feasible_set(self):
        f, g, h, _ = corpus.load("hqpd_s5a")
        v = check_assumption1(g, h)
        assert v.verdict is Verdict.FAILS
        x = v.witness
        assert abs(evaluate(g, x)) <= 1e-6 and evaluate(h, x) > 1e-8

    def test_collapse_fails_with_the_inclusion_witness(self):
        # D sits inside {g = 0}; the inclusion of {g = 0} in {h <= 0} that
        # assumption 2 refutes gives assumption 1 its point outside D.
        f, g, h, _ = corpus.load("hqpd_s5a")
        rep = classify_problem(g, h)
        assert rep.a1.fails and rep.a1.certificate == {"collapsed_on": "g"}
        assert rep.inclusions[0].is_false
        assert np.array_equal(rep.a1.witness, rep.inclusions[0].witness)

    def test_cylinder_cut_by_plane(self):
        # In R^3 the feasible set {(1,0,t)} is a strict part of {g=0}.
        g = poly3((1.0, 1.0, 0.0), c=-1.0)
        h = poly3((0.0, 0.0, 0.0), lin=(-1.0, 0.0, 0.0), c=1.0)
        v = check_assumption1(g, h)
        assert v.verdict is Verdict.FAILS


class TestAssumption3:
    def test_holds(self):
        f, g, h, _ = corpus.load("ex24")
        assert check_assumption3(g, h).verdict is Verdict.HOLDS

    def test_constant_h(self):
        g = poly2(axx=1, ayy=1, c=-1)
        v = check_assumption3(g, QuadForm.constant(2, -1.0))
        assert v.verdict is Verdict.FAILS
        assert v.certificate["case"] == "redundant"

    def test_constant_positive_g(self):
        v = check_assumption3(QuadForm.constant(2, 1.0), poly2(axx=1, c=-1))
        assert v.verdict is Verdict.FAILS
        assert v.certificate["case"] == "infeasible"

    def test_unattained_zero_infimum_is_no_feasible_point(self):
        # D = {x = 0, xy >= 1} is empty, yet min g subject to h <= 0 is an
        # unattained 0 (x -> 0 along xy = 1): that shows no point of D.
        g, h = poly2(axx=1), poly2(axy=-1, c=1)
        assert qp1qc.solve_qp1qc(g, h, 1e-9).status == "unattained"
        v = check_assumption3(g, h)
        assert not v.holds and v.witness is None


class TestAssumption4:
    def test_two_sided_pair(self):
        f, g, h, _ = corpus.load("ex24")
        assert check_assumption4(g, h).verdict is Verdict.HOLDS

    def test_everywhere_nonneg_g(self):
        v = check_assumption4(poly2(axx=1), poly2(axx=1, c=-1))
        assert v.verdict is Verdict.FAILS
        assert "g" in v.certificate["missing"]


class TestAssumption5:
    def test_degenerate(self):
        v = check_assumption5(poly1(axx=-1, c=1), poly1(bx=1, c=-1))
        assert v.verdict is Verdict.FAILS
        assert v.certificate["sign"] == -1

    def test_negative_slope(self):
        # h = -x - 1 keeps the point x = -1 outside the halfspace x >= 1;
        # h = -x + 1 makes that halfspace the whole feasible set.  The
        # canonical y1 is oriented to the slope, and c0 keeps its sign.
        degenerate = check_assumption5(poly1(axx=-1, c=1), poly1(bx=-1, c=-1))
        halfspace = check_assumption5(poly1(axx=-1, c=1), poly1(bx=-1, c=1))
        assert degenerate.verdict is halfspace.verdict is Verdict.FAILS
        assert degenerate.certificate["sign"] == -1 and halfspace.certificate["sign"] == 1
        assert degenerate.certificate["c1"] > 0 and halfspace.certificate["c1"] > 0

    def test_non_degenerate(self):
        v = check_assumption5(poly1(axx=-1, c=1), poly1(bx=1, c=-2))
        assert v.verdict is Verdict.HOLDS
        assert abs(v.certificate["c0"]) == pytest.approx(2.0)

    def test_not_applicable(self):
        f, g, h, _ = corpus.load("ex24")
        assert check_assumption5(g, h).verdict is Verdict.HOLDS

    def test_classification_reuses_the_pattern(self, monkeypatch, eig_calls):
        # The reduction hint carries the pattern of the failing order: one
        # canonical pattern per order of g and h for the public check, and
        # the hint's, read from the decompositions the check made.
        calls = []
        orientation = classify._assumption5_one_orientation

        def counted(*args):
            before = eig_calls[0]
            pattern = orientation(*args)
            calls.append(eig_calls[0] - before)
            return pattern

        monkeypatch.setattr(classify, "_assumption5_one_orientation", counted)
        for g, h in ((poly1(axx=-1, c=1), poly1(bx=-1, c=-1)),
                     (poly1(bx=2, c=-2), poly1(axx=-1, c=1))):
            calls.clear()
            rep = classify_problem(g, h)
            assert rep.overall_class is ArrangementClass.ASSUMPTION5_DEGENERATE
            assert len(calls) == 3 and calls[2] == 0
            hint = rep.reduction_hint
            role = (g, h) if hint["pattern_role"] == "g" else (h, g)
            want = orientation(*role)
            assert {k: hint["pattern"][k] for k in ("c0", "c1")} == {k: want[k] for k in ("c0", "c1")}
            assert np.array_equal(hint["pattern"]["change"].T, want["change"].T)

    def test_near_constant_constraint_has_no_pattern(self):
        # g = 1 + 2e-12*x1 is not constant, but its linear term falls below
        # the rank cutoff, where the reduction raises "cannot reduce a
        # constant quadratic".  Without a negative eigenvalue g has no
        # pattern, so assumption 5 holds as not applicable in both orders.
        g = QuadForm(np.zeros((2, 2)), [1e-12, 0.0], 1.0)
        h = poly2(axx=1, ayy=-1, c=-1)
        for p, q, name in ((g, h, "g"), (h, g, "h")):
            for order in ((p, q), (q, p)):
                v = check_assumption5(*order)
                assert v.verdict is Verdict.HOLDS and v.note == "pattern not applicable"
            rep = classify_problem(p, q)
            assert _verdicts(rep)[:7] == [
                ArrangementClass.UNDETERMINED, Verdict.HOLDS, Verdict.HOLDS, Verdict.HOLDS,
                Verdict.UNDETERMINED, Verdict.FAILS, Verdict.HOLDS]
            assert rep.a3.note == f"could not decide whether D = {{{name}<=0}}"
            assert rep.a4.certificate == {"missing": (name,)}
            assert rep.notes == ("assumption 3 undetermined",)

    def test_near_halfspace_pattern_reduces_to_the_halfspace(self):
        # g = 1 - x^2, h = x + 1 - 1.5e-8: c0 is within tolerance of c1, so
        # assumption 5 fails with c0 = c1, while assumption 3 still finds a
        # candidate with g clearly positive on {h <= 0}.  The feasible set is
        # {h <= 0} up to the tolerance, and min (x - 1)^2 there is about 4 at
        # x = -1, not 0 at x = 1 as the hyperplane branch of c0 = -c1 gives.
        g, h = poly1(axx=-1, c=1), poly1(bx=1, c=1 - 1.5e-8)
        f = poly1(axx=1, bx=-2, c=1)
        rep = classify_problem(g, h, 1e-8)
        assert rep.a3.verdict is Verdict.HOLDS
        assert rep.a5.verdict is Verdict.FAILS and rep.a5.certificate["sign"] == 1
        assert rep.overall_class is ArrangementClass.REDUCES_TO_QP1QC
        assert rep.reduction_hint == {"kind": "single_constraint", "which": "h"}
        sol = solve_nonalter(f, g, h, 1e-8)
        assert sol.status == "solved"
        assert sol.nu_star == pytest.approx(4.0, abs=1e-6)
        assert sol.x_star == pytest.approx([-1.0], abs=1e-6)


class TestClassifyProblem:
    def test_elliptic_shell(self):
        f, g, h, _ = corpus.load("ex25a")
        rep = classify_problem(g, h)
        assert rep.overall_class is ArrangementClass.NON_ALTER
        assert rep.in_nonalter is Verdict.HOLDS

    def test_crossing_disks(self):
        f, g, h, _ = corpus.load("cdt_s2")
        rep = classify_problem(g, h)
        assert rep.overall_class is ArrangementClass.OUTSIDE_NON_ALTER

    def test_parallel_affine_pair(self):
        g = poly1(bx=1, c=-1)       # x - 1
        h = poly1(bx=-2, c=0.5)     # -2x + 0.5
        rep = classify_problem(g, h)
        assert rep.overall_class is ArrangementClass.AFFINE_PAIR_REDUCTION

    def test_soundness_of_certificates(self):
        inputs = [corpus.load(name)[1:3] for name in corpus.NAMES]
        for n in (2, 3, 6):
            for i in range(4):
                inputs.append(random_triple(np.random.default_rng([n, i]), n)[1:])
        refuted = 0
        for g, h in inputs:
            rep = classify_problem(g, h)
            pairs = ((g, h, +1), (g, h, -1), (h, g, +1), (h, g, -1))
            for verdict, (p, q, sign) in zip(rep.inclusions, pairs):
                if verdict.status is InclusionStatus.CERTIFIED_PENCIL:
                    assert nonneg_everywhere((-float(sign)) * q + verdict.lam * p)
                elif verdict.status is InclusionStatus.REFUTED_WITNESS:
                    refuted += 1
                    x = verdict.witness
                    # A view would keep the whole candidate array alive.
                    assert x.base is None
                    assert abs(evaluate(p, x)) <= min(1e-6, 1e-7 * (1.0 + p.data_scale()))
                    assert sign * evaluate(q, x) > DEFAULT_TOL * (1.0 + q.data_scale())
        assert refuted >= 40


def _translated_corpus(shift: float):
    """(name, f, g, h) for each corpus instance moved by x = y + t, in corpus
    order, with |t| = shift along default_rng(7).normal(size=n) normalized:
    q becomes q(y + t) = y'Ay + 2(At + a)'y + q(t)."""
    rng = np.random.default_rng(7)
    for name in corpus.NAMES:
        f, g, h, _ = corpus.load(name)
        t = rng.normal(size=f.n)
        t *= shift / np.linalg.norm(t)
        yield (name, *(QuadForm(q.A, q.A @ t + q.a, evaluate(q, t)) for q in (f, g, h)))


class TestContradictoryVerdicts:
    """A report whose own verdicts contradict assumption 4's "never negative"
    claims is undetermined, not dispatched."""

    def test_translated_corpus_is_never_certified_infeasible(self):
        # At a shift of 10^3 the lifts read a0 ~ 10^6, and the Slater test
        # calls g (or h) never negative, although the report's own witness
        # of assumption 1 shows it negative at or next to that point.  These
        # three were once certified infeasible; each of them is feasible.
        contradicted = 0
        for name, f, g, h in _translated_corpus(1e3):
            rep = solve_nonalter(f, g, h)
            notes = rep.classification.notes
            if any("contradictory verdicts" in note for note in notes):
                contradicted += 1
                assert rep.classification.overall_class is ArrangementClass.UNDETERMINED
                assert not rep.certified
            if name in ("ex25a", "cdt_s2", "hqpd_s5a"):
                assert not rep.certified and rep.status != "infeasible", (name, rep.status)
        assert contradicted >= 3

    def test_redundant_negation_contradicts_assumption3(self):
        # -g >= 0 everywhere would make D = {h <= 0}, but assumption 3 holds.
        g, h = poly2(axx=1, ayy=1, c=-1), poly2(axx=1, c=-0.25)
        rep = classify_problem(g, h)
        assert rep.a3.holds and rep.a4.holds
        a4 = classify.AssumptionVerdict(Verdict.FAILS, certificate={"missing": ("-g",)})
        note = classify._contradiction(g, h, rep.a1, rep.a3, a4, DEFAULT_TOL)
        assert "assumption 3 holds" in note and "-g" in note

    def test_witness_refutes_only_a_negative_value(self):
        # On its zero set the unit disk's g has a nonzero gradient: its
        # minimum along it, at the centre, is -1.  x^2 is zero with a zero
        # gradient on its zero set and positive elsewhere: nothing refutes it.
        disk, square = poly2(axx=1, ayy=1, c=-1), poly2(axx=1)
        assert classify._refutes_nonnegative(disk, np.array([1.0, 0.0]), DEFAULT_TOL)
        assert classify._refutes_nonnegative(disk, np.array([0.1, 0.0]), DEFAULT_TOL)
        for w in ([0.0, 5.0], [1.0, 0.0], [-3.0, 2.0]):
            assert not classify._refutes_nonnegative(square, np.array(w), DEFAULT_TOL)
        a4 = classify.AssumptionVerdict(Verdict.FAILS, certificate={"missing": ("g",)})
        a1 = classify.AssumptionVerdict(Verdict.HOLDS, witness=np.array([1.0, 0.0]))
        a3 = classify.AssumptionVerdict(Verdict.FAILS)
        assert classify._contradiction(square, disk, a1, a3, a4, DEFAULT_TOL) is None
        note = classify._contradiction(disk, square, a1, a3, a4, DEFAULT_TOL)
        assert "witness of assumption 1" in note

    def test_unshifted_corpus_has_no_contradiction(self):
        for name in corpus.NAMES:
            _, g, h, _ = corpus.load(name)
            rep = classify_problem(g, h)
            assert not any("contradictory" in note for note in rep.notes), name


def _verdicts(rep):
    return ([rep.overall_class, rep.in_nonalter]
            + [rep.assumption(k).verdict for k in range(1, 6)]
            + [incl.status for incl in rep.inclusions])


class TestWitnessCandidates:
    @pytest.mark.parametrize("seed, draw", [(104, 9), (1004, 142)])
    def test_pairs_decided_by_single_constraint_optimizers(self, seed, draw):
        # Lines through the origin and the stationary points miss a sign
        # region of these pairs; the optimizers of +-h over {g <= 0} and of
        # +-g over {h <= 0} reach it.
        rng = np.random.default_rng(seed)
        for _ in range(draw + 1):
            f, g, h = random_triple(rng, 4)
        rep = classify_problem(g, h)
        assert rep.overall_class is ArrangementClass.OUTSIDE_NON_ALTER
        assert rep.a3.holds
        pairs = ((g, h, +1), (g, h, -1), (h, g, +1), (h, g, -1))
        for verdict, (p, q, sign) in zip(rep.inclusions, pairs):
            assert verdict.status is InclusionStatus.REFUTED_WITNESS
            x = verdict.witness
            assert abs(evaluate(p, x)) <= 1e-7 * (1.0 + p.data_scale())
            assert sign * evaluate(q, x) > DEFAULT_TOL * (1.0 + q.data_scale())

    @pytest.mark.parametrize("n, draws", [(3, (0, 3, 10, 19)), (4, (0, 11, 69, 97))])
    def test_verdicts_survive_a_translation(self, n, draws):
        # Features moved 30 away from the origin.  These pairs were picked
        # because a witness search inside [-10, 10] changes their verdict.
        rng = np.random.default_rng(600 + n)
        for i in range(max(draws) + 1):
            f, g, h = random_triple(rng, n)
            t = rng.normal(size=n)
            if i not in draws:
                continue
            move = AffineChange(np.eye(n), -30.0 * t / np.linalg.norm(t), 1.0)
            assert _verdicts(classify_problem(move.pull(g), move.pull(h))) == _verdicts(
                classify_problem(g, h)), i

    @pytest.mark.parametrize("n, draw", [(3, 128), (3, 195), (4, 66)])
    def test_thin_cones_decided_by_the_exact_solves(self, n, draw):
        # No candidate line meets these pairs' sets {g <= 0 < h} and
        # {h <= 0 < g}; min -h subject to g <= 0 and min -g subject to
        # h <= 0 are negative, so assumption 3 holds, plain and shifted by 30.
        rng = np.random.default_rng(600 + n)
        for _ in range(draw):
            f, g, h = random_triple(rng, n)
            t = rng.normal(size=n)
        move = AffineChange(np.eye(n), -30.0 * t / np.linalg.norm(t), 1.0)
        for p, q in ((g, h), (move.pull(g), move.pull(h))):
            rep = classify_problem(p, q)
            assert rep.overall_class is ArrangementClass.OUTSIDE_NON_ALTER
            assert rep.a3.holds
            if rep.a3.witness is not None:
                for r in (p, q):
                    assert evaluate(r, rep.a3.witness) <= DEFAULT_TOL * (1.0 + r.data_scale())

    def test_one_decomposition_per_constraint(self, workspace, eig_calls, monkeypatch):
        # The stationary point, the eigenvector directions: one eigh of g.A, one of h.A.
        f, g, h, _ = corpus.load("ex24")
        solve, inner = qp1qc.solve_qp1qc, []

        def counted(*args, **kwargs):
            before = eig_calls[0]
            try:
                return solve(*args, **kwargs)
            finally:
                inner.append(eig_calls[0] - before)

        monkeypatch.setattr(qp1qc, "solve_qp1qc", counted)
        cands = _ray_candidates(g, h, 1e-9)
        assert len(inner) == 4
        assert eig_calls[0] - sum(inner) == 2
        assert np.isfinite(cands.points).all()
        # The solves behind the candidates run at the classification tol.
        for r, (p, q) in ((cands.min_g, (g, h)), (cands.min_h, (h, g)),
                          (cands.max_g, (-g, h)), (cands.max_h, (-h, g))):
            ref = solve(p, q, 1e-9)
            assert r.status == ref.status and r.value == ref.value
            assert np.array_equal(r.x, ref.x)

    def test_four_single_constraint_solves_per_classification(self, monkeypatch):
        # Assumptions 1 and 3 read the solves the witness candidates made.
        solve, calls = qp1qc.solve_qp1qc, []

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(qp1qc, "solve_qp1qc", counted)
        for name in corpus.NAMES:
            f, g, h, _ = corpus.load(name)
            for tol in (DEFAULT_TOL, 1e-9):
                calls.clear()
                classify_problem(g, h, tol)
                assert len(calls) == 4, name

    def test_classification_eigendecomposition_budget(self, eig_calls):
        # Each of g, h, -g, -h decomposes its matrix and its lift at most once
        # per classification; the rest are pencils, one stacked call per
        # small pencil that serves its sign mirror too, and the
        # single-constraint duals behind the candidates.
        f, g, h, _ = corpus.load("ex24")
        classify_problem(g, h)
        assert eig_calls[0] <= 11
        eig_calls[0] = 0
        for name in corpus.NAMES:
            f, g, h, _ = corpus.load(name)
            classify_problem(g, h)
        assert eig_calls[0] <= 122

    def test_reports_do_not_depend_on_the_scan(self, monkeypatch):
        # The stacked scan and the bisection read the same interval, and the
        # decompositions the scan hands on are those of the same matrices:
        # every report is the same byte for byte with the scan off and on.
        docs = [json.loads(corpus.corpus_path(name).read_text()) for name in corpus.NAMES]
        rng = np.random.default_rng(1808)
        docs += [problem_to_dict(*random_triple(rng, (2, 3, 6)[i % 3])) for i in range(40)]
        for doc in docs:
            reports = []
            for scan_max in (0, quad_core._SCAN_MAX):
                monkeypatch.setattr(quad_core, "_SCAN_MAX", scan_max)
                _, g, h, _ = parse_problem_dict(doc)
                reports.append(dumps_report(classify_problem(g, h, 1e-9)))
            monkeypatch.undo()
            assert reports[0] == reports[1]


class TestOneSidedImpliesNoSeparation:
    def test_on_certified_corpus(self):
        # Wherever one zero set is certified one-sided (and the two-sided
        # Slater and degeneracy checks pass), the other zero set cannot
        # split either strict side of the first function.
        for name in ("ex24", "ex25a", "gtrs"):
            f, g, h, _ = corpus.load(name)
            rep = classify_problem(g, h)
            assert rep.a2.verdict is Verdict.HOLDS
            assert rep.a4.verdict is Verdict.HOLDS
            assert rep.a5.verdict is Verdict.HOLDS
            assert detect_separation_by_hyperplane(g, h) is None
            assert detect_separation_by_hyperplane(-1.0 * g, h) is None
            assert detect_separation_by_hyperplane(h, g) is None
            assert detect_separation_by_hyperplane(-1.0 * h, g) is None


#: Unconstrained minima and canonical reductions per corpus classification:
#: a minimum of g, h, -g or -h is computed only where the decomposition of
#: its quadratic part does not show it unbounded below, and a reduction only
#: where the inertia has one negative eigenvalue (15 and 10 in all; 40 and
#: 20 when both were computed every time).
_CORPUS_WORK = {"ex22": (2, 2), "ex23": (0, 2), "ex24": (0, 2), "ex25a": (2, 0),
                "ex25b": (1, 1), "cdt_s2": (2, 0), "hqpd_s5a": (2, 1), "hqpd_s5b": (2, 0),
                "qp1qc_embed": (4, 0), "gtrs": (0, 2)}


class TestWorkPerClassification:
    def test_two_pencil_solves_and_four_minima(self, work_counts, monkeypatch):
        # One root solve per pencil of the pair (the quadratic parts and the
        # lifts), shared by every orientation; at most one minimum per g, h,
        # -g, -h, and only the minima and reductions the inertia leaves open.
        reductions = []
        reduce = classify.canonical_reduce
        monkeypatch.setattr(classify, "canonical_reduce", lambda g: reductions.append(g) or reduce(g))
        assert set(_CORPUS_WORK) == set(corpus.NAMES)
        for name in corpus.NAMES:
            _, g, h, _ = corpus.load(name)
            work_counts.update(solves=0, minima=0)
            reductions.clear()
            classify_problem(g, h, 1e-9)
            assert work_counts["solves"] == 2, name
            assert (work_counts["minima"], len(reductions)) == _CORPUS_WORK[name], name

    def test_candidate_values_once(self, monkeypatch):
        # Assumptions 3 and 1 read g and h at the candidates from one
        # evaluation of each.
        made, evaluated = [], []
        ray_candidates, evaluate_many = classify._ray_candidates, classify.evaluate_many
        monkeypatch.setattr(classify, "_ray_candidates",
                            lambda *args: made.append(ray_candidates(*args)) or made[-1])
        monkeypatch.setattr(classify, "evaluate_many",
                            lambda q, pts: evaluated.append((q, pts)) or evaluate_many(q, pts))
        for name in corpus.NAMES:
            _, g, h, _ = corpus.load(name)
            made.clear()
            evaluated.clear()
            classify_problem(g, h, 1e-9)
            (cands,) = made
            on_candidates = [q for q, pts in evaluated if pts is cands.points]
            assert len(on_candidates) == len(set(map(id, on_candidates))) <= 2, name
            assert all(q is g or q is h for q in on_candidates), name

    def test_parsed_copies_share_nothing(self, work_counts, monkeypatch):
        # The solves live in the workspace of one request: a second request
        # on a second parse of the same document starts from nothing and
        # gives the same report.
        doc = json.loads(corpus.corpus_path("ex25b").read_text())
        pencil, used = quad_core.Workspace.pencil, set()

        def recorded(ws, *args):
            used.add(ws)
            return pencil(ws, *args)

        monkeypatch.setattr(quad_core.Workspace, "pencil", recorded)
        reports, workspaces = [], []
        for _ in range(2):
            _, g, h, _ = parse_problem_dict(doc)
            work_counts.update(solves=0, minima=0)
            used.clear()
            reports.append(dumps_report(classify_problem(g, h, 1e-9)))
            assert work_counts == {"solves": 2, "minima": 1}
            (ws,) = used
            quads = (g, h, ws.negation(g), ws.negation(h))
            for p0, q0, *_ in ws._pair_solves.values():
                assert any(p0 is q for q in quads) and any(q0 is q for q in quads)
            workspaces.append(ws)
        assert reports[0] == reports[1] and workspaces[0] is not workspaces[1]
