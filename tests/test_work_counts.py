"""Work counts, checked without timing.  In the Wedderburn pipeline: one
exact idempotent check per block, wrong gluings stopped by the bound or
the check mod q, pieces with a 1-dimensional ideal never tried again, the lifted roots
of unity computed once per (conductor, prime, exponent), and no product of
two different idempotents.  In the integrality layer: one Casimir minimal
polynomial per Frobenius structure, and no product in A (x) A for the
Casimir powers.  In the Schneider check: no product in H while Psi is
proven multiplicative on the blocks.  In the
scalars: no rational operation inside a product or sum in Q(zeta_n), and
no operation of Q or Q(zeta_n) in the associativity scan or the Casimir
operator, which run on the integral table.
In the lifting: each block is lifted once per component and level,
however many gluings it is tried in, and not at all when the bound
allows gluing at p.  In a whole analysis: no method of the dense
``Matrix``."""

import copy
import sys
from fractions import Fraction

import pytest

import frobdiv.hopf as hopf
import frobdiv.integrality as integrality
import frobdiv.modular as modular
import frobdiv.wedderburn as wedderburn
from frobdiv import (QQ, CyclotomicField, HopfAnalysis, Rat,
                     central_primitive_idempotents, drinfeld_double,
                     frobenius_divisibility_verdict, frobenius_structure,
                     group_algebra, integrals, named_group)
from frobdiv.algebra import (FrobeniusStructure, StructureConstantAlgebra,
                             TensorSquareAlgebra)
from frobdiv.cli import main
from frobdiv.linalg import Matrix
from frobdiv.scalars import Cyc
from frobdiv.serialize import algebra_to_json, canonical_dumps, hopf_to_json

from conftest import matrix_blocks
from dense_oracle import (carrier_minimal_polynomial, change_basis_algebra,
                          transpose, unimodular_matrix)


def kc4():
    """k[C4] over Q(zeta_4): four 1-dimensional blocks, two components."""
    return group_algebra(named_group("C4"), conductor=4).algebra


def double_c4():
    """D(C4) over Q(zeta_4): sixteen 1-dimensional blocks."""
    G = named_group("C4")
    return drinfeld_double(G, conductor=G.exponent)[0].algebra


def _one_exact_check_per_block(A, monkeypatch):
    checked = []
    original = wedderburn._verify_idempotent

    def counted(algebra, e):
        checked.append(e)
        return original(algebra, e)

    monkeypatch.setattr(wedderburn, "_verify_idempotent", counted)
    data = central_primitive_idempotents(A)
    assert data.num_blocks == A.dim  # both are commutative and split
    assert len(checked) == data.num_blocks
    assert all(e in checked for e in data.idempotents)


def test_one_exact_check_per_block(monkeypatch):
    _one_exact_check_per_block(kc4(), monkeypatch)


def test_one_exact_check_per_block_of_double_c4(monkeypatch):
    _one_exact_check_per_block(double_c4(), monkeypatch)


def test_wrong_gluing_rejected_mod_q(monkeypatch):
    A = kc4()
    p = 13
    comps, per_comp = wedderburn._split_components(A, p, 0)
    F = frobenius_structure(A, A.regular_character())
    glued, screened, exact = [], [], []
    original_rec = modular.reconstruct_element
    original_screen = wedderburn._idempotent_mod_q
    original_verify = wedderburn._verify_idempotent

    def recording_rec(*args):
        out = original_rec(*args)
        glued.append(out)
        return out

    def recording_screen(algebra, e, check):
        ok = original_screen(algebra, e, check)
        screened.append(ok)
        return ok

    def recording_verify(algebra, e):
        exact.append(e)
        return original_verify(algebra, e)

    monkeypatch.setattr(wedderburn, "reconstruct_element", recording_rec)
    monkeypatch.setattr(wedderburn, "_idempotent_mod_q", recording_screen)
    monkeypatch.setattr(wedderburn, "_verify_idempotent", recording_verify)
    glue = wedderburn.TraceGluing(A, F.dual_combination, p, comps, 1)
    assert glue.exp == 1 and glue.bound == 1
    b0 = per_comp[0][0]
    right = []
    for b1 in per_comp[1]:
        before = (len(glued), len(screened), len(exact))
        res = glue((b0, b1))
        if res is None:
            # stopped by the bound, or by the screen mod q
            assert glued[before[0]:] == [None] or \
                screened[before[1]:] == [False]
            assert len(exact) == before[2]
        else:
            right.append(res[1])
    # one gluing is right, and only it reaches the exact check
    assert len(right) == 1 and exact == right
    assert None in glued
    for e in central_primitive_idempotents(A).idempotents:
        assert original_screen(A, e, glue.check_comps)


def test_screen_stops_gluings_within_the_bound(monkeypatch):
    # kA4 over Q(zeta_12): some wrong gluings have every coefficient within
    # the bound; the screen mod q stops them before the exact check
    A = group_algebra(named_group("A4"), conductor=12).algebra
    rejected, exact = [], []
    original_screen = wedderburn._idempotent_mod_q
    original_verify = wedderburn._verify_idempotent

    def recording_screen(algebra, e, check):
        ok = original_screen(algebra, e, check)
        if not ok:
            rejected.append(e)
        return ok

    def recording_verify(algebra, e):
        exact.append(e)
        return original_verify(algebra, e)

    monkeypatch.setattr(wedderburn, "_idempotent_mod_q", recording_screen)
    monkeypatch.setattr(wedderburn, "_verify_idempotent", recording_verify)
    data = central_primitive_idempotents(A)
    assert rejected and len(exact) == data.num_blocks
    assert all(A.multiply(x, x) != x for x in rejected)


def test_roots_of_unity_lifted_once_per_precision(monkeypatch):
    # kS3 over Q(zeta_24): eight components, and a degree-2 block whose
    # split certificate lifts field roots as well as idempotents
    lifted = []
    original = modular.lift_cyclotomic_root

    def recording(n, p, target_modulus):
        lifted.append((n, p, target_modulus))
        return original(n, p, target_modulus)

    monkeypatch.setattr(modular, "lift_cyclotomic_root", recording)
    modular.component_roots.cache_clear()
    A = group_algebra(named_group("S3"), conductor=24).algebra
    data = central_primitive_idempotents(A)
    assert data.degrees == [1, 1, 2] and all(data.split_certified)
    assert lifted and len(lifted) == len(set(lifted))
    # a second split in the same process lifts nothing again
    before = len(lifted)
    central_primitive_idempotents(A)
    assert len(lifted) == before


def _recording_try_split(monkeypatch):
    """Record dim e Z of every piece e handed to the splitter."""
    tried = []
    original = modular._try_split

    def recording(cmult, e, direction, r, p, rng):
        tried.append(modular._ideal_dim(cmult, e, r, p))
        return original(cmult, e, direction, r, p, rng)

    monkeypatch.setattr(modular, "_try_split", recording)
    return tried


def test_final_pieces_never_split_again(monkeypatch):
    tried = _recording_try_split(monkeypatch)
    A = kc4()
    for w in modular.component_roots(4, 13, 1)[0]:
        blocks = modular.modular_split(modular.ComponentAlgebra(A, w, 13))
        assert [b.center_dim for b in blocks] == [1, 1, 1, 1]
    assert tried and all(d > 1 for d in tried)


def test_piece_with_larger_ideal_stays_in_the_loop(monkeypatch):
    # Z(Q[C3]) = Q x Q(zeta_3); mod 11 the second factor is F_121, a piece
    # with a 2-dimensional ideal that no direction splits
    tried = _recording_try_split(monkeypatch)
    A = group_algebra(named_group("C3"), field=QQ).algebra
    blocks = modular.modular_split(modular.ComponentAlgebra(A, 1, 11))
    assert sorted(b.center_dim for b in blocks) == [1, 2]
    assert 1 not in tried
    assert tried.count(2) > len(blocks)


def test_one_casimir_minimal_polynomial_per_structure(monkeypatch, tmp_path):
    # D(S3) --check all: the verdict needs the Casimir certificate of D(S3)
    # (dim 36), the class-equation and Schneider checks both need that of
    # its representation ring (dim 8)
    dims = []
    original = integrality.minimal_polynomial_over_Q

    def recording(field, dim, unit, times):
        owner = getattr(times, "__self__", None)
        if isinstance(owner, FrobeniusStructure):
            dims.append(owner.algebra.dim)
        return original(field, dim, unit, times)

    monkeypatch.setattr(integrality, "minimal_polynomial_over_Q", recording)
    G = named_group("S3")
    H, Q = drinfeld_double(G, conductor=G.exponent)
    doc = tmp_path / "ds3.json"
    doc.write_text(canonical_dumps(hopf_to_json(H, lam=integrals(H).lam,
                                                R=Q.R)))
    assert main(["analyze", str(doc), "--check", "all",
                 "--out", str(tmp_path / "report.txt")]) == 0
    assert sorted(dims) == [8, 36]


def test_plain_verdict_forms_no_tensor_products(monkeypatch):
    calls = []
    original = TensorSquareAlgebra.mult

    def counted(self, u, v):
        calls.append(1)
        return original(self, u, v)

    monkeypatch.setattr(TensorSquareAlgebra, "mult", counted)
    A = matrix_blocks((3, 2, 1))
    F = frobenius_structure(A, A.regular_character())
    data = central_primitive_idempotents(A, F)
    calls.clear()
    verdict = frobenius_divisibility_verdict(A, F, data)
    assert calls == []
    # the carrier loop makes one product in A (x) A per power of c
    poly = carrier_minimal_polynomial(TensorSquareAlgebra(A), F.casimir)
    assert poly == verdict.casimir_cert.min_poly
    assert len(calls) == len(poly) - 1 == 6


def _recording_multiply(monkeypatch):
    """Record (a, b, calling function) of every ``multiply`` call; a call
    from a comprehension or lambda counts as one from the function around
    it."""
    calls = []
    original = StructureConstantAlgebra.multiply

    def recording(self, a, b):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):
            frame = frame.f_back
        calls.append((a, b, frame.f_code))
        return original(self, a, b)

    monkeypatch.setattr(StructureConstantAlgebra, "multiply", recording)
    return calls


def test_split_multiplies_no_two_idempotents(monkeypatch):
    calls = _recording_multiply(monkeypatch)
    checked = []
    original = StructureConstantAlgebra.is_idempotent

    def recording(self, e):
        checked.append(e)
        return original(self, e)

    monkeypatch.setattr(StructureConstantAlgebra, "is_idempotent", recording)
    data = central_primitive_idempotents(kc4())
    idems = data.idempotents
    # the exact check e e = e ran on every idempotent, so the test below
    # cannot pass for want of any product
    assert data.num_blocks == 4 and checked
    assert all(e in checked for e in idems)
    assert not [1 for a, b, _ in calls if a != b and a in idems and b in idems]


def test_schneider_check_forms_no_product(monkeypatch):
    G = named_group("S3")
    H, Q = drinfeld_double(G, conductor=G.exponent)
    S = HopfAnalysis(H, Q.R)
    S.quasitriangular = Q
    S.frobenius, S.ring  # built before the products are recorded
    calls = _recording_multiply(monkeypatch)
    assert hopf.schneider_check(S).holds
    # Psi is proven multiplicative on the blocks of H: no product in H
    assert calls == []
    # with two second legs of b swapped, the proof on the blocks fails, and
    # the products of basis pairs name the pair
    n = H.dim
    k1, k2 = [k for k in range(n) if not H.counit[k]][:2]
    swap = {k1: k2, k2: k1}
    bad = copy.copy(Q)
    bad.b = {idx - idx % n + swap.get(idx % n, idx % n): c
             for idx, c in Q.b.items()}
    T = copy.copy(S)
    T.quasitriangular = bad
    T.factorizable = hopf.factorizable_check(bad)
    with pytest.raises(integrality.NotASymmetricHomomorphism,
                       match="multiplicativity"):
        hopf.schneider_check(T)
    assert calls
    assert not [1 for _, _, code in calls
                if code is hopf.schneider_check.__code__]


def test_cyclotomic_product_makes_no_fraction_operation(monkeypatch):
    K = CyclotomicField(24)
    a = K.element([Rat(3, 4), 0, -2, Rat(5, 6), 1, 0, Rat(-7, 9), 2])
    b = K.element([1, Rat(-1, 2), 0, 4, Rat(2, 3), -1, 0, Rat(1, 5)])
    ops = []
    for name in ("__mul__", "__add__"):
        original = getattr(Fraction, name)

        def counted(x, y, original=original, name=name):
            ops.append(name)
            return original(x, y)

        monkeypatch.setattr(Fraction, name, counted)
    assert Rat(1, 2) * Rat(2, 3) == Rat(1, 3) and ops  # the counter works
    ops.clear()
    prod = a * b
    total = a + b
    assert ops == []
    monkeypatch.undo()
    assert prod != total and prod * b.inv() == a


def _counted_field_operations(monkeypatch):
    """Record every product, sum and difference of two Fractions or two
    Cycs, reflected ones included."""
    ops = []
    for cls in (Fraction, Cyc):
        for name in ("__mul__", "__rmul__", "__add__", "__radd__",
                     "__sub__", "__rsub__"):
            original = getattr(cls, name)

            def counted(x, y, original=original, name=name):
                ops.append(name)
                return original(x, y)

            monkeypatch.setattr(cls, name, counted)
    return ops


@pytest.mark.parametrize("name", ["M3+M2+Q dense", "kS3/Q(zeta3)"])
def test_integral_loops_make_no_field_operation(monkeypatch, name):
    # the associativity scan and the Casimir operator run on the integral
    # table, over Q and over Q(zeta_n) alike
    if name == "kS3/Q(zeta3)":
        H = group_algebra(named_group("S3"), conductor=3)
        A, lam = H.algebra, integrals(H).lam
    else:
        blocks = matrix_blocks((3, 2, 1))
        P = unimodular_matrix(QQ, blocks.dim, 0)
        A = change_basis_algebra(blocks, P)
        lam = transpose(P).apply(blocks.regular_character())
    F = frobenius_structure(A, lam)
    T = TensorSquareAlgebra(A)
    ops = _counted_field_operations(monkeypatch)
    one = A.field.one
    assert one * one == one and one + one != one and ops  # counters work
    ops.clear()
    report = A.verify()
    c = F.casimir_times(T.unit)
    assert ops == []
    monkeypatch.undo()
    assert report.passed and c == F.casimir


def _counted_lifts(monkeypatch):
    lifts = []
    original = wedderburn.hensel_lift_idempotent

    def counted(comp, e, M):
        lifts.append(M)
        return original(comp, e, M)

    monkeypatch.setattr(wedderburn, "hensel_lift_idempotent", counted)
    return lifts


def _levels(data):
    """Lifting steps to the precision p^k of the data: log2 k."""
    return data.precision_used.bit_length() - 1


def test_double_c4_lifts_each_block_once_per_component(monkeypatch):
    # D(C4) over Q(i): 16 one-dimensional blocks in 2 components; its
    # representation ring (dim 16 too) is the algebra with many wrong
    # gluings.  Each block is lifted at most once per component and level;
    # under the bound neither needs a lift
    G = named_group("C4")
    H, _ = drinfeld_double(G, conductor=G.exponent)
    lifts = _counted_lifts(monkeypatch)
    data = central_primitive_idempotents(H.algebra)
    assert len(lifts) <= data.num_blocks * H.field.phi * _levels(data)
    lifts.clear()
    S = HopfAnalysis(H)
    S.wedderburn = data
    ring = hopf.representation_ring(S)
    blocks = ring.wedderburn.num_blocks
    assert blocks == 16
    assert len(lifts) <= blocks * H.field.phi * _levels(ring.wedderburn)


def test_double_c4_glues_at_p_without_lifting(monkeypatch):
    lifts = _counted_lifts(monkeypatch)
    data = central_primitive_idempotents(double_c4())
    assert data.precision_used == 1 and lifts == []


def test_dense_basis_lifts_each_block_once_per_level(monkeypatch):
    # M3+M2+Q on a dense basis: the bound needs a power of p above p, and
    # each block is lifted once per level in its one component
    A = change_basis_algebra(matrix_blocks((3, 2, 1)),
                             unimodular_matrix(QQ, 14, 3))
    lifts = _counted_lifts(monkeypatch)
    data = central_primitive_idempotents(A)
    assert data.num_blocks == 3 and data.precision_used > 1
    assert len(lifts) == data.num_blocks * _levels(data)


@pytest.mark.parametrize("name", ["D(S3)", "M3+M2+Q dense"])
def test_analysis_calls_no_dense_matrix_method(monkeypatch, tmp_path, name):
    # the library computes on sparse rows and columns only: with the
    # elimination methods of Matrix (which the benchmark's tracer binds)
    # made to raise, `analyze --check all` writes the same report
    doc = tmp_path / "in.json"
    if name == "D(S3)":
        assert main(["build", "--group", "S3", "--as", "double",
                     "--out", str(doc)]) == 0
    else:
        A = change_basis_algebra(matrix_blocks((3, 2, 1)),
                                 unimodular_matrix(QQ, 14, 3))
        doc.write_text(canonical_dumps(algebra_to_json(A)) + "\n")

    def analyze(out):
        code = main(["analyze", str(doc), "--check", "all", "--format",
                     "json", "--out", str(out)])
        return code, out.read_bytes()

    called = []
    for method in ("rref", "kernel", "solve_many", "minimal_polynomial",
                   "apply"):
        def refuse(self, *args, method=method):
            called.append(method)
            raise AssertionError(f"Matrix.{method} called")
        monkeypatch.setattr(Matrix, method, refuse)
    sparse_only = analyze(tmp_path / "sparse.json")
    monkeypatch.undo()
    assert called == []
    assert sparse_only == analyze(tmp_path / "reference.json")
