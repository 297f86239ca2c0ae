from fractions import Fraction

import pytest

import hypercourant.scalar
from hypercourant.cartan import TwoForm
from hypercourant.courant import basis_sections, pairing, random_section
from hypercourant.endo import (
    GEndo,
    HKTriple,
    is_orthogonal,
    lift_diagonal,
    lift_symplectic,
    mat_identity,
    mat_neg,
    mat_zero,
    quaternionic_check,
)
from hypercourant.errors import (
    DimensionMismatch,
    NotAlmostComplex,
    NotInverse,
    UncertifiedStructure,
)
from hypercourant.parse import parse_scalar
from hypercourant.sampling import random_scalar, suite_rng
from hypercourant.scalar import ScalarField
from hypercourant.structures import OMEGA_2, QUAT_I, QUAT_J, QUAT_K, const_matrix


def gs(n, *texts):
    from hypercourant.courant import GSection

    return GSection.from_components(tuple(parse_scalar(t, n) for t in texts))


@pytest.fixture(scope="module")
def lifts():
    return {
        "I": lift_diagonal(const_matrix(QUAT_I)),
        "J": lift_diagonal(const_matrix(QUAT_J)),
        "K": lift_diagonal(const_matrix(QUAT_K)),
    }


class TestApply:
    def test_identity(self):
        s = gs(2, "x1", "0", "x2^2", "1")
        assert GEndo.identity(2).apply(s) == s

    def test_diagonal_lift_on_vectors(self, lifts):
        # (X, 0) goes to (-jX, 0)
        s = gs(4, "1", "0", "0", "0", "0", "0", "0", "0")
        out = lifts["J"].apply(s)
        assert out.form.is_zero()
        assert [str(c) for c in out.vec.components] == ["0", "0", "-1", "0"]

    def test_symplectic_lift_on_vectors(self):
        omega = TwoForm(const_matrix(OMEGA_2))
        endo = lift_symplectic(omega, mat_neg(const_matrix(OMEGA_2)))
        s = gs(4, "1", "0", "0", "0", "0", "0", "0", "0")
        out = endo.apply(s)
        assert out.vec.is_zero()
        # form part is the -omega block acting on e1, i.e. minus the first
        # column of the component matrix
        assert [str(c) for c in out.form.components] == ["0", "0", "0", "1"]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            GEndo.identity(2).apply(gs(1, "1", "0"))

    def test_frame_images_are_columns(self, all_triples):
        rng = suite_rng(5, "columns")
        blocks = [[[random_scalar(rng, 2, 2) for _ in range(2)] for _ in range(2)] for _ in range(4)]
        endos = [GEndo(*blocks)] + [f for hk in all_triples.values() for f in hk.members().values()]
        for f in endos:
            columns = f.columns()
            assert len(columns) == 2 * f.n
            for e, column in zip(basis_sections(f.n), columns, strict=True):
                assert f.apply(e) == column

    def test_built_in_triples_make_no_kernel_call(self, all_triples, monkeypatch):
        # every row of I, J and K has one nonzero entry, and a frame section
        # e_a or x_k e_a has one-term components, so each image component is
        # one product of a one-term operand: Polynomial.__mul__ shifts keys
        calls = []
        kernel = hypercourant.scalar._sum_products

        def counted(nvars, triples):
            calls.append(len(triples))
            return kernel(nvars, triples)

        monkeypatch.setattr(hypercourant.scalar, "_sum_products", counted)
        for hk in all_triples.values():
            n = hk.i.n
            frame = basis_sections(n)
            probes = frame + tuple(
                e.smul(ScalarField.coordinate(n, k)) for e in frame for k in range(n)
            )
            for endo in (hk.i, hk.j, hk.k):
                for s in probes:
                    endo.apply(s)
        assert calls == []


class TestConstructor:
    def test_rejects_non_square_block(self):
        z = ScalarField.zero(2)
        square = ((z, z), (z, z))
        with pytest.raises(DimensionMismatch):
            GEndo(square, ((z, z),), square, square)
        with pytest.raises(DimensionMismatch):
            GEndo(square, square, ((z,), (z,)), square)


def test_equal_endomorphisms_hash_equal(lifts):
    again = lift_diagonal(const_matrix(QUAT_I))
    assert again is not lifts["I"] and again == lifts["I"] and hash(again) == hash(lifts["I"])
    twice = -(-lifts["J"])  # built through _of from new entries
    assert twice == lifts["J"] and hash(twice) == hash(lifts["J"])
    assert lifts["I"] != lifts["J"]


class TestCompose:
    def test_identity_neutral(self, lifts):
        ident = GEndo.identity(4)
        assert lifts["I"] @ ident == lifts["I"]
        assert ident @ lifts["I"] == lifts["I"]

    def test_square_is_minus_one(self, lifts):
        assert lifts["I"] @ lifts["I"] == -GEndo.identity(4)

    def test_ij_equals_lift_of_minus_k(self, lifts):
        # with the transpose dual, composing the lifts flips the product sign
        assert lifts["I"] @ lifts["J"] == lift_diagonal(
            mat_neg(const_matrix(QUAT_K))
        )


class TestOrthogonality:
    def test_identity_passes(self):
        assert is_orthogonal(GEndo.identity(3), "F").passed

    def test_diagonal_lift_passes(self, lifts):
        for name, endo in lifts.items():
            assert is_orthogonal(endo, name).passed

    def test_position_dependent_diagonal_lift_passes(self):
        # any invertible pointwise j with j^2 = -1 lifts orthogonally
        n = 2
        u = parse_scalar("1 + x1^2", n)
        zero = ScalarField.zero(n)
        j = ((zero, -(u.reciprocal())), (u, zero))
        assert is_orthogonal(lift_diagonal(j), "F").passed

    def test_scaling_fails_with_witness(self):
        two, zero = ScalarField.const(2, 2), ScalarField.zero(2)
        twice = ((two, zero), (zero, two))
        doubled = GEndo(twice, mat_zero(2), mat_zero(2), twice)
        report = is_orthogonal(doubled, "F")
        assert not report.passed
        w = report.witness
        assert w is not None
        residual = parse_scalar(w.expression, 2)
        point = tuple(Fraction(v) for v in w.point)
        assert residual.evaluate(point) == Fraction(w.value) != 0

    def test_a_defect_names_its_member(self, lifts):
        # J scaled by 2 is not orthogonal, nor is K = I (2J) = 2K, and both
        # fail on the same frame pair with the same residual
        n = lifts["J"].n
        two = tuple(tuple(ScalarField.const(n, 2 * (a == b)) for b in range(n)) for a in range(n))
        doubled = GEndo(two, mat_zero(n), mat_zero(n), two)
        hk = HKTriple.certify(lifts["I"], lifts["J"] @ doubled)
        i, j, k = (report.witness for report in hk.orthogonality)
        assert i is None
        assert j.label.startswith("pairing defect of J on frame pair (")
        assert k.label == j.label.replace(" of J ", " of K ") != j.label
        assert (j.expression, j.value) == (k.expression, k.value)


class TestQuaternionicCheck:
    def test_flat_triple_passes(self, lifts):
        i, j = lifts["I"], lifts["J"]
        assert quaternionic_check(i, j, i @ j).passed

    def test_sign_flipped_k_fails(self, lifts):
        i, j = lifts["I"], lifts["J"]
        report = quaternionic_check(i, j, -(i @ j))
        assert not report.passed
        assert "IJK" in report.witness.label

    def test_identity_triple_fails_on_square(self):
        ident = GEndo.identity(2)
        report = quaternionic_check(ident, ident, ident)
        assert not report.passed
        assert "I^2" in report.witness.label


class TestLiftPreconditions:
    def test_diagonal_requires_almost_complex(self):
        with pytest.raises(NotAlmostComplex):
            lift_diagonal(mat_identity(2))

    def test_standard_complex_structure_on_r2(self):
        zero = ScalarField.zero(2)
        one = ScalarField.one(2)
        j = ((zero, -one), (one, zero))
        endo = lift_diagonal(j)
        assert is_orthogonal(endo, "F").passed
        assert endo @ endo == -GEndo.identity(2)

    def test_symplectic_r2_round_trip(self):
        n = 2
        zero = ScalarField.zero(n)
        one = ScalarField.one(n)
        omega = TwoForm(((zero, one), (-one, zero)))
        inv = ((zero, -one), (one, zero))
        endo = lift_symplectic(omega, inv)
        assert endo @ endo == -GEndo.identity(n)
        assert is_orthogonal(endo, "F").passed

    def test_symplectic_rejects_wrong_inverse(self):
        n = 2
        zero = ScalarField.zero(n)
        one = ScalarField.one(n)
        omega = TwoForm(((zero, one), (-one, zero)))
        with pytest.raises(NotInverse):
            lift_symplectic(omega, mat_identity(n))

    def test_symplectic_r4_omega2_is_orthogonal(self):
        omega = TwoForm(const_matrix(OMEGA_2))
        endo = lift_symplectic(omega, mat_neg(const_matrix(OMEGA_2)))
        assert is_orthogonal(endo, "F").passed


class TestHKTriple:
    def test_certify_defaults_k_to_ij(self, lifts):
        triple = HKTriple.certify(lifts["I"], lifts["J"])
        assert triple.certified
        assert triple.k == lifts["I"] @ lifts["J"]

    def test_cyclic_rotations_stay_quaternionic(self, lifts):
        triple = HKTriple.certify(lifts["I"], lifts["J"])
        for rotated in (
            (triple.k, triple.i, triple.j),
            (triple.j, triple.k, triple.i),
        ):
            assert HKTriple.certify(*rotated).certified

    def test_skew_adjointness_consequence(self, lifts):
        # orthogonal with square -1 forces <Fs, t> + <s, Ft> = 0
        triple = HKTriple.certify(lifts["I"], lifts["J"])
        basis = basis_sections(4)
        for endo in (triple.i, triple.j, triple.k):
            for a in range(8):
                for b in range(8):
                    r = pairing(endo.apply(basis[a]), basis[b]) + pairing(
                        basis[a], endo.apply(basis[b])
                    )
                    assert r.is_zero()

    def test_uncertified_is_flagged(self):
        ident = GEndo.identity(2)
        triple = HKTriple.certify(ident, ident)
        assert not triple.certified
        assert tuple(r.passed for r in triple.orthogonality) == (True, True, True)
        assert not triple.quaternionic.passed
        with pytest.raises(UncertifiedStructure):
            triple.require_certified()

    def test_smul_linearity_of_apply(self, lifts):
        rng = suite_rng(1, "endo-linearity")
        s = random_section(rng, 4, 1)
        f = parse_scalar("x1 + 2", 4)
        endo = lifts["I"]
        assert endo.apply(s.smul(f)) == endo.apply(s).smul(f)
