import json

import pytest

from hypercourant.endo import GEndo, HKTriple, lift_diagonal, lift_symplectic, mat_neg
from hypercourant.cartan import TwoForm
from hypercourant.errors import NotInverse
from hypercourant.runfile import parse_structure_text
from hypercourant.scalar import ScalarField
from hypercourant.structures import (
    EXAMPLE_NAMES,
    OMEGA_1,
    OMEGA_2,
    QUAT_I,
    QUAT_J,
    QUAT_K,
    conjugated,
    const_matrix,
    diagonal,
    example,
    frame_change,
    structure_file,
)

ONE, X1 = ScalarField.one(4), ScalarField.coordinate(4, 0)
# A = diag(1, 1 + x1^2, 1, 1) and its inverse, whose frame change gives the
# nonintegrable example
NONINTEGRABLE_FRAME = tuple(diagonal((ONE, a, ONE, ONE)) for a in (ONE + X1 * X1, ONE / (ONE + X1 * X1)))


def flat_reference() -> HKTriple:
    return HKTriple.certify(lift_diagonal(const_matrix(QUAT_I)), lift_diagonal(const_matrix(QUAT_J)))


# each example built from the lifts and the conjugation, not from its document
REFERENCES = {
    "flat-quaternionic": flat_reference,
    "holomorphic-symplectic": lambda: HKTriple.certify(
        lift_symplectic(TwoForm(const_matrix(OMEGA_2)), mat_neg(const_matrix(OMEGA_2))),
        lift_diagonal(const_matrix(QUAT_I)),
    ),
    "nonintegrable": lambda: conjugated(flat_reference(), *frame_change(*NONINTEGRABLE_FRAME)),
}


class TestQuaternionMatrices:
    def test_left_multiplication_algebra(self):
        i = const_matrix(QUAT_I)
        j = const_matrix(QUAT_J)
        k = const_matrix(QUAT_K)
        from hypercourant.endo import mat_identity, mat_mul

        minus_one = mat_neg(mat_identity(4))
        assert mat_mul(i, i) == minus_one
        assert mat_mul(j, j) == minus_one
        assert mat_mul(k, k) == minus_one
        assert mat_mul(i, j) == k
        assert mat_mul(mat_mul(i, j), k) == minus_one


class TestBuilders:
    def test_flat_certified(self, flat):
        assert flat.certified

    def test_holomorphic_symplectic_certified(self, holsymp):
        assert holsymp.certified

    def test_holsymp_k_comes_from_omega_1(self, holsymp):
        # K = I J equals the symplectic lift of -omega_1; the lift of
        # +omega_1 is the same structure with K negated
        w1 = const_matrix(OMEGA_1)
        assert holsymp.k == lift_symplectic(TwoForm(mat_neg(w1)), w1)
        plus = lift_symplectic(TwoForm(w1), mat_neg(w1))
        assert holsymp.k == -plus

    def test_omega1_lift_itself_is_orthogonal_square_minus_one(self):
        from hypercourant.endo import is_orthogonal

        w1 = const_matrix(OMEGA_1)
        endo = lift_symplectic(TwoForm(w1), mat_neg(w1))
        assert is_orthogonal(endo, "F").passed
        assert endo @ endo == -GEndo.identity(4)

    def test_nonintegrable_certified_but_conjugated(self, noni, flat):
        assert noni.certified
        assert noni.i != flat.i
        frame, frame_inv = frame_change(*NONINTEGRABLE_FRAME)
        assert frame @ frame_inv == GEndo.identity(4)
        assert noni.k == (frame @ flat.k) @ frame_inv

    def test_conjugated_refuses_a_wrong_inverse(self, flat):
        # P^-1 given as P: P P = diag(A^2, A^-2) is not the identity
        frame, frame_inv = frame_change(*NONINTEGRABLE_FRAME)
        with pytest.raises(NotInverse):
            conjugated(flat, frame, frame)
        with pytest.raises(NotInverse):
            conjugated(flat, frame_inv, frame_inv)

    def test_conjugated_j_is_diagonal_lift_of_conjugated_matrix(self, noni):
        # conjugating a diagonal lift by diag(A, (A^T)^-1) equals the
        # diagonal lift of A j A^-1
        from hypercourant.endo import mat_mul

        frame, frame_inv = frame_change(*NONINTEGRABLE_FRAME)
        a, a_inv = frame.blocks()["A"], frame_inv.blocks()["A"]
        j_conj = mat_mul(mat_mul(a, const_matrix(QUAT_J)), a_inv)
        assert noni.j == lift_diagonal(j_conj)


class TestStructureFiles:
    @pytest.mark.parametrize("name", EXAMPLE_NAMES)
    def test_files_parse_and_certify(self, name):
        doc = structure_file(name)
        sf = parse_structure_text(json.dumps(doc))
        assert sf.triple.certified
        assert sf.triple.n == 4
        assert set(sf.checks) == {
            "axioms",
            "certification",
            "connection-laws",
            "identities",
            "theorem",
        }

    @pytest.mark.parametrize("name", EXAMPLE_NAMES)
    def test_document_triple_matches_reference(self, name):
        assert example(name) == REFERENCES[name]()

    @pytest.mark.parametrize("name", EXAMPLE_NAMES)
    def test_each_document_is_new(self, name):
        # a benchmark job sets the seed and trials of the document it is given
        doc = structure_file(name)
        before = json.loads(json.dumps(doc))
        doc["options"]["seed"] = 101
        doc["options"]["trials"] = 2
        assert structure_file(name) == before

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            structure_file("klein-bottle")
