import hashlib
import json
import random
import sys

import pytest

from korth.codes import (
    PauliOp,
    StabilizerCode,
    StandardFormCode,
    code_from_json,
    code_to_json,
    css_standard_form,
    is_css,
    to_standard_form,
    _pauli_reduce,
)
from korth import gf2
from korth.degenerate import degeneracy_classes, nondegenerate_reduction
from korth.errors import InvalidCodeError
from korth.families import hamming_parity_check, subdual_css
from korth.gf2 import BitMat, BitVec, rank
from korth.lemmas import logical_zero_support
from korth.phases import DyadicPhaseVector

from conftest import (
    apply_pauli,
    bitmat,
    five_qubit_code,
    frame_conjugate,
    mat_from_rows,
    random_css_sf,
    groups_equal,
    pauli_group_member,
    reference_logical_x,
    reference_pauli_reduce,
    rotated,
    scrambled,
    span_enumerate,
    sparse_logical_zero,
    spans_equal,
    states_proportional,
    sweep_rank,
    textbook_steane,
)


class TestPauliOp:
    def test_label_round_trip(self):
        for label in ("+XZZXI", "-YIX", "+iY", "-iZZ", "+IIII", "-XXXX"):
            assert PauliOp.from_label(label).label() == label

    def test_xz_is_minus_i_y(self):
        x = PauliOp.from_label("+X")
        z = PauliOp.from_label("+Z")
        assert (x * z).label() == "-iY"
        assert (z * x).label() == "+iY"

    def test_product_against_matrices(self):
        import numpy as np

        mats = {
            "I": np.eye(2),
            "X": np.array([[0, 1], [1, 0]], dtype=complex),
            "Y": np.array([[0, -1j], [1j, 0]]),
            "Z": np.array([[1, 0], [0, -1]], dtype=complex),
        }
        signs = {"+": 1, "-": -1, "+i": 1j, "-i": -1j}

        def to_matrix(op: PauliOp):
            label = op.label()
            sign = "+i" if label.startswith("+i") else (
                "-i" if label.startswith("-i") else label[0]
            )
            body = label[len(sign):]
            out = np.array([[signs[sign]]])
            for ch in body:
                out = np.kron(out, mats[ch])
            return out

        rng = random.Random(1)
        for _ in range(50):
            n = rng.randint(1, 3)
            a = PauliOp(n, rng.getrandbits(n), rng.getrandbits(n), rng.randrange(4))
            b = PauliOp(n, rng.getrandbits(n), rng.getrandbits(n), rng.randrange(4))
            assert np.allclose(to_matrix(a) @ to_matrix(b), to_matrix(a * b))

    def test_commutes_examples(self):
        x1 = PauliOp.from_label("+XI")
        z2 = PauliOp.from_label("+IZ")
        z1 = PauliOp.from_label("+ZI")
        assert x1.commutes_with(z2)
        assert not x1.commutes_with(z1)
        assert PauliOp.from_label("+XX").commutes_with(PauliOp.from_label("+ZZ"))

    def test_conjugations(self):
        y = PauliOp.from_label("+Y")
        assert y.conjugated_by_s(1).label() == "-X"
        x = PauliOp.from_label("+X")
        assert x.conjugated_by_s(1).label() == "+Y"
        assert x.conjugated_by_z(1).label() == "-X"
        z = PauliOp.from_label("+Z")
        assert z.conjugated_by_x(1).label() == "-Z"
        assert z.conjugated_by_s(1).label() == "+Z"


class TestValidation:
    def test_anticommuting_generators(self):
        code = StabilizerCode(
            2, (PauliOp.from_label("+XI"), PauliOp.from_label("+ZI"))
        )
        with pytest.raises(InvalidCodeError, match="anticommute"):
            code.validate()

    def test_dependent_generators(self):
        code = StabilizerCode(
            3,
            (
                PauliOp.from_label("+XXI"),
                PauliOp.from_label("+IXX"),
                PauliOp.from_label("+XIX"),
            ),
        )
        with pytest.raises(InvalidCodeError, match="dependent"):
            code.validate()

    def test_multi_logical_rejected_with_guidance(self):
        code = StabilizerCode(3, (PauliOp.from_label("+ZZI"),))
        with pytest.raises(InvalidCodeError, match="promote"):
            to_standard_form(code)

    @pytest.mark.parametrize("logical_z", ["+ZIZIZIZ", "+XIXIXIX", "+YIYIYIY", "rotated"])
    def test_stabilizer_declared_as_logical_z(self, logical_z):
        # A stabilizer commutes with every generator, so validate passes it;
        # with no logical X declared, only the reduction can refuse it.
        code = textbook_steane()
        if logical_z == "rotated":
            code = rotated(code, random.Random(3))
            lz = code.generators[0] * code.generators[4]
        else:
            lz = PauliOp.from_label(logical_z)
        code = StabilizerCode(7, code.generators, logical_z=lz)
        code.validate()
        with pytest.raises(InvalidCodeError, match="logical_z lies in the stabilizer group"):
            to_standard_form(code)

    def test_order_four_generator(self):
        code = StabilizerCode(1, (PauliOp.from_label("+iY"),))
        with pytest.raises(InvalidCodeError, match="square"):
            code.validate()


class TestValidationRejections:
    """One minimal malformed input per rejection of the two ``validate``s."""

    @pytest.mark.parametrize("code, message", [
        (StabilizerCode(3, (PauliOp.from_label("+ZZ"),)), "generator on 2 qubits in an n=3 code"),
        (StabilizerCode(3, (PauliOp.from_label("+III"),)), "identity (or phase-only) generator"),
        (StabilizerCode(3, (PauliOp.from_label("+ZZI"),), logical_x=PauliOp.from_label("+III")),
         "logical_x is not a valid order-2 Pauli"),
        (StabilizerCode(3, (PauliOp.from_label("+ZZI"),), logical_z=PauliOp.from_label("+iZZZ")),
         "logical_z is not a valid order-2 Pauli"),
        (StabilizerCode(3, (PauliOp.from_label("+ZZI"), PauliOp.from_label("+IZZ")),
                        logical_x=PauliOp.from_label("+XXX"),
                        logical_z=PauliOp.from_label("+ZZI")),
         "logical X and logical Z must anticommute"),
    ], ids=["wrong-qubit-count", "identity", "identity-logical", "order-four-logical",
            "commuting-logicals"])
    def test_stabilizer_code(self, code, message):
        with pytest.raises(InvalidCodeError) as info:
            code.validate()
        assert str(info.value) == message

    @staticmethod
    def malformed(sf, fault):
        """``sf`` with one fault; A_X rows 0 and 1, A_Z row 0 and the logical
        supports r and s are the parts changed."""
        n, m = sf.n, sf.m
        ax, az = sf.a_x.row_ints(), sf.a_z.row_ints()
        r, s = sf.r.bits, sf.s.bits
        zero_rows = [0] * (m - 1)

        def low(bits):  # the lowest set bit
            return bits & -bits

        changes = {
            "b-shape": {"b": BitMat.zero(m + 1, n)},
            "r-width": {"r": BitVec.zeros(n + 1)},
            "phase-count": {"x_phases": (0,) * (m + 1)},
            "a_x-rank": {"a_x": BitMat.from_ints(n, [ax[0], *ax[:-1]])},
            "a_z-dependent": {"a_z": BitMat.from_ints(n, [az[0], *az[:-1]])},
            "logical-count": {"a_z": BitMat.from_ints(n, az[1:])},
            "phase-value": {"x_phases": (2,) + sf.x_phases[1:]},
            # Z on a qubit of X row 1 but not of X row 0.
            "x-rows-anticommute": {"b": BitMat.from_ints(n, [low(ax[1] & ~ax[0]), *zero_rows])},
            "z-row-anticommutes": {"a_z": BitMat.from_ints(n, [az[0] ^ low(ax[0]), *az[1:]])},
            "r-anticommutes": {"r": BitVec(n, r ^ low(ax[0]))},
            "r-in-stabilizer": {"r": BitVec(n, az[0])},
            # r commutes with every X row, so only s sees the changed B part.
            "s-anticommutes-b": {"b": BitMat.from_ints(n, [r, *zero_rows])},
            "s-anticommutes-a_z": {"s": BitVec(n, s ^ low(az[0]))},
            "r-s-even": {"s": BitVec.zeros(n)},
        }
        fields = {name: getattr(sf, name) for name in StandardFormCode.__slots__}
        return StandardFormCode(**{**fields, **changes[fault]})

    @pytest.mark.parametrize("fault, message", [
        ("b-shape", "B block shape must match A_X"),
        ("r-width", "block widths disagree"),
        ("phase-count", "one phase per X-bearing row required"),
        ("a_x-rank", "A_X is not full rank"),
        ("a_z-dependent", "A_Z rows are dependent"),
        ("logical-count", "3 + 2 generators on 7 qubits does not leave one logical qubit"),
        ("phase-value", "X-bearing row 0 has a non-normalized sign"),
        ("x-rows-anticommute", "X-bearing rows 0 and 1 anticommute"),
        ("z-row-anticommutes", "a Z row anticommutes with an X-bearing row"),
        ("r-anticommutes", "logical Z support anticommutes with A_X"),
        ("r-in-stabilizer", "logical Z support lies in the stabilizer"),
        ("s-anticommutes-b", "logical X support anticommutes with a B part"),
        ("s-anticommutes-a_z", "logical X support anticommutes with A_Z"),
        ("r-s-even", "logical X and Z supports overlap evenly"),
    ])
    def test_standard_form_code(self, fault, message):
        sf = subdual_css(3)
        sf.validate()
        with pytest.raises(InvalidCodeError) as info:
            self.malformed(sf, fault).validate()
        assert str(info.value) == message


class TestStandardForm:
    def test_steane_any_order(self, rng):
        base = subdual_css(3)
        code = base.to_stabilizer_code()
        for _ in range(10):
            sf = to_standard_form(scrambled(code, rng, drop_logicals=True))
            assert is_css(sf)
            assert spans_equal(sf.a_x, base.a_x)
            assert spans_equal(sf.a_z, base.a_z)
            assert all(p == 0 for p in sf.x_phases)

    def test_idempotent_on_standard_input(self):
        base = subdual_css(4)
        sf = to_standard_form(base.to_stabilizer_code())
        assert spans_equal(sf.a_x, base.a_x)
        assert spans_equal(sf.a_z, base.a_z)
        assert sf.r == base.r
        assert sf.s == base.s

    def test_five_qubit_not_css(self):
        sf = to_standard_form(five_qubit_code())
        assert not is_css(sf)
        assert any(not row.is_zero() for row in sf.b.rows)
        assert sf.r == BitVec.ones(5)
        assert sf.s == BitVec.ones(5)
        sf.validate()

    def test_textbook_steane(self):
        sf = to_standard_form(textbook_steane())
        assert is_css(sf)
        assert sf.m == 3
        assert sf.r == BitVec.ones(7)
        assert sf.s == BitVec.ones(7)

    def test_group_preserved_exactly(self, rng):
        base = subdual_css(3).to_stabilizer_code()
        code = scrambled(base, rng, sign_flips=False, drop_logicals=True)
        sf = to_standard_form(code)
        out = list(sf.to_stabilizer_code().generators)
        # consistent input signs: no frame change, groups match outright
        assert sf.local_x_mask.is_zero() and sf.local_z_mask.is_zero()
        assert groups_equal(list(code.generators), out)

    def test_group_preserved_through_frame(self, rng):
        base = subdual_css(3).to_stabilizer_code()
        code = scrambled(base, rng, sign_flips=True, drop_logicals=True)
        sf = to_standard_form(code)
        out = list(sf.to_stabilizer_code().generators)
        conj = [frame_conjugate(sf, g) for g in code.generators]
        assert groups_equal(conj, out)

    def test_sign_normalization(self, rng):
        # flip some stabilizer signs; the reduced form must still carry
        # + signs on the pure-Z rows and +1 coefficients on a CSS support
        base = subdual_css(3).to_stabilizer_code()
        gens = [
            PauliOp(g.n, g.x, g.z, g.i_exp + 2 * rng.randint(0, 1))
            for g in base.generators
        ]
        code = StabilizerCode(7, tuple(gens))
        sf = to_standard_form(code)
        support = logical_zero_support(sf)
        assert all(phase == 1 for _, phase in support)

    def test_y_content_code_uses_rotation_mask(self):
        code = StabilizerCode(2, (PauliOp.from_label("+YY"),))
        sf = to_standard_form(code)
        sf.validate()
        assert not sf.local_s_mask.is_zero()
        # conjugating the input by the recorded frame gives the output group
        conj = [frame_conjugate(sf, g) for g in code.generators]
        out = list(sf.to_stabilizer_code().generators)
        assert groups_equal(conj, out)

    def test_mixed_declared_logical_z_is_purified(self):
        # multiply the declared logical Z by an X stabilizer: same coset,
        # but the operator now carries X content that must be cleared
        base = subdual_css(3).to_stabilizer_code()
        mixed = base.logical_z * base.generators[0]
        code = StabilizerCode(7, base.generators, base.logical_x, mixed)
        sf = to_standard_form(code)
        sf.validate()
        assert sf.s == BitVec.ones(7)
        # the purified support stays in the declared logical's coset
        diff = sf.r ^ BitVec(7, mixed.z)
        from korth.gf2 import in_rowspan

        assert in_rowspan(diff, sf.a_z)

    def test_output_state_is_stabilized(self, rng):
        # sparse state-vector oracle: the reconstructed logical zero must be
        # a +1 eigenvector of every generator, including the pure-Z ones
        for base in (subdual_css(3).to_stabilizer_code(), five_qubit_code()):
            code = scrambled(base, rng, sign_flips=False)
            sf = to_standard_form(code)
            state = sparse_logical_zero(sf)
            for i in range(sf.m):
                assert states_proportional(
                    apply_pauli(state, sf.x_row_pauli(i)), state
                ) == pytest.approx(1)
            for j in range(sf.a_z.nrows):
                assert states_proportional(
                    apply_pauli(state, sf.z_row_pauli(j)), state
                ) == pytest.approx(1)
            # and of Z_r with eigenvalue +1, while X_s maps it to |1_L>
            z_r = PauliOp(sf.n, 0, sf.r.bits, 0)
            assert states_proportional(apply_pauli(state, z_r), state) == pytest.approx(1)


class TestStandardFormHoldsWithoutRecheck:
    """``to_standard_form`` does not re-run ``StandardFormCode.validate``:
    ``StabilizerCode.validate`` and the reduction establish every check it
    makes, on the certificate corpus and on random valid codes alike."""

    @staticmethod
    def corpus():
        for m in range(3, 11):  # what `construct --m` writes, read back
            yield f"construct-{m}", code_from_json(code_to_json(subdual_css(m).to_stabilizer_code()))
        for m in (5, 6, 10):
            base = subdual_css(m).to_stabilizer_code()
            s_mask = random.Random(55).getrandbits(base.n)
            yield f"scrambled-{m}", scrambled(base, random.Random(m), permute_qubits=True)
            yield f"bare-{m}", scrambled(base, random.Random(m), permute_qubits=True,
                                         drop_logicals=True)
            yield f"sign-flipped-{m}", scrambled(base, random.Random(m), sign_flips=True)
            yield f"s-conjugated-{m}", scrambled(base, random.Random(m), permute_qubits=True,
                                                 s_mask=s_mask)
            yield f"s-conjugated-bare-{m}", scrambled(base, random.Random(m), s_mask=s_mask,
                                                      drop_logicals=True)
        for m in range(3, 8):  # no pure-X logical under most local Clifford frames
            base = subdual_css(m).to_stabilizer_code()
            for seed in range(4):
                yield f"rotated-{m}-{seed}", rotated(base, random.Random(seed))
        yield "five-qubit", five_qubit_code()
        yield "y-pair", StabilizerCode(2, (PauliOp.from_label("+YY"),))
        yield "textbook-steane", textbook_steane()

    def test_certificate_corpus(self):
        for name, code in self.corpus():
            to_standard_form(code).validate()

    def test_rotated_codes_under_generator_products(self):
        """Exact products of generator pairs, then a shuffle, keep the group,
        and with it every field of the standard form.  Where no pure-X
        logical exists, the logical X is the one first derived from A_Z's
        kernel basis."""
        derived = 0
        for seed, (name, code) in enumerate(self.corpus()):
            if not name.startswith("rotated-"):
                continue
            sf = to_standard_form(code)
            copy = scrambled(code, random.Random(seed), sign_flips=False)
            assert copy.generators != code.generators
            assert to_standard_form(copy) == sf, name
            checks = BitMat.from_ints(code.n, [g.z for g in code.generators] + [sf.r.bits])
            if gf2.solve(checks, BitVec.from_indices(checks.nrows, [checks.nrows - 1])) is None:
                derived += 1
                assert sf.s == reference_logical_x(sf), name
        assert derived >= 14  # of the 20 rotated codes

    def test_rotated_codes_keep_their_group(self):
        for name, code in self.corpus():
            if name.startswith("rotated-"):
                sf = to_standard_form(code)
                conj = [frame_conjugate(sf, g) for g in code.generators]
                assert groups_equal(conj, list(sf.to_stabilizer_code().generators)), name

    def test_random_valid_codes(self):
        rng = random.Random(63)
        for _ in range(200):
            to_standard_form(random_valid_code(rng)).validate()


class TestOneReductionOfSignedZRows:
    """``validate`` reduces the signed pure-Z rows (sign as bit n) once, and
    standard form reads B's reduction, the X-frame mask and the Z block off
    that ``RowSpace``.  Calls are seen through the code object of
    ``gf2._eliminate``, so a module holding its own reference is counted too."""

    @pytest.fixture
    def passes(self):
        seen = []
        target = gf2._eliminate.__code__

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is target:
                seen.append(list(frame.f_locals["rows"]))

        sys.setprofile(profile)
        yield seen
        sys.setprofile(None)

    def test_scrambled_code_without_logicals(self, passes):
        code = scrambled(subdual_css(6).to_stabilizer_code(), random.Random(6),
                         drop_logicals=True)
        sf = to_standard_form(code)
        n, x_mask = code.n, sf.local_x_mask.bits
        assert x_mask  # some reduced Z row carries a minus sign
        signed = [c | ((c & x_mask).bit_count() & 1) << n for c in sf.a_z.row_ints()]
        dim = sweep_rank(signed)
        same_span = [rows for rows in passes
                     if sweep_rank(rows) == dim == sweep_rank(rows + signed)]
        assert len(same_span) == 1


class TestStandardFormDigest:
    """sha256 over every field of 200 seeded standard forms, recorded before
    standard form read its signs and logicals off the one reduction: the frame
    masks show in no report, so this is what pins them.  Re-recorded when a
    code without a pure-X logical began to read its logical X and S mask off
    A_Z's kernel and A_X's pivots: 8 of the 200 take that branch (codes 57,
    73, 80, 117, 157, 162, 191 and 196, counted from 0), and all but 117 and
    196 changed; each form from that branch is checked here to validate and
    keep the group under its frame."""

    def test_scrambled_codes(self):
        rng = random.Random(71)
        digest = hashlib.sha256()
        s_masked = []
        for index in range(200):
            code = random_valid_code(rng)
            if code.logical_z is not None and rng.random() < 0.5:
                # same logical coset, but with X content to purify away
                x_gens = [g for g in code.generators if g.x]
                mixed = code.logical_z * rng.choice(x_gens)
                code = StabilizerCode(code.n, code.generators, code.logical_x, mixed)
            sf = to_standard_form(code)
            fields = [sf.a_x, sf.b, sf.a_z, sf.r, sf.s, sf.x_phases,
                      sf.local_x_mask, sf.local_s_mask, sf.local_z_mask]
            digest.update("|".join(map(str, fields)).encode() + b"\n")
            if sf.local_s_mask.bits:
                s_masked.append(index)
                sf.validate()
                conj = [frame_conjugate(sf, g) for g in code.generators]
                assert groups_equal(conj, list(sf.to_stabilizer_code().generators))
        assert s_masked == [57, 73, 80, 117, 157, 162, 191, 196]
        assert digest.hexdigest() == (
            "1b88561652b23abfa2f707503959e66266bfbac812592123ef13777314979365"
        )


class TestLogicalZeroSupport:
    def test_steane_support(self):
        sf = subdual_css(3)
        support = logical_zero_support(sf)
        assert len(support) == 8
        strings = {v.bits for v, _ in support}
        assert strings == {v.bits for v in span_enumerate(sf.a_x)}
        assert all(phase == 1 for _, phase in support)

    def test_trivial_code(self):
        sf = css_standard_form(
            BitMat.zero(0, 1), BitMat.zero(0, 1), BitVec.ones(1), BitVec.ones(1)
        )
        assert logical_zero_support(sf) == [(BitVec.zeros(1), 1)]

    def test_subdual4_weights(self):
        support = logical_zero_support(subdual_css(4))
        assert len(support) == 16
        assert sorted({v.weight for v, _ in support}) == [0, 8]

    def test_five_qubit_phases_fourth_roots(self):
        sf = to_standard_form(five_qubit_code())
        support = logical_zero_support(sf)
        assert len(support) == 2 ** sf.m
        assert all(phase in (1, 1j, -1, -1j) for _, phase in support)

    def test_closed_under_xor(self):
        sf = subdual_css(3)
        strings = {v.bits for v, _ in logical_zero_support(sf)}
        for a in strings:
            for b in strings:
                assert a ^ b in strings


class TestDegeneracy:
    def test_hamming_all_singletons(self):
        part = degeneracy_classes(hamming_parity_check(4))
        assert len(part.classes) == 15
        assert all(len(c.indices) == 1 and not c.undetectable for c in part.classes)

    def test_duplicate_columns_share_class(self):
        M = bitmat(["1100", "1100"])
        part = degeneracy_classes(M)
        by_rep = {c.representative: c for c in part.classes}
        assert by_rep[0].indices == (0, 1)
        assert by_rep[2].indices == (2, 3)
        assert by_rep[2].undetectable

    def test_row_operation_invariance(self, rng):
        from conftest import random_full_rank

        M = random_full_rank(rng, 3, 8)
        rows = list(M.rows)
        rows[0] = rows[0] ^ rows[1]
        rows[2] = rows[2] ^ rows[0]
        M2 = mat_from_rows(rows)
        part1 = degeneracy_classes(M)
        part2 = degeneracy_classes(M2)
        assert [c.indices for c in part1.classes] == [c.indices for c in part2.classes]


class TestNondegenerateReduction:
    def test_identity_on_nondegenerate(self):
        sf = subdual_css(3)
        theta = DyadicPhaseVector(2, tuple(range(7)))
        view, reduced = nondegenerate_reduction(sf, theta)
        assert reduced == theta
        assert view.representatives == tuple(range(7))

    def test_two_qubit_class_sums(self):
        a_x = bitmat(["1100", "0011"])
        a_z = bitmat(["1111"])
        sf = css_standard_form(a_x, a_z)
        theta = DyadicPhaseVector(3, (1, 1, 2, 5))
        view, reduced = nondegenerate_reduction(sf, theta)
        assert reduced.p == (2, 0, 7, 0)
        assert len({c for c in view.a_x.column_ints()}) == view.a_x.ncols

    def test_reduced_columns_distinct(self, rng):
        from korth.gf2 import null_space

        from conftest import random_full_rank

        base = random_full_rank(rng, 3, 5)
        cols = base.column_ints() + [base.column_ints()[0]] * 2
        a_x = BitMat.from_ints(
            7, [sum(((c >> i) & 1) << j for j, c in enumerate(cols)) for i in range(3)]
        )
        a_z = mat_from_rows(list(null_space(a_x).rows)[:3])
        sf = css_standard_form(a_x, a_z)
        theta = DyadicPhaseVector(2, tuple(rng.randrange(4) for _ in range(7)))
        view, _ = nondegenerate_reduction(sf, theta)
        vals = view.a_x.column_ints()
        assert len(set(vals)) == len(vals)


class TestJson:
    def test_round_trip_bit_exact(self):
        code = subdual_css(4).to_stabilizer_code()
        text = code_to_json(code)
        again = code_from_json(text)
        assert again == code
        assert code_to_json(again) == text

    def test_parse_canonical_dict(self):
        d = {
            "n": 5,
            "stabilizers": ["+XZZXI", "+IXZZX", "+XIXZZ", "+ZXIXZ"],
            "logical_x": "+XXXXX",
            "logical_z": "+ZZZZZ",
        }
        code = code_from_json(json.dumps(d))
        assert code == five_qubit_code()
        assert json.loads(code_to_json(code)) == d

    def test_logicals_optional(self):
        d = {"n": 2, "stabilizers": ["+XX"]}
        code = code_from_json(json.dumps(d))
        assert code.logical_x is None
        sf = to_standard_form(code)
        sf.validate()

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            code_from_json(json.dumps({"n": 2, "stabilizers": ["XX"]}))


class TestCssStandardForm:
    def test_steane_from_checks(self):
        h = hamming_parity_check(3)
        sf = css_standard_form(h, h)
        sf.validate()
        assert is_css(sf)
        assert sf.r.dot_parity(sf.s) == 1

    def test_non_orthogonal_rejected(self):
        with pytest.raises(InvalidCodeError, match="orthogonal"):
            css_standard_form(BitMat.identity(3), BitMat.identity(3))

    def test_wrong_logical_count(self):
        h = hamming_parity_check(3)
        with pytest.raises(InvalidCodeError, match="logical"):
            css_standard_form(h, BitMat.zero(0, 7))


class TestGroupMembershipHelper:
    def test_sign_sensitive(self):
        gens = [PauliOp.from_label("+ZZ")]
        assert pauli_group_member(PauliOp.from_label("+ZZ"), gens)
        assert not pauli_group_member(PauliOp.from_label("-ZZ"), gens)


def reference_validate(code: StabilizerCode) -> None:
    """The validation as first written: every generator pair checked with
    ``commutes_with``, then the rank of the full symplectic matrix."""
    for g in code.generators:
        if g.n != code.n:
            raise InvalidCodeError(f"generator on {g.n} qubits in an n={code.n} code")
        if g.is_identity():
            raise InvalidCodeError("identity (or phase-only) generator")
        if not g.squares_to_identity():
            raise InvalidCodeError(f"generator {g.label()} does not square to +1")
    for i, g in enumerate(code.generators):
        for h in code.generators[i + 1:]:
            if not g.commutes_with(h):
                raise InvalidCodeError(f"generators {g.label()} and {h.label()} anticommute")
    symp = BitMat.from_ints(2 * code.n, [g.x | (g.z << code.n) for g in code.generators])
    if rank(symp) != len(code.generators):
        raise InvalidCodeError("generators are dependent")
    for name, op in (("logical_x", code.logical_x), ("logical_z", code.logical_z)):
        if op is None:
            continue
        if op.n != code.n:
            raise InvalidCodeError(f"{name} acts on {op.n} qubits, code has {code.n}")
        if op.is_identity() or not op.squares_to_identity():
            raise InvalidCodeError(f"{name} is not a valid order-2 Pauli")
        for g in code.generators:
            if not op.commutes_with(g):
                raise InvalidCodeError(f"{name} anticommutes with stabilizer {g.label()}")
    if code.logical_x is not None and code.logical_z is not None:
        if code.logical_x.commutes_with(code.logical_z):
            raise InvalidCodeError("logical X and logical Z must anticommute")


def outcome(check, code):
    try:
        check(code)
    except InvalidCodeError as exc:
        return str(exc)
    return None


def hermitian(n: int, x: int, z: int, sign: int) -> PauliOp:
    """The order-2 Pauli with these parts and sign bit."""
    return PauliOp(n, x, z, (x & z).bit_count() + 2 * sign)


def random_valid_code(rng: random.Random) -> StabilizerCode:
    """A one-qubit code with mixed, signed and (half the time) Y-bearing rows."""
    if rng.random() < 0.2:
        base = five_qubit_code()
    else:
        n = rng.randint(3, 14)
        base = random_css_sf(rng, n, rng.randint(1, n - 2)).to_stabilizer_code()
    s_mask = rng.getrandbits(base.n) if rng.random() < 0.5 else 0
    return scrambled(base, rng, sign_flips=True, s_mask=s_mask,
                     drop_logicals=rng.random() < 0.3, permute_qubits=True)


def with_anticommuting_pair(code: StabilizerCode, rng: random.Random) -> StabilizerCode:
    """Flip one X or Z bit of one generator, keeping it order 2."""
    gens = list(code.generators)
    j, q = rng.randrange(len(gens)), rng.randrange(code.n)
    g = gens[j]
    x, z = (g.x ^ (1 << q), g.z) if rng.random() < 0.5 else (g.x, g.z ^ (1 << q))
    if x or z:
        gens[j] = hermitian(code.n, x, z, rng.randint(0, 1))
    return StabilizerCode(code.n, tuple(gens), code.logical_x, code.logical_z)


def with_dependent_generator(code: StabilizerCode, rng: random.Random) -> StabilizerCode:
    """Replace one generator by a product of others (or append one)."""
    gens = list(code.generators)
    i, j = rng.sample(range(len(gens)), 2)
    product = gens[i] * gens[j]
    if rng.random() < 0.5:
        gens.append(product)
    else:
        gens[rng.choice([k for k in range(len(gens)) if k not in (i, j)] or [i])] = product
    rng.shuffle(gens)
    return StabilizerCode(code.n, tuple(gens), code.logical_x, code.logical_z)


class TestFoldedValidationAgainstPairwiseScan:
    """``validate`` checks commutation on its one reduction and reads the
    rank from it; the pairwise scan and the symplectic rank stay here as the
    reference, message for message.  The reduction of the X-bearing rows, one
    elimination with each sign read off the rows it combines, is checked
    against the row-by-row Pauli products it replaced."""

    def check(self, code):
        expected = outcome(reference_validate, code)
        assert outcome(StabilizerCode.validate, code) == expected
        self.check_reduction(code)
        return expected

    @staticmethod
    def check_reduction(code):
        """The X-bearing rows match the oracle's X parts, and so its pivots
        (their lowest bits); where the generators commute and -I is not in
        their group, the kept rows generate the oracle's signed group."""
        n = code.n
        gens = [g for g in code.generators if g.x]
        x_rows, rest = _pauli_reduce(gens, n)
        ref_x, ref_rest = reference_pauli_reduce(gens, n)
        assert [g.x for g in x_rows] == [g.x for g in ref_x]
        assert all(not g.x and g.z for g in rest)
        # -I is in the group exactly when the signs of the oracle's rows
        # without X raise their rank.
        signed = [g.z | (g.i_exp >> 1) << n for g in ref_rest]
        if all(g.commutes_with(h) for g in gens for h in gens) and (
            sweep_rank(signed) == sweep_rank(g.z for g in ref_rest)
        ):
            assert groups_equal(x_rows + rest, ref_x + ref_rest)

    def test_rotated_codes(self):
        for name, code in TestStandardFormHoldsWithoutRecheck.corpus():
            if name.startswith("rotated-"):
                assert self.check(code) is None, name

    def test_valid_codes(self):
        rng = random.Random(61)
        for _ in range(150):
            code = random_valid_code(rng)
            assert self.check(code) is None
            x_rows, signed_z = code.validate()
            n = code.n
            assert all(g.x for g in x_rows) and n not in signed_z.pivots
            z_rows = [PauliOp(n, 0, row, 2 * (row >> n)) for row in signed_z.rows]
            assert groups_equal(x_rows + z_rows, list(code.generators))

    def test_one_anticommuting_pair(self):
        rng = random.Random(62)
        seen = set()
        for _ in range(150):
            message = self.check(with_anticommuting_pair(random_valid_code(rng), rng))
            seen.add(message.split()[-1] if message else None)
        assert "anticommute" in seen

    def test_dependent_generator(self):
        rng = random.Random(63)
        for _ in range(150):
            code = random_valid_code(rng)
            if len(code.generators) < 3:
                continue
            assert self.check(with_dependent_generator(code, rng)) == (
                "generators are dependent"
            )

    def test_both_faults_report_the_anticommuting_pair(self):
        rng = random.Random(64)
        hits = 0
        for _ in range(150):
            code = random_valid_code(rng)
            if len(code.generators) < 3:
                continue
            code = with_anticommuting_pair(with_dependent_generator(code, rng), rng)
            message = self.check(code)
            hits += bool(message and message.endswith("anticommute"))
        assert hits > 50

    def test_random_generator_sets(self):
        # Arbitrary order-2 rows: mostly anticommuting, some dependent,
        # some with -I in the group.
        rng = random.Random(65)
        for _ in range(300):
            n = rng.randint(1, 6)
            gens = [
                hermitian(n, rng.getrandbits(n) & rng.getrandbits(n),
                          rng.getrandbits(n) & rng.getrandbits(n), rng.randint(0, 1))
                for _ in range(rng.randint(0, n + 1))
            ]
            self.check(StabilizerCode(n, tuple(g for g in gens if not g.is_identity())))

    def test_minus_identity_from_x_bearing_rows(self):
        # YY XX = -ZZ, so with +ZZ the group holds -I.
        code = StabilizerCode(3, tuple(map(PauliOp.from_label, ("+XXI", "+ZZI", "+YYI"))))
        assert self.check(code) == "generators are dependent"
        x_rows, rest = _pauli_reduce([code.generators[0], code.generators[2]], 3)
        assert [g.label() for g in x_rows + rest] == ["+XXI", "-ZZI"]

    def test_signed_pure_z_dependency(self):
        code = StabilizerCode(3, (PauliOp.from_label("+ZZI"), PauliOp.from_label("-ZZI")))
        assert self.check(code) == "generators are dependent"

    def test_empty_generator_list(self):
        code = StabilizerCode(4, ())
        assert self.check(code) is None
        x_rows, signed_z = code.validate()
        assert x_rows == [] and signed_z.rows == []


def per_letter(label: str) -> PauliOp:
    """The operator a label names, read one letter at a time."""
    sign = next(p for p in ("+i", "-i", "+", "-") if label.startswith(p))
    body = label[len(sign):]
    x = sum(1 << i for i, c in enumerate(body) if c in "XY")
    z = sum(1 << i for i, c in enumerate(body) if c in "ZY")
    return PauliOp(len(body), x, z, ("+", "+i", "-", "-i").index(sign) + body.count("Y"))


class TestLabelStrings:
    def test_round_trip_and_per_letter_reference(self):
        rng = random.Random(66)
        for n in range(71):
            for _ in range(5):
                x, z = (rng.getrandbits(n), rng.getrandbits(n)) if n else (0, 0)
                op = PauliOp(n, x, z, rng.randrange(4))
                letters = "".join(
                    "IXZY"[((x >> i) & 1) + 2 * ((z >> i) & 1)] for i in range(n)
                )
                sign = ("+", "+i", "-", "-i")[(op.i_exp - (x & z).bit_count()) % 4]
                assert op.label() == sign + letters
                assert PauliOp.from_label(op.label()) == op == per_letter(op.label())

    @pytest.mark.parametrize("sign", ["+", "-", "+i", "-i"])
    @pytest.mark.parametrize("letter", ["X", "Z", "Y", "I"])
    def test_one_letter_bodies(self, sign, letter):
        # The parse skips an axis the label does not carry: pure-X, pure-Z,
        # pure-Y and all-I bodies, and the empty body at n = 0.
        for n in range(71):
            label = sign + letter * n
            op = PauliOp.from_label(label)
            assert op == per_letter(label)
            assert (op.n, op.x == 0, op.z == 0) == (n, letter in "ZI" or not n,
                                                    letter in "XI" or not n)

    @pytest.mark.parametrize("label,letter", [
        ("+XQZ", "Q"), ("-ZxX", "x"), ("+iXZé", "é"), ("+XX Z", " "), ("+Q?", "Q"),
        # after the letters an axis check finds first: pure-Z, pure-X, pure-Y
        # and all-I bodies, and characters a base-2 parse would accept
        ("+ZZZQ", "Q"), ("-XXXXé", "é"), ("+iYYq", "q"), ("-iIII?", "?"),
        ("+ZZ1", "1"), ("+Z0Z", "0"), ("+Z_Z", "_"), ("+XX-", "-"), ("+ZZ\udc80", "\udc80"),
        ("+II\t", "\t"), ("+Z١", "١"),
    ])
    def test_first_invalid_letter_named(self, label, letter):
        with pytest.raises(InvalidCodeError) as exc:
            PauliOp.from_label(label)
        assert str(exc.value) == f"invalid Pauli letter {letter!r} in {label!r}"


class TestJsonIntegers:
    @pytest.mark.parametrize("n", [7.9, 7.0, True, "7", None, -1])
    def test_non_integer_n_rejected(self, n):
        with pytest.raises(InvalidCodeError, match="integer n"):
            code_from_json(json.dumps({"n": n, "stabilizers": []}))
