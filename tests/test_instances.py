import gc
import hashlib
import json

import numpy as np
import pytest

from kreincalc import (
    KreinSpace,
    NotNormalError,
    NotPsdError,
    ValidationError,
    build_bundle,
    generate,
    parse_instance,
)
from kreincalc.instances import load_json, matrix_from_json, matrix_to_json

from conftest import FIXTURES, PROFILES, instance_matrix


class TestMatrixCodec:
    def test_round_trip(self):
        rng = np.random.default_rng(60)
        M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.array_equal(matrix_from_json(matrix_to_json(M), "M"), M)

    def test_rejects_malformed(self):
        with pytest.raises(ValidationError):
            matrix_from_json([[1.0, 2.0]], "M")

    @staticmethod
    def _entrywise(rows, name):
        """The reference decode: one ``complex(re, im)`` per entry."""
        try:
            M = np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)
        except OverflowError as exc:
            raise ValidationError(f"matrix {name!r} has an entry that is not a finite number") from exc
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"matrix {name!r} is not an array of [re, im] pairs") from exc
        if M.ndim != 2:
            raise ValidationError(f"matrix {name!r} must be two-dimensional")
        if not np.isfinite(M).all():
            raise ValidationError(f"matrix {name!r} has an entry that is not a finite number")
        return M

    @staticmethod
    def _outcome(decode, rows):
        try:
            return "ok", _bits(decode(rows, "M")).tolist()
        except ValidationError as exc:
            return "error", str(exc)

    def test_packed_decode_matches_the_entrywise_reference(self):
        rng = np.random.default_rng(62)
        square = rng.standard_normal((5, 5, 2)).tolist()
        accepted = [
            square,
            rng.standard_normal((3, 7, 2)).tolist(),
            [[[-0.0, 0.0], [0.0, -0.0]], [[5e-324, -5e-324], [1.7e308, -1.7e308]]],
            [[[1, -2], [3, 0]], [[True, False], [2**60 + 1, -(2**53 + 1)]]],
            # numpy scalars reach the decode in dict sources
            [[[np.float64(0.1), np.float32(0.1)], [np.int64(-3), np.bool_(True)]]],
            [[[np.float16(0.1), 0.5], [np.complex128(1 + 2j), 0.5]]],
            [[[1 + 2j, 0.5]]],
            [[[1.5, 0.0]]],
            [[]],
        ]
        rejected = [
            [[["1.0", 0.0]]],
            [[[b"1", 0.0]]],
            [[[None, 0.0]]],
            [[[1.0, "0"]]],
            [[[[1.0, 2.0], [3.0, 4.0]]]],
            [[[1.0, 0.0], [2.0, 0.0]], [[3.0, 0.0]]],
            [[[1.0], [2.0, 0.0]]],
            [[[1.0, 2.0, 3.0]]],
            [[[10**400, 0.0]]],
            [[[0.0, -(10**400)]]],
            [[[float("nan"), 0.0]]],
            [[[0.0, float("inf")]]],
            [[[1.0, 0.0]], "ab"],
            [1.0, 2.0],
            [],
            None,
            "[[1, 0]]",
        ]
        for rows in accepted + rejected:
            want = self._outcome(self._entrywise, rows)
            assert self._outcome(matrix_from_json, rows) == want, rows
        for rows in accepted:
            assert self._outcome(matrix_from_json, rows)[0] == "ok", rows
        for rows in rejected:
            assert self._outcome(matrix_from_json, rows)[0] == "error", rows
        M = matrix_from_json(square, "M")
        assert M.flags.writeable and M.flags.c_contiguous and M.shape == (5, 5)

    def test_json_and_digest_match_the_entrywise_encoding(self):
        def entrywise(M):
            M = np.asarray(M, dtype=complex)
            return [[[float(v.real), float(v.imag)] for v in row] for row in M]

        rng = np.random.default_rng(61)
        M = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        M[0, 1], M[2, 2] = complex(-0.0, 0.0), complex(0.0, -0.0)
        for X in (M, M.T, M[::2], M.real, np.eye(3)):
            assert json.dumps(matrix_to_json(X)) == json.dumps(entrywise(X))
        assert "-0.0" in json.dumps(matrix_to_json(M))
        inst = generate(8, 5, "jordan")
        old = dict(inst.to_json(), J=entrywise(inst.space.J), N=entrywise(inst.N))
        assert json.dumps(inst.to_json(), sort_keys=True) == json.dumps(old, sort_keys=True)
        assert inst.digest() == hashlib.sha256(
            json.dumps(old, sort_keys=True).encode()
        ).hexdigest()[:16]


class TestParse:
    def test_w1_fixture(self, w1):
        assert w1.label == "W1"
        assert w1.pair.p.to_list() == [0.0, 1.0]
        assert w1.pair.q.to_list() == [3.0, -1.0]
        assert w1.searched == ()

    def test_accepts_inline_json(self, w1):
        text = json.dumps(w1.to_json())
        inst = parse_instance(text)
        assert np.allclose(inst.N, w1.N)

    def test_non_hermitian_gram(self):
        data = {
            "J": [[[1, 0], [1, 0]], [[0, 0], [1, 0]]],
            "N": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
        }
        with pytest.raises(ValidationError):
            parse_instance(data)

    def test_non_normal_operator(self):
        data = {
            "J": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
            "N": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]],
        }
        with pytest.raises(NotNormalError):
            parse_instance(data)

    def test_non_definitizing_candidate(self, w1):
        data = w1.to_json()
        data["q"] = [-3.0, 1.0]
        with pytest.raises(NotPsdError) as info:
            parse_instance(data)
        assert str(info.value) == (
            "polynomial q is not definitizing: smallest eigenvalue -1.00e+00 < -6.00e-08"
        )

    def test_missing_operator(self):
        with pytest.raises(ValidationError):
            parse_instance({"J": [[[1, 0]]]})

    def test_search_when_polynomials_missing(self, w1):
        data = w1.to_json()
        del data["p"]
        del data["q"]
        inst = parse_instance(data)
        assert set(inst.searched) == {"p", "q"}
        assert inst.pair.validate() is None

    def test_parts_that_are_not_j_selfadjoint_raise(self):
        # A + iB = iI is normal, but A = iI is not its real part: the parse
        # must not swap the parts for (0, I)
        eye = np.eye(2)
        data = {"J": matrix_to_json(eye), "A": matrix_to_json(1j * eye),
                "B": matrix_to_json(0 * eye), "p": [1.0], "q": [1.0]}
        with pytest.raises(ValidationError, match="'A' is not J-selfadjoint"):
            parse_instance(data)

    def test_normal_operator_is_checked_once(self, monkeypatch):
        data = generate(3, 6, "diagonal").to_json()
        calls = []
        check = KreinSpace.check_normal
        monkeypatch.setattr(
            KreinSpace, "check_normal", lambda self, N: calls.append(1) or check(self, N)
        )
        parse_instance(data)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "name, entry",
        [
            ("J", [float("nan"), 0.0]),
            ("J", [float("inf"), 0.0]),
            ("J", [10**400, 0]),
            ("N", [float("nan"), 0.0]),
            ("N", [1.0, float("-inf")]),
            ("N", [-(10**400), 0]),
        ],
    )
    def test_non_finite_entries_raise(self, name, entry):
        data = {"J": [[[1.0, 0.0]]], "N": [[[1.0, 0.0]]], "p": [1.0], "q": [1.0]}
        data[name] = [[entry]]
        with pytest.raises(ValidationError, match=f"matrix '{name}' has an entry that is not a finite"):
            parse_instance(data)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_literals_are_rejected_at_decode(self, literal):
        text = f'{{"J": [[[{literal}, 0]]], "N": [[[1, 0]]], "p": [1], "q": [1]}}'
        with pytest.raises(ValidationError, match="cannot read an instance"):
            parse_instance(text)

    def test_tol_overrides(self, w1):
        data = w1.to_json()
        data["tol"] = {"cluster": 1e-5}
        inst = parse_instance(data)
        assert inst.space.tol.cluster == 1e-5


@pytest.mark.parametrize(
    "override",
    [
        {"tol": {"bogus": 1}},
        {"tol": {"cluster": "abc"}},
        {"tol": [1, 2]},
        {"tol": {"psd": 1e-8}},
        {"tol": {"ideal": 1e-9}},
        {"tol": {"rel": -1.0}},
        {"tol": {"spec": float("nan")}},
        {"p": "abc"},
        {"q": [1.0, None]},
        {"tol": {"cluster": 10**400}},
        {"p": [10**400]},
        {"q": [1.0, -(10**400)]},
        {"tol": {"boundary_factor": 10}},
    ],
)
def test_malformed_instance_fields_raise_validation_error(w1, override):
    data = w1.to_json()
    data.update(override)
    with pytest.raises(ValidationError):
        parse_instance(data)


def _large_ab_text(seed=128, n=128) -> str:
    """Commuting Hermitian A, B with full-mantissa complex entries, J = I."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    A, B = (Q @ np.diag(rng.integers(-8, 9, size=n) * 0.5) @ Q.conj().T for _ in "AB")
    return json.dumps({
        "label": f"ab-n{n}-seed{seed}",
        "J": matrix_to_json(np.eye(n)),
        "A": matrix_to_json(A),
        "B": matrix_to_json(B),
        "p": [1.0],
        "q": [1.0],
    })


def _decode_texts():
    for path in sorted(FIXTURES.glob("*.json")):
        yield path.name, path.read_text()
    for seed in range(50):
        for profile in PROFILES:
            inst = generate(seed, 2 + seed % 11, profile)
            yield inst.label, json.dumps(inst.to_json(), sort_keys=True)
    yield "ab-n128", _large_ab_text()


def _bits(M):
    return np.ascontiguousarray(M).view(np.int64)


class TestDecode:
    def test_matches_stdlib_json_bit_for_bit(self, tmp_path):
        path = tmp_path / "inst.json"
        for label, text in _decode_texts():
            # the reference decode: stdlib json, then matrix_from_json
            ref_data = json.loads(text)
            keys = [k for k in ("J", "N", "A", "B") if k in ref_data]
            ref = {k: matrix_from_json(ref_data[k], k) for k in keys}
            path.write_text(text)
            for source in (text, path, str(path)):
                data = load_json(source)
                assert data == ref_data, label
                for k in keys:
                    got = matrix_from_json(data[k], k)
                    assert np.array_equal(_bits(got), _bits(ref[k])), (label, k)
            want = parse_instance(ref_data)
            for source in (text, path, load_json(text)):
                inst = parse_instance(source)
                for got, exp in zip(
                    (inst.space.J, inst.pair.A, inst.pair.B), (want.space.J, want.pair.A, want.pair.B)
                ):
                    assert np.array_equal(_bits(got), _bits(exp)), label
                assert inst.pair.p.to_list() == want.pair.p.to_list()
                assert inst.pair.q.to_list() == want.pair.q.to_list()

    def test_a_large_parse_runs_no_collection(self):
        # the decoded lists are freed before the collector resumes, so their
        # allocation count does not trigger a collection that frees nothing
        text = _large_ab_text()
        collections = []

        def record(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        was = gc.isenabled()
        gc.enable()
        gc.collect()
        gc.callbacks.append(record)
        try:
            parse_instance(text)
        finally:
            gc.callbacks.remove(record)
            if not was:
                gc.disable()
        assert collections == []

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("good", [True, False])
    def test_leaves_the_collector_as_it_found_it(self, tmp_path, w1, enabled, good):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(w1.to_json()) if good else '{"J": [[[1, 0]]')
        was = gc.isenabled()
        try:
            if enabled:
                gc.enable()
            else:
                gc.disable()
            if good:
                parse_instance(path)
            else:
                with pytest.raises(ValidationError):
                    parse_instance(path)
            assert gc.isenabled() is enabled
        finally:
            if was:
                gc.enable()
            else:
                gc.disable()


class TestGenerate:
    def test_deterministic_files(self, tmp_path):
        a = generate(7, 5, "diagonal")
        b = generate(7, 5, "diagonal")
        fa, fb = tmp_path / "a.json", tmp_path / "b.json"
        fa.write_text(json.dumps(a.to_json(), sort_keys=True, indent=1))
        fb.write_text(json.dumps(b.to_json(), sort_keys=True, indent=1))
        assert fa.read_bytes() == fb.read_bytes()
        assert a.digest() == b.digest()

    def test_distinct_seeds_differ(self):
        assert generate(1, 5, "diagonal").digest() != generate(2, 5, "diagonal").digest()

    def test_jordan_n2_collapses_to_w2(self, w2):
        inst = generate(0, 2, "jordan")
        assert np.array_equal(inst.space.J, w2.space.J)
        assert np.allclose(inst.N, w2.N)
        assert inst.pair.p.to_list() == w2.pair.p.to_list()
        assert inst.pair.q.to_list() == w2.pair.q.to_list()

    def test_profiles_validate_and_embed(self):
        for seed, n, prof in instance_matrix(24):
            inst = generate(seed, n, prof)
            bundle = build_bundle(inst.pair)
            assert bundle.dim_v <= n

    def test_pontryagin_signature(self):
        inst = generate(3, 6, "pontryagin")
        assert inst.space.signature() == (5, 1)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            generate(0, 1, "diagonal")
        with pytest.raises(ValidationError):
            generate(0, 4, "unknown")

    def test_round_trips_through_files(self, tmp_path):
        inst = generate(11, 6, "jordan")
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(inst.to_json()))
        again = parse_instance(path)
        assert np.allclose(again.N, inst.N)
        assert again.digest() == inst.digest()
