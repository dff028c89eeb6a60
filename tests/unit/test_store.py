"""Unit tests for the zero-copy mmap compiled store.

Covers the on-disk format (magic, version envelope, block directory), the
stat-keyed open cache, the compiled-set ``to_store``/``from_store`` surface,
store adoption by the batch evaluator (including store-backed process
sharding), the session-level compile/open workflow and the ``cobra compile``
/ ``cobra batch --store`` CLI round trip.
"""

import hashlib
import json
import struct

import numpy as np
import pytest

from repro.batch import BatchEvaluator
from repro.cli.main import main
from repro.engine.scenario import Scenario
from repro.engine.session import CobraSession
from repro.exceptions import SerializationError, SessionStateError
from repro.provenance.backends import resolve_backend
from repro.provenance.monomial import Monomial
from repro.provenance.polynomial import Polynomial, ProvenanceSet
from repro.provenance.serialization import save_provenance_set
from repro.provenance.store import (
    MAGIC,
    clear_store_cache,
    open_store,
    read_store_header,
    write_store,
)
from repro.provenance.valuation import CompiledProvenanceSet, Valuation


@pytest.fixture
def provenance():
    """Three groups of different widths, one with higher powers."""
    result = ProvenanceSet()
    result[("g1",)] = Polynomial.from_terms(
        [(2.0, ["x", "y"]), (3.0, ["z"]), (1.0, [])]
    )
    result[("g2",)] = Polynomial(
        {Monomial({"x": 2}): 1.5, Monomial({"y": 1, "z": 1}): -4.0}
    )
    result[("g3",)] = Polynomial.from_terms([(5.0, [])])
    return result


@pytest.fixture
def scenarios():
    return [
        Scenario("s1").scale(["x"], 2.0),
        Scenario("s2").set_value(["z"], 0.0),
        Scenario("s3").scale(["x", "y"], 0.5).set_value(["ghost"], 3.0),
    ]


def _store(provenance, tmp_path, name="c.cps"):
    compiled = CompiledProvenanceSet(provenance)
    path = tmp_path / name
    write_store(compiled, path)
    return compiled, path


def _rewrite_header(path, mutate):
    """Re-serialise the header after ``mutate(document)`` edited it in place."""
    raw = path.read_bytes()
    prefix_len = len(MAGIC) + 4
    (header_len,) = struct.unpack_from("<I", raw, len(MAGIC))
    document = json.loads(raw[prefix_len : prefix_len + header_len])
    mutate(document)
    header = json.dumps(document).encode("utf-8")
    path.write_bytes(
        raw[: len(MAGIC)]
        + struct.pack("<I", len(header))
        + header
        + raw[prefix_len + header_len :]
    )


#: SHA-256 of the bytes :func:`write_store` produces for the ``provenance``
#: fixture (constant terms, higher powers, three widths), per backend.  The
#: format is frozen at version 2: stores written by earlier builds must keep
#: opening the same, so a changed digest needs a new ``STORE_VERSION``.
STORE_DIGESTS = {
    "real": "54ef3bed495504b1082fa920893657344f912a587c2d3c5cb4d1a9c69c13d384",
    "tropical": "9bf0d4e39ce80a4c75b9b613030576fad336488b0d2003d91a9c8e40c2a3d633",
    "bool": "e4bd9a74f79bb7dae4ad9fd0c4bf753fe68cf1b2ec072e023adb340b580665fa",
}


class TestStoreBytes:
    @pytest.mark.parametrize("backend", sorted(STORE_DIGESTS))
    def test_store_bytes_are_pinned(self, provenance, tmp_path, backend):
        path = tmp_path / f"{backend}.cps"
        write_store(resolve_backend(backend).compile(provenance), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == STORE_DIGESTS[backend]

    @pytest.mark.parametrize("backend", sorted(STORE_DIGESTS))
    def test_store_opens_like_the_compiled_set(self, provenance, tmp_path, backend):
        compiled = resolve_backend(backend).compile(provenance)
        path = tmp_path / f"{backend}.cps"
        write_store(compiled, path)
        mapped = open_store(path, cached=False)
        assert type(mapped) is type(compiled)
        assert mapped.size() == compiled.size() == provenance.size()
        assert mapped.keys == compiled.keys
        rng = np.random.default_rng(0)
        matrix = rng.uniform(0.0, 2.0, (5, len(compiled.variables)))
        matrix[1, 0] = 0.0
        assert np.array_equal(
            mapped.evaluate_matrix(matrix), compiled.evaluate_matrix(matrix)
        )
        plans = [
            (np.array([0]), np.array([0.0])),
            (np.array([1, 2]), np.array([3.0, 0.5])),
        ]
        assert np.array_equal(
            mapped.evaluate_deltas(matrix[0], plans),
            compiled.evaluate_deltas(matrix[0], plans),
        )

    @pytest.mark.parametrize(
        "reader, writer",
        [(r, w) for r in sorted(STORE_DIGESTS) for w in sorted(STORE_DIGESTS) if r != w],
    )
    def test_from_store_rejects_every_other_backend(
        self, provenance, tmp_path, reader, writer
    ):
        path = tmp_path / f"{writer}.cps"
        resolve_backend(writer).compile(provenance).to_store(path)
        reader_class = type(resolve_backend(reader).compile(provenance))
        with pytest.raises(SerializationError, match=writer):
            reader_class.from_store(path)


class TestStoreFormat:
    def test_round_trip_matches_compiled(self, provenance, scenarios, tmp_path):
        compiled, path = _store(provenance, tmp_path)
        mapped = open_store(path, cached=False)
        assert mapped.keys == compiled.keys
        assert mapped.variables == compiled.variables
        assert mapped.source_fingerprint == compiled.source_fingerprint
        assert mapped.store_path == str(path)

        from repro.batch.planner import ScenarioBatch

        batch = ScenarioBatch(scenarios, compiled.variables)
        matrix = batch.valuation_matrix(Valuation({"x": 2.0, "y": 0.0}))
        assert np.array_equal(
            mapped.evaluate_matrix(matrix), compiled.evaluate_matrix(matrix)
        )

    def test_header_payload(self, provenance, tmp_path):
        compiled, path = _store(provenance, tmp_path)
        header = read_store_header(path)
        assert header["backend"] == "real"
        assert header["fingerprint"] == compiled.source_fingerprint
        assert "constant" in header["blocks"]
        assert header["groups"][0]["monomials"] >= 1

    def test_mapped_arrays_are_read_only_views(self, provenance, tmp_path):
        _, path = _store(provenance, tmp_path)
        mapped = open_store(path, cached=False)
        group = mapped._groups[0]
        with pytest.raises((ValueError, RuntimeError)):
            group.coefficients[0] = 123.0

    def test_every_mapped_block_is_unwriteable(self, provenance, tmp_path):
        _, path = _store(provenance, tmp_path)
        mapped = open_store(path, cached=False)
        views = [mapped._constant]
        for group in mapped._groups:
            views.extend(
                (
                    group.coefficients,
                    group.indices,
                    group.exponents,
                    group.segment_starts,
                    group.segment_rows,
                )
            )
        for view in views:
            assert view.flags.writeable is False
        with pytest.raises((ValueError, RuntimeError)):
            mapped._constant[0] = 99.0

    def test_block_reader_refuses_writeable_map(self, tmp_path):
        from repro.provenance.store import _BlockReader

        path = tmp_path / "w.bin"
        path.write_bytes(np.zeros(8, dtype=np.float64).tobytes())
        reader = _BlockReader(
            str(path),
            {"constant": {"dtype": "<f8", "shape": [8], "offset": 0}},
            0,
        )
        # Simulate a mapping that (wrongly) came back writeable: the reader
        # must refuse to hand out the view rather than propagate it.
        reader._raw = np.zeros(64, dtype=np.uint8)
        with pytest.raises(SerializationError):
            reader("constant")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.cps"
        path.write_bytes(b"NOTASTORE" + b"\x00" * 64)
        with pytest.raises(SerializationError, match="bad magic"):
            read_store_header(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "short.cps"
        path.write_bytes(MAGIC[:4])
        with pytest.raises(SerializationError, match="truncated"):
            read_store_header(path)

    def test_truncated_header(self, provenance, tmp_path):
        _, path = _store(provenance, tmp_path)
        path.write_bytes(path.read_bytes()[: len(MAGIC) + 4 + 10])
        with pytest.raises(SerializationError, match="truncated"):
            read_store_header(path)

    def test_corrupted_header_json(self, provenance, tmp_path):
        _, path = _store(provenance, tmp_path)
        raw = bytearray(path.read_bytes())
        raw[len(MAGIC) + 4] = ord("!")
        path.write_bytes(bytes(raw))
        with pytest.raises(SerializationError, match="corrupted"):
            read_store_header(path)

    def test_unversioned_header_rejected(self, provenance, tmp_path):
        _, path = _store(provenance, tmp_path)
        _rewrite_header(path, lambda doc: doc.pop("version"))
        with pytest.raises(SerializationError, match="version envelope"):
            read_store_header(path)

    def test_future_version_rejected(self, provenance, tmp_path):
        _, path = _store(provenance, tmp_path)

        def bump(doc):
            doc["version"] = 99

        _rewrite_header(path, bump)
        with pytest.raises(SerializationError, match="version"):
            read_store_header(path)

    def test_wrong_kind_rejected(self, provenance, tmp_path):
        _, path = _store(provenance, tmp_path)

        def retag(doc):
            doc["kind"] = "provenance_set"

        _rewrite_header(path, retag)
        with pytest.raises(SerializationError):
            read_store_header(path)

    def test_truncated_blocks_rejected(self, provenance, tmp_path):
        _, path = _store(provenance, tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(SerializationError):
            open_store(path, cached=False)

    def test_write_store_rejects_non_compiled(self, tmp_path):
        with pytest.raises(SerializationError, match="no compiled-store form"):
            write_store(object(), tmp_path / "x.cps")


class TestStoreCache:
    def test_cached_open_returns_same_object(self, provenance, tmp_path):
        _, path = _store(provenance, tmp_path)
        clear_store_cache()
        first = open_store(path)
        assert open_store(path) is first

    def test_uncached_open_is_fresh(self, provenance, tmp_path):
        _, path = _store(provenance, tmp_path)
        assert open_store(path, cached=False) is not open_store(path, cached=False)

    def test_rewrite_invalidates(self, provenance, tmp_path):
        _, path = _store(provenance, tmp_path)
        clear_store_cache()
        first = open_store(path)
        bigger = ProvenanceSet()
        for key, polynomial in provenance.items():
            bigger[key] = polynomial
        bigger[("g4",)] = Polynomial.from_terms([(1.0, ["x", "y", "z"])])
        write_store(CompiledProvenanceSet(bigger), path)
        second = open_store(path)
        assert second is not first
        assert second.source_fingerprint != first.source_fingerprint

    def test_clear_store_cache(self, provenance, tmp_path):
        _, path = _store(provenance, tmp_path)
        first = open_store(path)
        clear_store_cache()
        assert open_store(path) is not first


class TestCompiledSetSurface:
    def test_to_store_from_store(self, provenance, tmp_path):
        compiled = CompiledProvenanceSet(provenance)
        path = tmp_path / "c.cps"
        assert compiled.to_store(path) == str(path)
        mapped = CompiledProvenanceSet.from_store(path)
        assert isinstance(mapped, CompiledProvenanceSet)
        assert mapped.source_fingerprint == compiled.source_fingerprint

    def test_from_store_rejects_other_backend(self, provenance, tmp_path):
        compiled = resolve_backend("tropical").compile(provenance)
        path = tmp_path / "trop.cps"
        compiled.to_store(path)
        with pytest.raises(SerializationError, match="tropical"):
            CompiledProvenanceSet.from_store(path)

    def test_fresh_compiled_set_has_no_store_path(self, provenance):
        assert CompiledProvenanceSet(provenance).store_path is None


class TestEvaluatorStore:
    def test_adopt_store_matches_direct_evaluation(
        self, provenance, scenarios, tmp_path
    ):
        _, path = _store(provenance, tmp_path)
        evaluator = BatchEvaluator()
        mapped = evaluator.adopt_store(path)
        assert mapped.store_path == str(path)
        for mode in ("dense", "sparse"):
            adopted = evaluator.evaluate(provenance, scenarios, mode=mode)
            direct = BatchEvaluator().evaluate(provenance, scenarios, mode=mode)
            np.testing.assert_array_equal(
                adopted.full_results, direct.full_results
            )

    def test_store_backed_sharding_matches_serial(
        self, provenance, scenarios, tmp_path
    ):
        _, path = _store(provenance, tmp_path)
        serial = BatchEvaluator().evaluate(provenance, scenarios, mode="sparse")
        with BatchEvaluator() as evaluator:
            evaluator.adopt_store(path)
            sharded = evaluator.evaluate(
                provenance, scenarios, mode="sparse", processes=2
            )
        np.testing.assert_allclose(sharded.full_results, serial.full_results)

    def test_close_is_idempotent(self, provenance, tmp_path):
        _, path = _store(provenance, tmp_path)
        evaluator = BatchEvaluator()
        evaluator.adopt_store(path)
        evaluator.close()
        evaluator.close()


class TestSessionStore:
    def test_compile_and_open_round_trip(self, provenance, scenarios, tmp_path):
        path = tmp_path / "s.cps"
        producer = CobraSession(provenance)
        producer.compile_to_store(path)

        consumer = CobraSession(provenance)
        mapped = consumer.open_from_store(path)
        assert mapped.store_path == str(path)
        direct = producer.evaluate_many(scenarios)
        via_store = consumer.evaluate_many(scenarios)
        np.testing.assert_array_equal(
            via_store.full_results, direct.full_results
        )

    def test_backend_mismatch(self, provenance, tmp_path):
        path = tmp_path / "s.cps"
        CobraSession(provenance).compile_to_store(path)
        session = CobraSession(provenance, semiring="tropical")
        with pytest.raises(SessionStateError, match="backend"):
            session.open_from_store(path)

    def test_fingerprint_mismatch(self, provenance, tmp_path):
        path = tmp_path / "s.cps"
        CobraSession(provenance).compile_to_store(path)
        other = ProvenanceSet()
        other[("h1",)] = Polynomial.from_terms([(1.0, ["x"])])
        with pytest.raises(SessionStateError, match="fingerprint"):
            CobraSession(other).open_from_store(path)

    def test_generic_backend_has_no_store(self, provenance, tmp_path):
        session = CobraSession(provenance, semiring="why")
        with pytest.raises(SessionStateError, match="no"):
            session.compile_to_store(tmp_path / "why.cps")


class TestCliStore:
    WORKLOAD = ["--customers", "300", "--zips", "5", "--months", "3"]

    def test_compile_then_batch_store(self, tmp_path, capsys):
        store = tmp_path / "telephony.cps"
        assert main(["compile", *self.WORKLOAD, "--output", str(store)]) == 0
        assert store.exists()
        out = capsys.readouterr().out
        assert "Store written to" in out

        assert (
            main(
                [
                    "batch",
                    *self.WORKLOAD,
                    "--scenarios",
                    "8",
                    "--store",
                    str(store),
                    "--top",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "mmap-backed" in out

    def test_batch_rejects_mismatched_store(self, tmp_path, capsys):
        store = tmp_path / "telephony.cps"
        assert main(["compile", *self.WORKLOAD, "--output", str(store)]) == 0
        capsys.readouterr()
        args = ["batch", "--customers", "300", "--zips", "6", "--months", "3"]
        assert main([*args, "--store", str(store)]) == 1
        assert "cannot use compiled store" in capsys.readouterr().out

    def test_compile_from_input_json(self, provenance, tmp_path, capsys):
        source = tmp_path / "prov.json"
        save_provenance_set(provenance, source)
        store = tmp_path / "prov.cps"
        assert (
            main(["compile", "--input", str(source), "--output", str(store)]) == 0
        )
        header = read_store_header(store)
        assert header["backend"] == "real"

    def test_compile_tropical_store(self, tmp_path, capsys):
        store = tmp_path / "trop.cps"
        assert (
            main(
                ["compile", *self.WORKLOAD, "--semiring", "tropical",
                 "--output", str(store)]
            )
            == 0
        )
        assert read_store_header(store)["backend"] == "tropical"
