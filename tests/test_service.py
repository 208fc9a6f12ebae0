"""Service protocol properties and live-server golden round trips.

Two layers, matching the two halves of :mod:`repro.service`:

* pure frame-protocol properties (hypothesis): any header/payload pair
  survives encode → chunked incremental decode bit-for-bit, for any
  split of the byte stream — including byte-at-a-time delivery, empty
  payloads, and payloads past 64 KiB — while garbage fails fast with a
  clean :class:`~repro.errors.ProtocolError` and never a hang;
* golden identity through a live server: ``compress`` over the socket
  produces byte-identical blobs to calling
  :class:`~repro.ccrp.compressor.ProgramCompressor` directly, and
  ``decompress`` returns the exact original bytes.
"""

from __future__ import annotations

import asyncio
import json
import random
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from repro.ccrp.compressor import ProgramCompressor
from repro.core.standard import standard_code
from repro.errors import ProtocolError, ServiceError
from repro.service.protocol import (
    HEADER_STRUCT,
    MAGIC,
    MAX_PAYLOAD_BYTES,
    VERSION,
    FrameDecoder,
    encode_frame,
    read_frame,
)

from service_harness import LiveService

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
)

headers = st.dictionaries(
    st.text(min_size=1, max_size=10),
    st.one_of(json_scalars, st.lists(json_scalars, max_size=4)),
    max_size=6,
)

payloads = st.binary(max_size=512)


def chunked(data: bytes, rng: random.Random) -> list[bytes]:
    """Split ``data`` into random-size chunks (possibly empty ones)."""
    chunks = []
    position = 0
    while position < len(data):
        size = rng.randint(1, max(1, min(len(data) - position, 97)))
        chunks.append(data[position : position + size])
        position += size
    return chunks


# ----------------------------------------------------------------------
# Frame protocol properties
# ----------------------------------------------------------------------


class TestFrameRoundTrip:
    @given(header=headers, payload=payloads, seed=st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_chunked_decode_is_identity(self, header, payload, seed):
        wire = encode_frame(header, payload)
        decoder = FrameDecoder()
        frames = []
        for chunk in chunked(wire, random.Random(seed)):
            decoder.feed(chunk)
            while True:
                frame = decoder.next_frame()
                if frame is None:
                    break
                frames.append(frame)
        assert len(frames) == 1
        decoded_header, decoded_payload = frames[0]
        assert decoded_payload == payload
        # JSON round trip: compare through the same canonicalisation.
        assert decoded_header == json.loads(json.dumps(header))
        assert decoder.buffered == 0

    @given(
        parts=st.lists(st.tuples(headers, payloads), min_size=2, max_size=5),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=30, deadline=None)
    def test_back_to_back_frames_preserve_order(self, parts, seed):
        wire = b"".join(encode_frame(h, p) for h, p in parts)
        decoder = FrameDecoder()
        frames = []
        for chunk in chunked(wire, random.Random(seed)):
            decoder.feed(chunk)
            while (frame := decoder.next_frame()) is not None:
                frames.append(frame)
        assert [payload for _, payload in frames] == [p for _, p in parts]

    def test_empty_payload(self):
        decoder = FrameDecoder()
        decoder.feed(encode_frame({"op": "ping"}, b""))
        header, payload = decoder.next_frame()
        assert header == {"op": "ping"}
        assert payload == b""

    def test_payload_past_64kib(self):
        big = random.Random(7).randbytes(100_000)
        decoder = FrameDecoder()
        for chunk in chunked(encode_frame({"id": 1}, big), random.Random(11)):
            decoder.feed(chunk)
        assert decoder.next_frame() == ({"id": 1}, big)

    @given(prefix_len=st.integers(0, 11))
    @settings(max_examples=12, deadline=None)
    def test_partial_frame_is_never_a_frame(self, prefix_len):
        wire = encode_frame({"op": "ping"}, b"xy")
        decoder = FrameDecoder()
        decoder.feed(wire[:prefix_len])
        assert decoder.next_frame() is None  # needs more bytes, no hang


class TestFrameErrors:
    @given(garbage=st.binary(min_size=12, max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_garbage_is_error_or_incomplete_never_hang(self, garbage):
        decoder = FrameDecoder()
        decoder.feed(garbage)
        try:
            frame = decoder.next_frame()
        except ProtocolError:
            # Poisoned: every further use re-raises.
            with pytest.raises(ProtocolError):
                decoder.next_frame()
            with pytest.raises(ProtocolError):
                decoder.feed(b"more")
            return
        # Only byte streams that genuinely start like a frame get this
        # far — and then they are either complete or still waiting.
        assert garbage[:2] == MAGIC
        assert frame is None or isinstance(frame[0], dict)

    def test_bad_magic(self):
        decoder = FrameDecoder()
        decoder.feed(b"XX" + bytes(10))
        with pytest.raises(ProtocolError, match="magic"):
            decoder.next_frame()

    def test_bad_version(self):
        decoder = FrameDecoder()
        decoder.feed(HEADER_STRUCT.pack(MAGIC, VERSION + 1, 0, 2, 0))
        with pytest.raises(ProtocolError, match="version"):
            decoder.next_frame()

    def test_reserved_flags(self):
        decoder = FrameDecoder()
        decoder.feed(HEADER_STRUCT.pack(MAGIC, VERSION, 0x80, 2, 0))
        with pytest.raises(ProtocolError, match="flags"):
            decoder.next_frame()

    def test_oversized_payload_declaration_fails_immediately(self):
        # The length field alone must reject the frame — the decoder
        # never waits for (or buffers) a quarter-gigabyte body.
        decoder = FrameDecoder()
        decoder.feed(HEADER_STRUCT.pack(MAGIC, VERSION, 0, 2, MAX_PAYLOAD_BYTES + 1))
        with pytest.raises(ProtocolError, match="payload length"):
            decoder.next_frame()

    def test_unparsable_header_json(self):
        body = b"not json"
        decoder = FrameDecoder()
        decoder.feed(HEADER_STRUCT.pack(MAGIC, VERSION, 0, len(body), 0) + body)
        with pytest.raises(ProtocolError, match="unparsable"):
            decoder.next_frame()

    def test_non_object_header(self):
        body = b"[1,2]"
        decoder = FrameDecoder()
        decoder.feed(HEADER_STRUCT.pack(MAGIC, VERSION, 0, len(body), 0) + body)
        with pytest.raises(ProtocolError, match="JSON object"):
            decoder.next_frame()

    def test_non_dict_header_refused_on_encode(self):
        with pytest.raises(ProtocolError):
            encode_frame(["not", "a", "dict"])


class TestAsyncReadFrame:
    def _reader(self, data: bytes, eof: bool = True) -> asyncio.StreamReader:
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        if eof:
            reader.feed_eof()
        return reader

    def test_clean_eof_is_none(self):
        async def scenario():
            return await read_frame(self._reader(b""))

        assert asyncio.run(scenario()) is None

    def test_whole_frame(self):
        async def scenario():
            return await read_frame(self._reader(encode_frame({"id": 3}, b"zz")))

        assert asyncio.run(scenario()) == ({"id": 3}, b"zz")

    def test_eof_inside_prefix(self):
        async def scenario():
            return await read_frame(self._reader(b"CZ\x01"))

        with pytest.raises(ProtocolError, match="frame prefix"):
            asyncio.run(scenario())

    def test_eof_inside_body(self):
        wire = encode_frame({"id": 4}, b"payload")

        async def scenario():
            return await read_frame(self._reader(wire[:-3]))

        with pytest.raises(ProtocolError, match="frame body"):
            asyncio.run(scenario())


# ----------------------------------------------------------------------
# Golden identity through a live server
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def live(tmp_path_factory):
    with LiveService(
        str(tmp_path_factory.mktemp("service")), workers=2, batch_max=4
    ) as service:
        yield service


#: A deterministic pseudo-program: structured enough to compress.
PROGRAM = (bytes(range(0, 256, 4)) * 9 + b"\x00" * 200)[:768]


class TestLiveServerGolden:
    def test_ping(self, live):
        with live.client() as client:
            assert client.ping()

    def test_compress_matches_direct_library_call(self, live):
        for alignment, integrity in ((1, True), (1, False), (4, False)):
            direct = ProgramCompressor(
                standard_code(), alignment=alignment, integrity=integrity
            ).compress(PROGRAM)
            with live.client() as client:
                meta, blob = client.compress(
                    PROGRAM, alignment=alignment, integrity=integrity
                )
            assert blob == b"".join(block.data for block in direct.blocks)
            assert meta["block_sizes"] == [b.stored_size for b in direct.blocks]
            if integrity:
                assert meta["line_crcs"] == direct.line_crcs.hex()
            else:
                assert "line_crcs" not in meta
            assert meta["compression_ratio"] == pytest.approx(
                direct.compression_ratio
            )

    def test_decompress_round_trip_is_byte_identical(self, live):
        with live.client() as client:
            for alignment in (1, 4):
                meta, blob = client.compress(PROGRAM, alignment=alignment)
                assert client.decompress(meta, blob) == PROGRAM

    def test_concurrent_round_trips_have_no_protocol_errors(self, live):
        def round_trips(index):
            with live.client(name=f"load{index}") as client:
                meta, blob = client.compress(PROGRAM)
                for _ in range(10):
                    assert client.compress(PROGRAM) == (meta, blob)
                    assert client.decompress(meta, blob) == PROGRAM

        with live.client() as client:
            before = client.stats()["counters"].get("service.protocol_errors", 0)
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(round_trips, range(2)))
        with live.client() as client:
            after = client.stats()["counters"].get("service.protocol_errors", 0)
        assert after == before

    def test_large_payload_round_trip(self, live):
        big = random.Random(13).randbytes(96 * 1024)  # > 64 KiB
        with live.client() as client:
            meta, blob = client.compress(big)
            assert client.decompress(meta, blob) == big

    def test_integrity_corruption_is_attributed(self, live):
        with live.client() as client:
            meta, blob = client.compress(PROGRAM, integrity=True)
            # Flip a byte inside the stored blob: the CRC table catches
            # it server-side and names a line.
            corrupt = bytearray(blob)
            corrupt[len(corrupt) // 2] ^= 0xFF
            with pytest.raises(ServiceError) as excinfo:
                client.decompress(meta, bytes(corrupt))
        assert excinfo.value.code == "integrity"
        assert "line" in str(excinfo.value)

    def test_bad_metadata_is_bad_request(self, live):
        with live.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.request("decompress", {"line_size": 32}, b"xx")
        assert excinfo.value.code == "bad_request"

    def test_unknown_op_is_refused(self, live):
        with live.client() as client:
            with pytest.raises(ServiceError):
                client.request("transmogrify", {})

    def test_debug_ops_refused_without_debug(self, live):
        with live.client() as client:
            with pytest.raises(ServiceError):
                client.request("crash", {})
            with pytest.raises(ServiceError):
                client.request("compress", {"_gate": ["/tmp/x", "/tmp/y"]}, b"z")

    def test_split_writes_reach_the_server_intact(self, live):
        # Dribble one request frame over the raw socket in tiny pieces;
        # the server must reassemble and answer normally.
        wire = encode_frame(
            {"id": 9, "op": "ping", "params": {}, "client": "dribble"}
        )
        client = live.client(name="dribble")
        try:
            for position in range(0, len(wire), 3):
                client._sock.sendall(wire[position : position + 3])
            response_id, header, _ = client.recv()
            assert response_id == 9
            assert header["ok"] is True
        finally:
            client.close()

    def test_garbage_bytes_get_protocol_error_then_close(self, live):
        client = live.client(name="garbage")
        try:
            client._sock.sendall(b"\xde\xad\xbe\xef" + bytes(20))
            _, header, _ = client.recv()
            assert header["ok"] is False
            assert header["error"]["code"] == "protocol"
            # Server hangs up after a framing violation.
            assert client._sock.recv(1) == b""
        finally:
            client.close()

    def test_stats_expose_endpoint_counters_and_latency(self, live):
        with live.client() as client:
            client.ping()
            stats = client.stats()
        assert stats["counters"]["requests.ping"] >= 1
        assert stats["counters"]["requests.compress"] >= 1
        assert stats["counters"]["service.connections"] >= 2
        assert stats["counters"]["service.bytes_in"] > 0
        assert stats["counters"]["service.bytes_out"] > 0
        ping_latency = stats["observations"]["latency.ping"]
        assert ping_latency["count"] >= 1
        assert 0 <= ping_latency["p50"] <= ping_latency["p99"] <= ping_latency["max"]
        assert stats["server"]["queue_limit"] == 64
        assert stats["server"]["workers"] == 2
