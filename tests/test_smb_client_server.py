"""Tests for the SMB client API against an in-process server core."""

import numpy as np
import pytest

from repro.smb import (
    ControlBlock,
    NotificationTimeout,
    SegmentRangeError,
    ShmSMBServer,
    SMBClient,
    SMBServer,
    TcpSMBServer,
    UnknownKeyError,
)
from repro.smb.errors import SMBProtocolError, from_wire
from repro.smb.protocol import Message, Op, Status


@pytest.fixture()
def server():
    return SMBServer(capacity=1 << 22)


@pytest.fixture()
def client(server):
    return SMBClient.in_process(server)


class TestRawOperations:
    def test_create_attach_read_write(self, client):
        shm_key = client.create_buffer("w", 64)
        access = client.attach(shm_key, 64)
        client.write(access, b"hello world")
        assert client.read(access, 11) == b"hello world"

    def test_lookup_by_name(self, client):
        shm_key = client.create_buffer("w", 128)
        found_key, size = client.lookup("w")
        assert found_key == shm_key
        assert size == 128

    def test_lookup_unknown_name(self, client):
        with pytest.raises(UnknownKeyError):
            client.lookup("nope")

    def test_attach_bad_key_raises_remote_error(self, client):
        with pytest.raises(UnknownKeyError):
            client.attach(424242)

    def test_write_out_of_range(self, client):
        shm_key = client.create_buffer("w", 8)
        access = client.attach(shm_key)
        with pytest.raises(SegmentRangeError):
            client.write(access, b"123456789")

    def test_accumulate(self, client):
        a = client.create_array("a", 4)
        b = client.create_array("b", 4)
        a.write(np.asarray([1, 2, 3, 4], dtype=np.float32))
        b.write(np.asarray([10, 10, 10, 10], dtype=np.float32))
        b_into_a = b.accumulate_into(a)
        assert b_into_a > 0
        np.testing.assert_allclose(a.read(), [11, 12, 13, 14])

    def test_accumulate_scale(self, client):
        a = client.create_array("a", 2)
        b = client.create_array("b", 2)
        b.write(np.asarray([4, 8], dtype=np.float32))
        b.accumulate_into(a, scale=-0.5)
        np.testing.assert_allclose(a.read(), [-2, -4])

    def test_free_then_use_fails(self, client):
        array = client.create_array("w", 8)
        array.free()
        with pytest.raises(UnknownKeyError):
            array.read()

    def test_version_counts_mutations(self, client):
        array = client.create_array("w", 4)
        assert array.version() == 0
        array.write(np.zeros(4, dtype=np.float32))
        assert array.version() == 1

    def test_wait_update_timeout(self, client):
        array = client.create_array("w", 4)
        with pytest.raises(NotificationTimeout):
            array.wait_update(version=0, timeout=0.01)

    def test_stats_track_bytes(self, client):
        array = client.create_array("w", 256)
        array.write(np.zeros(256, dtype=np.float32))
        array.read()
        stats = client.stats()
        assert stats["bytes_written"] >= 1024
        assert stats["bytes_read"] >= 1024


class TestRemoteArray:
    def test_roundtrip(self, client):
        array = client.create_array("w", 100)
        values = np.arange(100, dtype=np.float32)
        array.write(values)
        np.testing.assert_array_equal(array.read(), values)

    def test_write_wrong_size_rejected(self, client):
        array = client.create_array("w", 10)
        with pytest.raises(ValueError):
            array.write(np.zeros(11, dtype=np.float32))

    def test_accumulate_count_mismatch_rejected(self, client):
        a = client.create_array("a", 4)
        b = client.create_array("b", 8)
        with pytest.raises(ValueError):
            b.accumulate_into(a)

    def test_two_clients_share_by_shm_key(self, server):
        master = SMBClient.in_process(server)
        slave = SMBClient.in_process(server)
        array = master.create_array("W_g", 16)
        array.write(np.full(16, 3.0, dtype=np.float32))
        view = slave.attach_array("W_g", array.shm_key, 16)
        np.testing.assert_allclose(view.read(), 3.0)
        view.write(np.full(16, 5.0, dtype=np.float32))
        np.testing.assert_allclose(array.read(), 5.0)

    def test_int64_dtype_arrays(self, client):
        array = client.create_array("c", 4, dtype="int64")
        array.write(np.asarray([1, 2, 3, 4], dtype=np.int64))
        np.testing.assert_array_equal(array.read(), [1, 2, 3, 4])


class TestControlBlock:
    def test_publish_and_read_progress(self, client):
        control = ControlBlock.create(client, "ctl", capacity=4)
        control.publish_progress(0, 10)
        control.publish_progress(3, 7)
        np.testing.assert_array_equal(
            control.read_progress(), [10, 0, 0, 7]
        )

    def test_stop_flag(self, client):
        control = ControlBlock.create(client, "ctl", capacity=2)
        assert control.stop_code() == ControlBlock.STOP_CLEAR
        control.signal_stop(2)
        assert control.stop_code() == 2

    def test_zero_stop_code_rejected(self, client):
        control = ControlBlock.create(client, "ctl", capacity=2)
        with pytest.raises(ValueError):
            control.signal_stop(0)

    def test_rank_bounds(self, client):
        control = ControlBlock.create(client, "ctl", capacity=2)
        with pytest.raises(ValueError):
            control.publish_progress(2, 1)

    def test_attach_shares_progress(self, server):
        master = SMBClient.in_process(server)
        slave = SMBClient.in_process(server)
        control = ControlBlock.create(master, "ctl", capacity=2)
        view = ControlBlock.attach(slave, "ctl", control.shm_key, 2)
        view.publish_progress(1, 42)
        np.testing.assert_array_equal(control.read_progress(), [0, 42])


@pytest.fixture(params=["inproc", "tcp", "shm"])
def any_client(request, tmp_path):
    """One client per transport, against a fresh server."""
    if request.param == "inproc":
        yield SMBClient.in_process(SMBServer(capacity=1 << 20))
        return
    if request.param == "tcp":
        server = TcpSMBServer(capacity=1 << 20).start()
        client = SMBClient.connect(server.address)
    else:
        server = ShmSMBServer(path=tmp_path / "smb.sock", capacity=1 << 20)
        server.start()
        client = SMBClient.connect_local(tmp_path / "smb.sock")
    try:
        yield client
    finally:
        client.close()
        server.stop()


class TestMalformedCreate:
    @pytest.mark.parametrize(
        "name, nbytes", [("a/b", 64), ("w", 0), ("w", -8)]
    )
    def test_rejected_with_a_typed_error_on_every_transport(
        self, any_client, name, nbytes
    ):
        with pytest.raises(SMBProtocolError, match="rejected CREATE"):
            any_client.create_buffer(name, nbytes)
        # The connection survived: the next request is served on it.
        shm_key = any_client.create_buffer("ok", 64)
        assert any_client.lookup("ok") == (shm_key, 64)
        assert getattr(any_client._transport, "reconnects", 0) == 0


class TestNonUtf8Payloads:
    @pytest.mark.parametrize(
        "op", [Op.LOOKUP, Op.TENANT_CREATE, Op.ACCUMULATE],
        ids=lambda op: op.name,
    )
    def test_answered_with_a_typed_error_on_every_transport(
        self, any_client, op
    ):
        """A name or dtype payload that is not UTF-8 is the caller's
        fault: a typed error, never a handler crash or a lost
        connection."""
        message = Message(op=op, payload=b"\xff\xfe\xfd")
        if op is Op.ACCUMULATE:  # valid keys, so only the dtype is bad
            dst = any_client.create_array("dst", 4)
            src = any_client.create_array("src", 4)
            message = Message(op=op, key=dst.access_key, key2=src.access_key,
                              payload=b"\xff\xfe\xfd")
        response = any_client._transport.request(message)
        assert response.status is Status.ERROR
        assert isinstance(from_wire(response.payload), SMBProtocolError)
        # The connection survived: the next request is served on it.
        shm_key = any_client.create_buffer("ok", 64)
        assert any_client.lookup("ok") == (shm_key, 64)
        assert getattr(any_client._transport, "reconnects", 0) == 0
