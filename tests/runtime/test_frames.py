"""The worker pipe's frames: what one side writes, the other reads whole."""

import asyncio
import pickle
import select
import socket
import struct
import threading

import pytest

from repro.runtime import workers
from repro.runtime.workers import read_frame, read_frames, write_frame


def _worker_sends(schedule) -> list:
    """Run ``schedule(send)`` on a worker runtime's loop; return its frames."""
    left, right = socket.socketpair()
    runtime = workers._WorkerRuntime(left, 0)

    async def main() -> None:
        runtime._loop = asyncio.get_running_loop()
        await schedule(runtime.send)
        for _ in range(workers._HOLD_TICKS + 2):  # let the last frame go out
            await asyncio.sleep(0)

    try:
        asyncio.run(main())
        frames, closed = read_frames(right, bytearray())
    finally:
        left.close()
        right.close()
    assert not closed
    return frames


def test_a_worker_burst_over_several_ticks_is_one_frame() -> None:
    async def burst(send) -> None:
        async def child(name: str) -> None:
            for step in range(3):
                send((name, step))
                await asyncio.sleep(0)

        await asyncio.gather(*(child(name) for name in "abc"))

    frames = _worker_sends(burst)
    assert len(frames) == 1
    assert sorted(frames[0]) == [(name, step) for name in "abc" for step in range(3)]


def test_a_worker_that_keeps_sending_still_writes_every_few_ticks() -> None:
    async def stream(send) -> None:
        for step in range(40):
            send(step)
            await asyncio.sleep(0)

    frames = _worker_sends(stream)
    assert [e for frame in frames for e in frame] == list(range(40))  # in order
    assert len(frames) >= 40 // (workers._HOLD_TICKS + 1)
    assert max(len(frame) for frame in frames) <= workers._HOLD_TICKS + 1


def test_frames_written_together_are_read_in_order() -> None:
    left, right = socket.socketpair()
    try:
        write_frame(left, ["a", 1])
        write_frame(left, [("b", 2)])
        assert read_frames(right, bytearray()) == ([["a", 1], [("b", 2)]], False)
        assert read_frames(right, bytearray()) == ([], False)  # nothing more, no wait
    finally:
        left.close()
        right.close()


def test_a_frame_split_across_reads_is_delivered_once_whole() -> None:
    left, right = socket.socketpair()
    payload = pickle.dumps(["whole"], protocol=pickle.HIGHEST_PROTOCOL)
    data = struct.pack("!I", len(payload)) + payload
    pending = bytearray()
    try:
        left.sendall(data[:3])
        assert read_frames(right, pending) == ([], False)
        left.sendall(data[3:-1])
        assert read_frames(right, pending) == ([], False)
        left.sendall(data[-1:])
        assert read_frames(right, pending) == ([["whole"]], False)
        assert not pending
    finally:
        left.close()
        right.close()


def test_a_frame_larger_than_one_read_then_eof() -> None:
    left, right = socket.socketpair()
    big = [b"x" * 300_000, "tail"]

    def write_and_close() -> None:
        write_frame(left, big)
        left.close()

    writer = threading.Thread(target=write_and_close)
    writer.start()
    pending, frames, closed = bytearray(), [], False
    try:
        while not closed:
            assert select.select([right], [], [], 5.0)[0], "writer stalled"
            got, closed = read_frames(right, pending)
            frames += got
    finally:
        writer.join()
        right.close()
    assert frames == [big]


def test_blocking_read_of_one_frame_then_eof() -> None:
    left, right = socket.socketpair()
    stream = right.makefile("rb")
    try:
        write_frame(left, ["anchor", "registration"])
        write_frame(left, ["next"])
        assert read_frame(stream) == ["anchor", "registration"]
        assert read_frame(stream) == ["next"]
        left.sendall(struct.pack("!I", 100) + b"cut short")
        left.close()
        with pytest.raises(EOFError):
            read_frame(stream)
    finally:
        stream.close()
        right.close()
