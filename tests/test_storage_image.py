"""Images and generational retention (:mod:`repro.storage.image`).

* an :class:`~repro.storage.image.Image` round-trips its bytes at every
  placement, releases idempotently, and a released by-reference
  locator fails loudly on attach;
* a columnar backend keeps a replaced version's image exactly while a
  reader pins its token, and finds it again when a write restores
  those contents;
* creating and attaching segments from two threads of one process
  never confuses the resource tracker (regression: the attach-side
  ``register`` swap used to swallow a concurrent create's
  registration).
"""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.data.database import Database
from repro.data.schema import Schema
from repro.errors import SchemaError, StaleDataError
from repro.storage import attach_snapshot, open_backend
from repro.storage.image import Image, attached
from repro.storage.mmapio import live_spill_paths
from repro.storage.shm import SEGMENT_PREFIX, live_segment_names

PARTS = [b"abc", b"", b"defgh"]
LIVE = {"shm": live_segment_names, "mmap": live_spill_paths}


def small_db():
    return Database(
        Schema({"R": 2, "S": 1}),
        {"R": {(1, 2), (3, 4), (5, 2)}, "S": {(2,), (9,)}},
    )


def swap(db, rows):
    db._relations = {**db._relations, "S": frozenset(rows)}


@pytest.mark.parametrize("placement", ["inline", "shm", "file"])
def test_image_roundtrip_release_and_loud_late_attach(placement):
    image = Image(placement, PARTS, 8)
    assert image.nbytes == 8
    assert bytes(image.buffer[:8]) == b"abcdefgh"
    with attached(placement, image.locator) as view:
        assert bytes(view[:8]) == b"abcdefgh"
        image.release()  # late-reader guarantee: the view stays valid
        assert bytes(view[:8]) == b"abcdefgh"
    image.release()
    assert live_segment_names() == () and live_spill_paths() == ()
    if placement != "inline":
        with pytest.raises(StaleDataError, match="is gone"):
            with attached(placement, image.locator):
                pass


def test_unknown_placement_is_a_schema_error():
    with pytest.raises(SchemaError, match="placement"):
        Image("tape", PARTS, 8)


@pytest.mark.parametrize("kind", ["shm", "mmap"])
def test_backend_keeps_a_replaced_image_exactly_while_pinned(kind):
    live, db = LIVE[kind], small_db()
    before = db.relations()
    with open_backend(db, kind) as backend:
        token = backend.version_token()
        pinned = backend.export_snapshot()
        backend.pin(token)
        backend.pin(token)
        swap(db, {(7,)})
        backend.refresh()
        assert len(live()) == 2
        assert attach_snapshot(pinned) == before
        assert backend.rows("S") == {(7,)}
        backend.unpin(token)
        assert len(live()) == 2  # one reader left
        backend.unpin(token)
        assert len(live()) == 1
        with pytest.raises(StaleDataError):
            attach_snapshot(pinned)
        # Exported but never pinned: released by the next refresh.
        unpinned = backend.export_snapshot()
        swap(db, {(8,)})
        backend.refresh()
        assert len(live()) == 1
        with pytest.raises(StaleDataError):
            attach_snapshot(unpinned)
        with pytest.raises(StaleDataError, match="cannot pin"):
            backend.pin(token)
        backend.pin(backend.version_token())
        swap(db, {(9,)})
        backend.refresh()
        assert len(live()) == 2
    assert live() == ()  # close() releases pinned images too


def test_restored_contents_find_their_kept_image_again():
    db = small_db()
    with open_backend(db, "shm") as backend:
        token, first = backend.version_token(), backend.export_snapshot()
        backend.pin(token)
        swap(db, {(7,)})
        backend.refresh()
        swap(db, {(2,), (9,)})  # back to the pinned contents
        backend.refresh()
        assert backend.version_token() == token
        assert backend.export_snapshot()[1] == first[1]
        assert len(live_segment_names()) == 1
        backend.unpin(token)  # current again: unpinning keeps it
        assert backend.rows("S") == {(2,), (9,)}
    assert live_segment_names() == ()


_RACE = textwrap.dedent(
    """
    import threading, time
    from repro.storage.shm import (
        attach_segment, create_segment, release_segment,
    )

    anchor = create_segment(64)
    deadline = time.monotonic() + 1.5

    def attach_loop():
        while time.monotonic() < deadline:
            attach_segment(anchor.name).close()

    def create_loop():
        while time.monotonic() < deadline:
            release_segment(create_segment(64))

    threads = [threading.Thread(target=f) for f in (attach_loop, create_loop)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
    assert not any(t.is_alive() for t in threads)
    release_segment(anchor)
    """
)


def test_concurrent_create_and_attach_keep_the_tracker_consistent():
    # In a subprocess: the resource tracker reports on *its* stderr
    # inheritance, and the pid-scoped prefix makes the /dev/shm scan
    # exact.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    child = subprocess.Popen(
        [sys.executable, "-c", _RACE],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    __, stderr = child.communicate(timeout=120)
    assert child.returncode == 0, stderr
    assert stderr == ""
    prefix = SEGMENT_PREFIX.replace(str(os.getpid()), str(child.pid))
    if os.path.isdir("/dev/shm"):
        assert not [
            name for name in os.listdir("/dev/shm") if name.startswith(prefix)
        ]
