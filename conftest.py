"""Suite-wide leak guard: storage, serving workers, the reactor thread.

Every segment and spill file this process creates is registered in
``repro.storage.shm`` / ``repro.storage.mmapio`` until its owner
releases it.  Only a handful of tests read those registries, and the
modules' ``atexit`` drains would quietly clean up after everything
else — so a test that forgets to close a session, or a code path that
drops an image without releasing it, would never fail anything.  This
fixture makes the whole run fail instead.  (Storage orphaned by a
killed or spawned *child* is invisible here; the CI ``backends`` job
scans ``/dev/shm`` and the temp dir for that.)

The same goes for the server's worker pool
(:mod:`repro.serve.workers`): a pool nobody shut down leaves its
named worker processes and reactor thread behind, and the run fails on
those too.  (``tests/test_serve_workers.py`` adds the per-test check,
pipe fds included.)
"""

import multiprocessing
import sys
import threading

import pytest

_REGISTRIES = (
    ("repro.storage.shm", "live_segment_names"),
    ("repro.storage.mmapio", "live_spill_paths"),
)


@pytest.fixture(scope="session", autouse=True)
def no_leaked_storage():
    yield
    leaked = [
        name
        for module, probe in _REGISTRIES
        if module in sys.modules  # never imported: nothing to leak
        for name in getattr(sys.modules[module], probe)()
    ]
    assert not leaked, f"storage still alive at session end: {leaked}"
    leaked = [
        each.name
        for each in (*multiprocessing.active_children(), *threading.enumerate())
        if each.name.startswith("repro-serve-")
    ]
    assert not leaked, f"serving pool still alive at session end: {leaked}"
