"""The wrappers install and restore cleanly, see the calls made through
``from x import f`` bindings, and are absent from an untraced run."""

import subprocess
import sys

import repro.crypto.hashing as hashing
import repro.crypto.merkle as merkle
from repro.crypto.fastaead import FastAEADKey
from repro.ledger.entry import LedgerEntry
from repro.net.network import Network
from repro.sim.scheduler import Scheduler

from benchmarks.e2e.run import RUN_PY
from benchmarks.e2e.tracing import BOUNDARIES, Tracer


def _originals():
    held = [
        (owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute))
        for _group, owner, attributes, _measure in BOUNDARIES
        for attribute in attributes
    ]
    return held + [Network.register, Scheduler.at, merkle.sha256]


def test_install_then_uninstall_leaves_the_originals_identical():
    before = _originals()
    tracer = Tracer()
    tracer.install()
    try:
        during = _originals()
        assert all(now is not then for now, then in zip(during, before))
        # The binding merkle.py made with ``from hashing import sha256``
        # is the wrapper too, and classmethods stay classmethods.
        assert merkle.sha256 is hashing.sha256
        assert isinstance(LedgerEntry.__dict__["decode"], classmethod)
    finally:
        tracer.uninstall()
    assert all(now is then for now, then in zip(_originals(), before))


def test_spans_are_recorded_only_inside_the_timed_region():
    tracer = Tracer()
    tracer.install()
    try:
        key = FastAEADKey.generate(b"seed")
        key.seal(b"\x00" * 12, b"outside")
        assert len(tracer.boundary) == 0
        tracer.resume()
        sealed = key.seal(b"\x00" * 12, b"inside the region")
        key.open(b"\x00" * 12, sealed)
        tracer.pause()
        key.seal(b"\x00" * 12, b"outside again")
    finally:
        tracer.uninstall()
    summary = tracer.summarize()
    assert summary["calls"]["FastAEADKey.seal"] == 1
    assert summary["calls"]["FastAEADKey.open"] == 1
    assert tracer.counts["crypto.aead_bytes"] == len(b"inside the region") + len(sealed)
    assert summary["window_ns"] >= sum(summary["self_ns"].values()) > 0


def test_an_untraced_run_never_imports_the_tracing_module():
    probe = (
        "import runpy, sys\n"
        f"sys.argv = [{RUN_PY!r}, '--workload', 'read_5n', '--quick']\n"
        "try:\n"
        f"    runpy.run_path({RUN_PY!r}, run_name='__main__')\n"
        "except SystemExit as stop:\n"
        "    assert stop.code == 0, stop.code\n"
        "assert 'benchmarks.e2e.runner' in sys.modules\n"
        "assert 'benchmarks.e2e.tracing' not in sys.modules\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env={"PYTHONHASHSEED": "0", "PATH": ""},
        stdout=subprocess.DEVNULL, timeout=120, check=False,
    )
    assert done.returncode == 0
