"""Suite-wide fixtures: always-on IR validation, a private kernel cache,
a per-test hang guard, and golden-file updating."""

import faulthandler
import os
import sys

import pytest

from repro.check import set_validation

#: seconds a single test (set-up, call and teardown) may run before the
#: hang guard dumps every thread's stack and ends the run
HANG_TIMEOUT_S = 600

#: a duplicate of the terminal's stderr, taken before output capture can
#: swallow what the hang guard writes as the process exits
_hang_dump_fd: int | None = None


@pytest.fixture(autouse=True, scope="session")
def _always_validate():
    """Run the IR validator after every compiler pass for the whole suite.

    This is the tests' equivalent of ``REPRO_VALIDATE=1``: any pass that
    breaks scoping, typing, level nesting, or guard placement fails loudly
    at the pass that introduced the violation.
    """
    set_validation(True)
    yield
    set_validation(None)


@pytest.fixture(autouse=True, scope="session")
def _private_codegen_cache(tmp_path_factory):
    """Point the kernel cache (and the breaker table stored in it) at a
    session temp directory, so the suite neither reads nor writes the
    user-global default.  Spawned workers and daemons inherit it."""
    old = os.environ.get("REPRO_CODEGEN_CACHE")
    os.environ["REPRO_CODEGEN_CACHE"] = str(tmp_path_factory.mktemp("kcache"))
    yield
    if old is None:
        os.environ.pop("REPRO_CODEGEN_CACHE", None)
    else:
        os.environ["REPRO_CODEGEN_CACHE"] = old


def pytest_configure(config):
    global _hang_dump_fd
    _hang_dump_fd = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    # stays armed through interpreter exit, where a worker pool that never
    # shut down can block the exit handlers' joins
    faulthandler.dump_traceback_later(HANG_TIMEOUT_S, exit=True, file=_hang_dump_fd)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    """Hang guard: a test stuck past :data:`HANG_TIMEOUT_S` (say, a pool
    waiting on a dead worker) exits the run with every thread's stack
    instead of stalling it."""
    faulthandler.dump_traceback_later(HANG_TIMEOUT_S, exit=True, file=_hang_dump_fd)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite golden files under tests/goldens/ instead of comparing",
    )


@pytest.fixture
def update_goldens(request):
    return request.config.getoption("--update-goldens")
