"""Run ``lsilab`` code in a child process with a capped address space.

A size check that regresses then fails its test with a MemoryError in the
child instead of exhausting the machine that runs the suite, and a check
that regresses into a long loop fails on the timeout instead of hanging it.
The limit is set with ``resource.setrlimit(RLIMIT_AS)`` in the child only,
between fork and exec; an lsilab process needs about 140 MiB of address
space.
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

import lsilab

#: Address-space limit of the child, in bytes.
ADDRESS_SPACE_LIMIT = 1 << 30


def run_python_limited(
    args: list[str], cwd: Path, limit: int = ADDRESS_SPACE_LIMIT
) -> subprocess.CompletedProcess:
    """``python *args`` in ``cwd``, with at most ``limit`` bytes of address space.

    Raises ``subprocess.TimeoutExpired`` when the child runs longer than 120 s. The
    child's stdin is empty, so a child that reads file descriptor 0 gets end of file at
    once instead of waiting on the terminal or pipe of the process that runs the suite.
    """
    # The child runs in cwd, where a relative PYTHONPATH entry such as
    # "src" resolves to nothing; point it at the package imported here.
    src_root = str(Path(lsilab.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src_root, os.environ.get("PYTHONPATH")])),
        # one BLAS thread: the address space OpenBLAS reserves grows with the thread count
        "OPENBLAS_NUM_THREADS": "1",
    }

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd, env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=120,
        preexec_fn=cap_address_space,
    )


def run_cli_limited(
    argv: list[str], cwd: Path, limit: int = ADDRESS_SPACE_LIMIT
) -> subprocess.CompletedProcess:
    """``python -m lsilab.cli *argv`` in ``cwd``, with at most ``limit`` bytes of address space."""
    return run_python_limited(["-m", "lsilab.cli", *argv], cwd, limit)
