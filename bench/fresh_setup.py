"""Set-up of one workload, timed in a fresh interpreter.

``python3 bench/fresh_setup.py WORKLOAD WORK_DIR`` imports homcheck from
the checkout's ``src``, builds the identity catalog, loads the algebras
the workload uses (for ``concrete`` it also writes the twisted m7_auto
with ``homcheck twist``) and prints the seconds this took.  ``run.py``
starts it several times and reports the median as ``setup_s``; it also
calls ``set_up`` in its own process before the first job.
"""

import sys
import time

START = time.perf_counter()

import os  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
TWISTED = "m7_auto_twisted.json"

# bundled algebras each workload's jobs load
ALGEBRAS = {
    "paper": ("cross3", "m7"),
    "refute": (),
    "concrete": ("m7", "m7_auto", "cross3", "cross3_rot", "abelian4"),
    "normal_forms": (),
}


def set_up(workload, work_dir):
    """Import homcheck, build the catalog, load or write the workload's
    algebras; returns the ``homcheck.cli`` module."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from homcheck import algebras, cli, identities

    for name in identities.CATALOG_NAMES:
        identities.catalog(name)
    for name in ALGEBRAS[workload]:
        algebras.load_algebra_file(name)
    if workload == "concrete":
        path = os.path.join(work_dir, TWISTED)
        if cli.main(["twist", "m7_auto", "-o", path]) != 0:
            raise RuntimeError("homcheck twist m7_auto failed")
        algebras.load_algebra_file(path)
    return cli


if __name__ == "__main__":
    set_up(sys.argv[1], sys.argv[2])
    print(time.perf_counter() - START)
