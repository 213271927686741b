"""Launch the subsetphase CLI as its console script does, noting set-up.

    python3 entry.py MARK_FILE [subsetphase arguments...]
    python3 entry.py MARK_FILE --env OUT_FILE

Both forms write the monotonic clock reading taken right after
``import subsetphase.cli`` to MARK_FILE.  The clock is CLOCK_MONOTONIC,
which every process on the host shares, so the launcher can subtract its
own launch time from it.  The first form then runs
``subsetphase.cli.main`` with the remaining arguments, if there are any.
The second writes the interpreter, numpy, scipy and BLAS versions to
OUT_FILE.
"""

import sys
import time

import subsetphase.cli

IMPORTED = time.perf_counter()


def environment() -> dict:
    import platform

    import numpy
    import scipy

    def blas(mod) -> str:
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
    }


def main() -> None:
    with open(sys.argv[1], "w") as fh:
        fh.write(repr(IMPORTED))
    args = sys.argv[2:]
    if args[:1] == ["--env"]:
        import json

        with open(args[1], "w") as fh:
            json.dump(environment(), fh, sort_keys=True)
    elif args:
        sys.argv = ["subsetphase", *args]
        subsetphase.cli.main()


if __name__ == "__main__":
    main()
