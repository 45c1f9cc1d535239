"""Launch ``python -m repro serve``, optionally under the benchmark's spans.

Usage::

    python perfbench/serve_traced.py [--ledger-dir DIR] -- serve ARGS...

Without ``--ledger-dir`` the service runs unmodified.  With it, the
service, runner and cache layers are wrapped in spans before the
``serve`` entry point starts, every simulated point runs under the
per-cycle spans in its worker process, and each process dumps its ledger
into ``DIR`` (the server when it shuts down, workers after each point).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from pathlib import Path
from unittest import mock

from ledger import Ledger, run_traced_spec, server_targets, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ledger-dir", default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]

    from repro.__main__ import main as repro_main
    from repro.exp import runner

    if args.ledger_dir is None:
        return repro_main(serve_args)
    ledger = Ledger()
    executor = functools.partial(run_traced_spec, args.ledger_dir)
    with contextlib.ExitStack() as stack:
        stack.enter_context(traced(ledger, server_targets()))
        stack.enter_context(mock.patch.object(runner, "execute_spec", executor))
        code = repro_main(serve_args)
    ledger.dump(Path(args.ledger_dir) / "server.json")
    return code


if __name__ == "__main__":
    sys.exit(main())
