"""Fresh-interpreter probes the benchmark runs one at a time.

    python3 perfbench/child.py setup WORKLOAD SEED
        Import the package, build the workload's inputs and warm it up; print
        {"setup_s": seconds since this interpreter began running this file}.
    python3 perfbench/child.py cli ARG...
        Import cycosc.cli, run cli.main(ARG...) with output captured; print
        {"import_s": ..., "output_bytes": ..., "rc": ...}.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import common  # noqa: E402


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        common.import_package()
        import workloads

        workload = workloads.WORKLOADS[rest[0]](int(rest[1]))
        workload.warm_up()
        print(json.dumps({"setup_s": time.perf_counter() - T0}))
        return 0
    if mode == "cli":
        start = time.perf_counter()
        common.import_package()
        cli = importlib.import_module("cycosc.cli")
        import_s = time.perf_counter() - start
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(rest)
        result = {"import_s": import_s, "output_bytes": len(out.getvalue().encode()), "rc": rc}
        print(json.dumps(result))
        return 0
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
