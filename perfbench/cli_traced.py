"""Run the stochprobe CLI in this process under the benchmark's probe.

usage: python perfbench/cli_traced.py {count|span} SINK ARG...

Runs `stochprobe.cli.main(ARG...)` with the probe installed, writes
{"counts": ..., "spans": ...} to SINK and exits with the CLI's exit code.
stdout carries only the CLI's own report, so it must match the bytes of a
plain `python -m stochprobe.cli ARG...`.
"""

import json
import sys
import time


def main() -> int:
    mode, sink, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    start = time.perf_counter()
    import stochprobe.cli as cli

    imported = time.perf_counter()
    from stochprobe import constraints

    from probe import Probe

    probe = Probe()
    probe.op = "cli"
    probe.install(mode)
    if probe.recording:
        probe.spans.append(["cli.import", start, imported, -1, "cli", None])
    span = probe.begin("cli.main")
    try:
        code = cli.main(argv)
    finally:
        probe.end(span)
        probe.uninstall()
    sys.stdout.flush()
    info = constraints._tables.cache_info()
    probe.counts["mask_tables.misses"] += info.misses
    probe.counts["mask_tables.hits"] += info.hits
    with open(sink, "w") as handle:
        json.dump({"counts": probe.counts, "spans": probe.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
