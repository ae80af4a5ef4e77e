"""Run the socket server as ``python -m repro serve`` does, then report.

    python3 perfbench/serve_host.py --report FILE [--trace]

The server runs with the CLI's defaults except ``--port 0`` (an
ephemeral port, read back from the CLI's "serving dynamics on" line).
SIGINT stops it through the CLI's own shutdown path; the host then
writes its peak RSS — and, with ``--trace``, the per-layer report of a
:class:`probes.Probe` — to FILE.  SIGUSR1 marks the start of the
measured interval: the probe drops what it recorded before it.
"""

from __future__ import annotations

import argparse
import signal
import threading

from common import peak_rss_mb, write_report


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    # SIGINT is the stop signal; a launcher started in the background by
    # a shell may have left it ignored, which this process would inherit.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    probe = None
    mark = threading.Event()
    stopping = False
    watcher = None
    if args.trace:
        from probes import Probe

        probe = Probe().install()

        def reset_on_mark() -> None:
            # The reset reads service.stats(), which takes the service's
            # locks; a signal handler on the event-loop thread could hold
            # them already, so the reset runs on this thread instead.
            while True:
                mark.wait()
                mark.clear()
                if stopping:
                    return
                probe.reset()

        watcher = threading.Thread(target=reset_on_mark, daemon=True)
        watcher.start()
        signal.signal(signal.SIGUSR1, lambda *_: mark.set())

    from repro.__main__ import main as repro_main

    code = repro_main(["serve", "--port", "0"])
    report = {"exit": code, "peak_rss_mb": peak_rss_mb()}
    if probe is not None:
        stopping = True
        mark.set()
        watcher.join(timeout=5.0)
        report["trace"] = probe.report()
        probe.uninstall()
    write_report(args.report, report)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
