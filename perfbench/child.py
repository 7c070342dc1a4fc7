"""One round of a workload: a fresh process runs mtlab.cli.main command by command.

    python3 perfbench/child.py ROUND_JSON

ROUND_JSON names the config file, the commands, the monotonic clock reading
taken just before this process was started (`t0`), whether to trace, and
where to write the result. Timings are monotonic-clock differences, so
`setup_s` counts interpreter start-up and imports as a user's run would.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(round_path: str) -> int:
    spec = json.loads(Path(round_path).read_text())
    sys.path.insert(0, spec["src"])
    from mtlab import cli

    tracer = None
    if spec["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    done = {}       # command -> (start, end), both relative to t0
    failed = []
    for cmd, extra in spec["commands"]:
        if failed:  # a later command cannot run on a failed one's outputs
            failed.append(cmd)
            continue
        start = time.monotonic()
        rc = cli.main([cmd, "--config", spec["config"], "--no-timestamp", *extra])
        end = time.monotonic()
        if rc != 0:
            print(f"mtlab {cmd} exited {rc}", file=sys.stderr)
            failed.append(cmd)
        else:
            done[cmd] = (start - spec["t0"], end - spec["t0"])

    result = {"done": done, "failed": failed, "peak_rss_mib": _peak_rss_mib()}
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        tracing.write_spans(tracer, spec["spans"])
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
