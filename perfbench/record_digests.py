"""Record the reference stdout digests of the digest-checked operations.

Usage: ``python3 perfbench/record_digests.py`` from the repository root.
Run it only at a commit whose output is known to be right: every later run
of the benchmark fails an operation whose stdout differs from these bytes.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from hodge_series import cli  # noqa: E402


def main():
    digests = {}
    for pools in workloads.POOLS.values():
        for pool in pools:
            for op in pool:
                if op.get("expect") != "digest":
                    continue
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(op["argv"])
                if rc != 0:
                    raise SystemExit("%s exited with %d" % (op["key"], rc))
                digests[op["key"]] = workloads.digest(buf.getvalue())
                print(op["key"], digests[op["key"]], file=sys.stderr)
    with open(workloads.DIGESTS_FILE, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
