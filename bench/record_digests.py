"""Record the stdout digests of the deterministic CLI ops (``tables`` and
``census``) into digests.json.  Run it only at a commit whose output is
known to be right:

    python3 bench/record_digests.py
"""

import hashlib
import json
from pathlib import Path

import workloads


def main() -> None:
    program = workloads.load_program(Path(__file__).resolve().parent.parent / "src")
    digests = {}
    for op in next(workloads.rounds("verify", 0)):
        if op.kind not in ("tables", "census"):
            continue
        argv = workloads.cli_argv(op)
        rc, out, err = workloads._run_cli(program.cli, argv)
        if rc != 0 or err:
            raise SystemExit(f"{' '.join(argv)}: exit {rc}: {err}")
        digests[" ".join(argv)] = hashlib.sha256(out.encode()).hexdigest()
    workloads.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {workloads.DIGESTS.name}")


if __name__ == "__main__":
    main()
