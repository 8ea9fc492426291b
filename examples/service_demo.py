"""Demo of the long-running synthesis service (``repro serve``).

Launches a real server subprocess on an ephemeral port, then talks to it
with the blocking :class:`repro.service.ServiceClient` exactly the way an
evaluation harness would:

1. submit a small batch manifest (``POST /jobs``) and poll it to
   completion — every stage *runs*;
2. submit a pitch sweep over the same assay — scheduling and architecture
   are *replayed* from the server's hot cache, only the physical-design
   points execute;
3. gracefully shut the server down (``POST /shutdown``), which flushes the
   cache to disk, then restart it on the same ``--cache-dir`` and resubmit
   the original manifest — all three stages replay from the persisted
   artifacts, demonstrating restart resume.

Run with:  PYTHONPATH=src python examples/service_demo.py
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.service import ServiceClient  # noqa: E402

MANIFEST = {"jobs": [{"assay": "PCR", "config": {"ilp_operation_limit": 0}}]}
SWEEP = {
    "assay": "PCR",
    "base": {"ilp_operation_limit": 0},
    "sweep": {"pitch": [5.0, 6.0, 7.0]},
}


def start_server(cache_dir: Path) -> "tuple[subprocess.Popen, ServiceClient]":
    """Launch ``repro serve`` on an ephemeral port and wait until it is up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2", "--cache-dir", str(cache_dir)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    # Log lines share the pipe with the banner that announces the bound
    # port, so read until the banner shows up.
    seen = []
    for line in process.stdout:
        seen.append(line)
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        if match:
            break
    else:
        process.terminate()
        raise RuntimeError(f"server exited without announcing its port: {''.join(seen)!r}")
    client = ServiceClient(port=int(match.group(1)))
    for _ in range(100):
        try:
            client.healthz()
            break
        except OSError:
            time.sleep(0.05)
    return process, client


def show(label: str, status: dict) -> None:
    stages = status.get("summary", {}).get("stages", {})
    trail = ", ".join(
        f"{name}: {row['ran']} ran / {row['replayed']} replayed / {row['shared']} shared"
        for name, row in stages.items()
    )
    print(f"{label}: {status['status']}" + (f"  [{trail}]" if trail else ""))


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-service-demo-") as tmp:
        cache_dir = Path(tmp) / "cache"

        print("== starting server ==")
        process, client = start_server(cache_dir)
        try:
            print("healthz:", json.dumps(client.healthz()["jobs"]))

            print("\n== 1. cold batch: every stage runs ==")
            job = client.submit(MANIFEST)
            show(f"job {job}", client.wait(job))

            print("\n== 2. warm sweep: schedule + archsyn replayed from the hot cache ==")
            sweep_job = client.submit(SWEEP)
            show(f"job {sweep_job}", client.wait(sweep_job))
            result = client.result(sweep_job)
            for row in result["jobs"]:
                print(f"   {row['id']}: compact dims {row['metrics']['dp']}")

            print("\n== 3. graceful shutdown (flushes artifacts to disk) ==")
            client.shutdown()
            process.wait(timeout=30)
        finally:
            if process.poll() is None:
                process.terminate()
            process.wait(timeout=30)

        print("\n== 4. restarted server resumes from the persisted stages ==")
        process, client = start_server(cache_dir)
        try:
            job = client.submit(MANIFEST)
            show(f"job {job}", client.wait(job))
            client.shutdown()
            process.wait(timeout=30)
        finally:
            if process.poll() is None:
                process.terminate()
            process.wait(timeout=30)
    print("\ndemo complete")


if __name__ == "__main__":
    main()
