#!/usr/bin/env python
"""End-to-end smoke test of the distributed sweep service (CI `service`).

Spins up the whole topology as real subprocesses -- two ``repro
worker`` processes and one ``repro serve`` front-end over a shared
dir queue and result store -- then drives it like a remote client:

1. write a garbled record (``{"garbled": 1}``) under one job's key into
   the shared store, which the service must treat as a miss,
2. POST a small sweep grid to the server,
3. poll ``GET /sweep/<id>`` until the workers drain the queue,
4. assert the served weighted-speedup table matches an in-process
   serial run of the identical grid (the distributed == serial
   contract), and
5. assert ``GET /result/<key>`` serves every stored record, the
   garbled key's re-simulated one included.

Exit status 0 means the service stack works end to end.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = str(REPO / "src")
sys.path.insert(0, SRC)

from repro.engine import ResultStore, SweepSpec, run_jobs  # noqa: E402

#: small enough to finish in seconds, big enough to split across workers.
SWEEP = {
    "mode": "single",
    "workloads": ["micro_stream", "micro_thrash", "mcf"],
    "policies": ["lru", "rwp"],
    "scale": {
        "llc_lines": 256,
        "ways": 16,
        "warmup_factor": 2,
        "measure_factor": 6,
        "seed": 2014,
    },
}


def repro(*argv: str, **popen_kwargs) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        **popen_kwargs,
    )


def get_json(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read())


def wait_for_server(base: str, deadline: float) -> None:
    while time.time() < deadline:
        try:
            if get_json(base + "/healthz")["status"] == "ok":
                return
        except (urllib.error.URLError, OSError):
            time.sleep(0.2)
    raise SystemExit("server never became healthy")


def serial_outcome():
    spec = SweepSpec.from_dict(SWEEP)
    with tempfile.TemporaryDirectory() as tmp:
        return run_jobs(spec.jobs(), store=ResultStore(tmp))


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        queue_root = f"{tmp}/queue"
        store_root = f"{tmp}/store"
        backend = f"dir:{queue_root}"
        port = 8713

        workers = [
            repro(
                "worker", "--backend", backend, "--store", store_root,
                "--id", f"smoke-w{i}", "--idle-timeout", "120",
            )
            for i in range(2)
        ]
        server = repro(
            "serve", "--backend", backend, "--store", store_root,
            "--host", "127.0.0.1", "--port", str(port),
        )
        base = f"http://127.0.0.1:{port}"
        spec = SweepSpec.from_dict(SWEEP)
        garbled = spec.jobs()[0]
        ResultStore(store_root).put(garbled.key(), garbled.kind, {"garbled": 1})
        print(f"garbled the stored record of {garbled.label}")
        try:
            wait_for_server(base, time.time() + 30)

            body = json.dumps(SWEEP).encode()
            request = urllib.request.Request(
                base + "/sweep", data=body,
                headers={"Content-Type": "application/json"},
            )
            receipt = json.loads(
                urllib.request.urlopen(request, timeout=10).read()
            )
            sweep_id = receipt["sweep"]
            total = receipt["total"]
            print(f"submitted sweep {sweep_id}: {total} jobs -> {backend}")

            deadline = time.time() + 240
            while True:
                status = get_json(f"{base}/sweep/{sweep_id}")
                print(
                    f"  {status['stored']}/{status['total']} stored, "
                    f"failed: {status['failed']}"
                )
                if status.get("failed"):
                    raise SystemExit(
                        f"worker failures: {status.get('failures')}"
                    )
                if status["complete"]:
                    break
                if time.time() > deadline:
                    raise SystemExit("sweep never completed")
                time.sleep(1.0)

            served = status["table"]
            serial = serial_outcome()
            expected = spec.table(spec.grid(serial.results))
            if served != expected:
                print("served table:", json.dumps(served, indent=2))
                print("serial table:", json.dumps(expected, indent=2))
                raise SystemExit("distributed table != serial table")
            print("table matches the in-process serial run")

            # Every job's record is served straight from the store; the
            # garbled one was re-simulated and overwritten.
            for job in spec.jobs():
                record = get_json(f"{base}/result/{job.key()}")
                assert record["key"] == job.key(), record
            record = get_json(f"{base}/result/{garbled.key()}")
            if record["result"] != garbled.encode(serial.results[garbled]):
                raise SystemExit(
                    f"garbled record was not re-simulated: {record['result']}"
                )
            print(f"all {total} results served via GET /result/<key>")

            health = get_json(base + "/healthz")
            print("counters:", json.dumps(health["counters"]))
            print("service smoke: ok")
            return 0
        finally:
            server.terminate()
            for worker in workers:
                worker.terminate()
            server.wait(timeout=10)
            for worker in workers:
                worker.wait(timeout=30)


if __name__ == "__main__":
    sys.exit(main())
