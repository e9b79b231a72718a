"""What every result record carries besides its metrics: the host and
source it ran on, and the per-layer predictions it is read against."""

from __future__ import annotations

import hashlib
import os
import pathlib
import platform
import subprocess

WORKLOADS = ("paper-grid", "delta-series", "fabric-stream")

#: Which end-to-end metric each group of per-layer metrics should move,
#: on each workload in WORKLOADS order ("no change" where the workload
#: bypasses the layer).
_MOVES = [
    (("soc.build_s", "soc.builds"),
     ("no change", "ops_per_s", "wall_s")),
    (("aig.bitblast_s",), ("wall_s", "ops_per_s", "wall_s")),
    (("aig.coi_s",), ("no change", "ops_per_s", "wall_s")),
    (("aig.bitsim_s", "aig.sim_pruned"),
     ("wall_s", "latency_p50_s", "no change")),
    (("sat.solve_s", "sat.calls", "sat.conflicts", "sat.decisions",
      "sat.propagations", "sat.props_per_s"),
     ("wall_s, latency_p50_s", "latency_p50_s, wall_s",
      "no change (SAT is ~2% of a job)")),
    (("sat.bve_s", "sat.vars_eliminated"),
     ("wall_s (IFT column)", "no change", "no change")),
    (("upec.encode_s", "upec.alg1_s", "upec.iterations"),
     ("wall_s", "latency_p50_s", "no change")),
    (("formal.bmc_s", "formal.induction_s"),
     ("no change", "latency_p50_s", "wall_s")),
    (("ift.check_s",), ("wall_s", "no change", "no change")),
    (("verify.execute_s", "verify.obligations"),
     ("wall_s", "wall_s", "wall_s")),
    (("verify.key_s", "verify.cache_get_s", "verify.cache_gets",
      "verify.cache_hit_ratio", "verify.cache_put_s"),
     ("no change", "no change", "ops_per_s")),
    (("verify.diff_s", "verify.plan_s", "verify.fingerprint_s",
      "verify.served_share"),
     ("no change", "ops_per_s", "no change")),
    (("campaign.sched_s", "campaign.jobs"),
     ("wall_s", "wall_s", "wall_s")),
    (("fabric.frame_s", "fabric.frames", "fabric.frame_bytes"),
     ("no change", "no change", "ops_per_s")),
    (("fabric.worker_busy_share", "fabric.hits_served",
      "fabric.duplicate_results"),
     ("no change", "no change", "wall_s, ops_per_s")),
]
PREDICTIONS = {name: dict(zip(WORKLOADS, moves))
               for names, moves in _MOVES for name in names}


def source_lines(src: pathlib.Path) -> dict[str, int]:
    """Lines of Python source per top-level ``repro`` module."""
    lines: dict[str, int] = {}
    package = src / "repro"
    for path in sorted(package.rglob("*.py")):
        top = path.relative_to(package).parts[0].removesuffix(".py")
        with open(path, "rb") as handle:
            lines[top] = lines.get(top, 0) + sum(1 for _ in handle)
    return lines


def source_digest(src: pathlib.Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_sha(root: pathlib.Path) -> str | None:
    if not (root / ".git").exists():
        return None  # an exported checkout: the source digest still names it
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(root: pathlib.Path, hash_seed: str) -> dict:
    """The host/source record taken at the start of a run."""
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_sha": _git_sha(root),
        "source_digest": source_digest(root / "src"),
        "loadavg_start": list(os.getloadavg()),
        "pythonhashseed": hash_seed,
        "source_lines": source_lines(root / "src"),
    }
