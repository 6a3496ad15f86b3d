"""Result records: one JSON line per run, grouped by the code they measured.

Records go to `perfbench/results/<label>/<workload>.jsonl`, where the label
is the git commit when the checkout has one and a digest of `src/` when it
does not, as in a checkout exported without its history.  `compare.py` reads
two such directories.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import time
from pathlib import Path


def git_commit(root):
    """HEAD of the checkout, or None when the checkout is not a git repository."""
    if not (Path(root) / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def src_digest(root):
    h = hashlib.sha256()
    src = Path(root) / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(root):
    import numpy

    commit = git_commit(root)
    digest = src_digest(root)
    return {
        "commit": commit,
        "src_digest": digest,
        "label": commit[:12] if commit else "src-" + digest[:12],
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def results_dir(root, label):
    path = Path(root) / "perfbench" / "results" / label
    path.mkdir(parents=True, exist_ok=True)
    return path


def append(root, record):
    path = results_dir(root, record["env"]["label"]) / ("%s.jsonl" % record["workload"])
    with open(path, "a") as f:
        f.write(json.dumps(record) + "\n")
    return path


def load(directory):
    """Every record under a results directory."""
    out = []
    for path in sorted(Path(directory).glob("*.jsonl")):
        with open(path) as f:
            out.extend(json.loads(line) for line in f if line.strip())
    return out
