"""vvtrack starts without scipy: only the detection and shadow stages load it.

pytest has loaded scipy already, so the check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import importlib, json, pkgutil, sys
from pathlib import Path

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

loaded = {}
import vvtrack
from vvtrack import cli
for module in pkgutil.iter_modules(vvtrack.__path__):
    importlib.import_module(f"vvtrack.{module.name}")
loaded["import"] = scipy_modules()

work = Path(sys.argv[1])
for seed in (0, 1):
    assert cli.main(["generate", "--scene", "two_rect", "--frames", "4", "--seed",
                     str(seed), "--out", str(work / "cls" / f"c{seed}")]) == 0
loaded["generate"] = scipy_modules()
(work / "vocab.json").write_text('{"vocabulary": {"K": 4}}')
assert cli.main(["train-vocab", "--config", str(work / "vocab.json"), "--in",
                 str(work / "cls" / "c0"), "--out", str(work / "codebook.txt")]) == 0
loaded["train-vocab"] = scipy_modules()
assert cli.main(["train-svm", "--config", str(work / "vocab.json"), "--vocab",
                 str(work / "codebook.txt"), "--in", str(work / "cls"),
                 "--out", str(work / "model.txt")]) == 0
loaded["train-svm"] = scipy_modules()
seq = work / "cls" / "c0"
tracks = [{"frame": r["frame"], "id": o["id"], "cx": o["box"][0] + o["box"][2] / 2,
           "cy": o["box"][1] + o["box"][3] / 2, "w": o["box"][2], "h": o["box"][3]}
          for r in map(json.loads, (seq / "truth.jsonl").read_text().splitlines())
          for o in r["objects"]]
(work / "tracks.jsonl").write_text("".join(json.dumps(t) + "\n" for t in tracks))
assert cli.main(["eval", "--tracks", str(work / "tracks.jsonl"), "--truth",
                 str(seq / "truth.jsonl"), "--out", str(work / "metrics.csv")]) == 0
loaded["eval"] = scipy_modules()
from vvtrack import frames, tracker
grays = [frames.to_grayscale(f) for f in frames.read_sequence(seq)]
boxes = [tuple(t["box"]) for t in json.loads((seq / "truth.jsonl").read_text()
                                             .splitlines()[0])["objects"]]
assert tracker.track_sequence(grays, boxes, tracker.TrackerConfig(n_particles=5, n_iters=2))
loaded["track_sequence"] = scipy_modules()
(work / "detect.json").write_text('{"background": {"burn_in": 1}}')
assert cli.main(["detect", "--config", str(work / "detect.json"), "--in", str(seq),
                 "--out", str(work / "det")]) == 0
loaded["detect"] = scipy_modules()
print(json.dumps(loaded))
"""


def test_only_detection_loads_scipy(tmp_path):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC),
                                                       os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    for stage in ("import", "generate", "train-vocab", "train-svm", "eval",
                  "track_sequence"):
        assert loaded[stage] == [], f"{stage} loaded {loaded[stage][:5]}"
    assert "scipy.ndimage" in loaded["detect"]
