"""
Command line tour
=================

The qheis tool wraps the library behind seven subcommands that read and
emit JSON, so every capability is scriptable. Reports carry the tool
version and a hash of the input configuration, and identical inputs
produce byte-identical output.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

CLI = [sys.executable, "-m", "qheis.cli"]


def run(*args):
    result = subprocess.run(CLI + list(args), capture_output=True, text=True)
    print("$ qheis", " ".join(args))
    if result.returncode != 0:
        print("  exit", result.returncode, result.stderr.strip())
    return result


# normal-form: exact normal forms from the surface syntax.
out = run("normal-form", "x*p")
print(" ", json.loads(out.stdout)["normal_form"])

out = run("normal-form", "--format", "text", "p*x - s^2*x*p - i*(s^3 - s^-1)*u")
print(" ", out.stdout.strip(), "(an exact zero)")

# A malformed expression is a usage error: exit code 2, message on stderr.
run("normal-form", "p +")

workdir = Path(tempfile.mkdtemp(prefix="qheis-tour-"))
config = workdir / "model.json"

# example: write a ready-made model configuration...
run("example", "--kind", "2", "--out", str(config))
print("  wrote", config.name)

# ...which the other subcommands consume.
out = run("verify", "--config", str(config))
report = json.loads(out.stdout)
print("  verify status:", report["status"], " config", report["config_hash"][:12])

out = run("spectrum", "--config", str(config))
report = json.loads(out.stdout)
print("  spectrum: dim", report["dim"],
      " hermiticity", f"{report['hermiticity_residual']:.1e}")

out = run("classify", "--config", str(config))
print("  classify:", json.loads(out.stdout)["verdict"])

out = run("equiv", "--config-a", str(config), "--config-b", str(config))
print("  equiv (against itself):", json.loads(out.stdout)["verdict"])

# schrodinger needs no configuration file, only the deformation value.
out = run("schrodinger", "--q", "0.5", "--samples", "10")
report = json.loads(out.stdout)
print("  schrodinger:", report["status"],
      " checks:", len(report["checks"]), " alpha:", round(report["alpha"], 6))

# Determinism: same input, same bytes.
first = run("verify", "--config", str(config))
second = run("verify", "--config", str(config))
print("  verify output identical on rerun:", first.stdout == second.stdout)
