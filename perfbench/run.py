#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--jobs J] [--trace-file PATH]

Run it from the root of a checkout of the repository. It builds
perfbench/main.exe with dune, runs it, and relays its output; the last line
is one JSON object with the keys correct, attempted, failed and metrics.
A traced run (--trace 1) keeps the runtime's event ring in perfbench/out/
while it runs, and writes its spans to PATH if --trace-file is given.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    die("dune not found on PATH")


def arg_value(args, name):
    for i, a in enumerate(args[:-1]):
        if a == name:
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("not a checkout of the repository: %s is missing" % need)
    env = dict(os.environ)
    # Keep every build artefact inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    try:
        build = subprocess.run(
            dune_command() + ["build", "--root", ROOT, "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if build.returncode != 0:
        die("build failed")
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    if arg_value(args, "--trace") == "1":
        os.makedirs(OUT, exist_ok=True)
        # The runtime's event ring, read for GC pause times: 2^12 words per
        # domain, a 4 MiB file for OCaml 5.1's 128 domain slots, drained
        # every millisecond by the benchmark's poller domain.
        env["OCAMLRUNPARAM"] = "e=12"
        env["OCAML_RUNTIME_EVENTS_DIR"] = OUT
    proc = subprocess.Popen([exe] + args, cwd=ROOT, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die("run timed out")
    sys.exit(code)


if __name__ == "__main__":
    main()
