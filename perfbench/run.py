#!/usr/bin/env python3
"""Build the trustvo benchmark from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fig9_join --seed 1 --seconds 20 --trace 0

The Go toolchain's build cache, temporary files and the benchmark binary
all live under .bench_build/ in the checkout, so the run reads and writes
nothing outside it. Every argument is passed on to the benchmark binary,
whose last line of standard output is the JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    # The benchmark builds the repository's module from source; without it
    # there is nothing to measure.
    for need in ("go.mod", "trustvo.go", "internal"):
        if not os.path.exists(os.path.join(ROOT, need)):
            sys.stderr.write("perfbench: %s not found next to perfbench/; "
                             "run from a full checkout of the repository\n" % need)
            return 2
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build):
        build = os.path.join(ROOT, build)
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                     ("GOTMPDIR", "tmp"), ("TMPDIR", "tmp"), ("HOME", "home"),
                     ("XDG_CONFIG_HOME", "home/.config")):
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="", CGO_ENABLED="0",
               GOWORK="off")
    binary = os.path.join(build, "perfbench.bin")
    res = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                         stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return res.returncode or 1
    env["PERFBENCH_WORKDIR"] = build
    res = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env)
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())
