"""Building the programs from the checkout's sources and calling the
benchmark's helper, prop_trace."""

import hashlib
import json
import os
import subprocess


class BuildError(RuntimeError):
    pass


def build(root, build_dir):
    """Configures (once) and builds prop_cli, prop_serve and prop_trace in
    Release mode.  The build's own output goes to build.log."""
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not os.path.exists(os.path.join(root, needed)):
            raise BuildError(f"{needed} is missing: the benchmark builds the "
                             "program from the checkout's sources")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "prop_cli", "prop_serve", "prop_trace"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=root).returncode != 0:
                with open(log_path) as f:
                    raise BuildError("build failed:\n" + f.read()[-3000:])
    return Tools(build_dir)


class Tools:
    def __init__(self, build_dir):
        self.prop_cli = os.path.join(build_dir, "tools", "prop_cli")
        self.prop_serve = os.path.join(build_dir, "tools", "prop_serve")
        self.prop_trace = os.path.join(build_dir, "prop_trace")

    def _helper(self, args):
        return subprocess.run([self.prop_trace] + args, check=True,
                              capture_output=True, text=True).stdout

    def gen(self, nodes, seed, path):
        """A seeded scaled_spec synthetic of `nodes` nodes."""
        self._helper(["gen", "--nodes", str(nodes), "--seed", str(seed),
                      "--out", path])

    def circuit(self, name, path):
        """A bundled Table-1 circuit, as prop_serve builds it."""
        self._helper(["circuit", "--name", name, "--out", path])

    def trace(self, args, doc_path):
        self._helper(args + ["--trace-out", doc_path])
        with open(doc_path) as f:
            return json.load(f)

    def build_info(self):
        return json.loads(self._helper(["host"]))


def source_digest(root):
    """sha256 over the sources the benchmark builds (the checkout may not
    be a git repository, so there may be no commit to name)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        base = os.path.join(root, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(base)
            if "__pycache__" not in d for f in files)
        for path in paths:
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_sha(root):
    """The commit of a git checkout, read from .git without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def host_fingerprint(root, tools):
    """What a result needs to be compared with another: a slower host must
    not read as a regression."""
    info = dict(nproc=os.cpu_count(),
                usable_cpus=len(os.sched_getaffinity(0)),
                cpu_model=cpu_model())
    info.update(tools.build_info())
    info.update(git_sha=git_sha(root), source_digest=source_digest(root))
    return info
