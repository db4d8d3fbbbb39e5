#!/usr/bin/env python3
"""The ftb benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a source checkout. It builds bin/ftb_cli.exe,
bench/main.exe and perfbench/probe.exe with dune, runs one workload for
about T seconds of measured passes, checks every output outside the timed
windows and prints, as its last stdout line, one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics of BENCHMARK.json; --trace 1 reports the per-layer metrics, the
tracing overhead and a span file under .perfbench_out/. Exit code 1 means
an output was wrong; 2 means the benchmark could not run. See
perfbench/README.md.
"""

import sys

sys.dont_write_bytecode = True

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import socket
import struct
import subprocess
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib as bl  # noqa: E402

OUT = ".perfbench_out"
TARGETS = ("bin/ftb_cli.exe", "bench/main.exe", "perfbench/probe.exe")
CLI, MAIN, PROBE = ("_build/default/" + t for t in TARGETS)
HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "paper_quick_digests.json")

WORKLOADS = ("paper-quick", "campaign", "service")
# Every experiment except the two that time themselves (overhead, perf).
PAPER_EXPERIMENTS = [
    "table1", "fig3", "table2", "fig4", "fig5", "table3", "table4", "ablation", "tolerance",
]
# Pass 0 always runs this seed, the one the sampled tables' digests were
# taken at, so every run checks every table.
PAPER_DEFAULT_SEED = 42
# Stage -> per-layer metric; a stage's contexts are subtracted from it.
PAPER_STAGE_METRICS = {
    "table2": "core.study_inference_s",
    "fig4": "core.study_adaptive_s",
    "fig5": "core.study_sweep_s",
    "table3": "core.study_uncertainty_s",
    "table4": "core.study_scaling_s",
    "ablation": "core.study_ablation_s",
    "tolerance": "core.study_tolerance_s",
}
# Set-ups per run, on top of the one every service pass makes. Half of
# them run before the passes and half after, so that the median spans the
# run: on a shared 2-vCPU virtual machine, CPU speed moved by a fifth
# between phases lasting seconds to minutes. The first lowering in a
# process takes 15 or 24 ms depending on the process, so campaign set-up
# needs many processes. A service set-up also tears a daemon down (0.25 s),
# so it repeats less.
CAMPAIGN_SETUP_REPEATS = 24
SERVICE_SETUP_REPEATS = 16
# paper-quick set-up is a ~1.5 ms start-up that moves with the machine's
# speed from one second to the next: it is sampled this many times before
# every pass, so that the median covers the whole run.
PAPER_SETUP_SPAWNS = 24
# How often a service set-up polls for the daemon and the worker. The
# set-up takes about 10 ms, so a coarse poll would add its own noise.
SETUP_POLL_S = 0.0005

now = time.monotonic

_libc = ctypes.CDLL(None)
ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout():
    """Run measured programs with address-space randomisation off (what
    `setarch -R` does). With it on, the peak RSS of one and the same
    bench/main.exe run flips between about 30 and 40 MiB from process to
    process. Set once in this process, the setting is inherited by every
    program it starts, which keeps subprocess on its vfork path: a
    preexec_fn would force a full fork and double bench/main.exe's
    start-up time."""
    _libc.personality(ADDR_NO_RANDOMIZE)


class Failure(Exception):
    """The benchmark cannot run (missing sources, failed build)."""


# --- spans -------------------------------------------------------------------


class Tracer:
    """Spans kept in memory and written to a file when the run exits."""

    def __init__(self, run_id, enabled):
        self.run_id = run_id
        self.spans = []
        self.enabled = enabled

    def add(self, name, start, end, parent=None):
        sid = "py%d" % len(self.spans)
        if self.enabled:
            self.spans.append(
                {"id": sid, "name": name, "start": start, "end": end,
                 "parent": parent, "run": self.run_id}
            )
        return sid

    def adopt(self, probe_spans, prefix, parent):
        """Attach spans recorded by probe.exe, re-keyed under `parent`."""
        if not self.enabled:
            return
        for s in probe_spans:
            self.spans.append(
                {"id": "%s:%d" % (prefix, s["id"]), "name": s["name"],
                 "start": s["start"], "end": s["end"], "run": self.run_id,
                 "parent": parent if s["parent"] is None else "%s:%d" % (prefix, s["parent"])}
            )

    def write(self, path, extra):
        selfs = bl.self_times(self.spans)
        by_name = {}
        for s in self.spans:
            agg = by_name.setdefault(s["name"], [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += s["end"] - s["start"]
            agg[2] += selfs[s["id"]]
        for s in self.spans:
            s["self"] = selfs[s["id"]]
        with open(path, "w") as f:
            json.dump(dict(extra, spans=self.spans, self_time=by_name), f)
        return by_name


# --- helpers -----------------------------------------------------------------


def log(msg):
    print(msg, flush=True)


def rm_rf(path):
    shutil.rmtree(path, ignore_errors=True)


def pass_loop(seconds):
    """Yield the index of each measured pass until `seconds` have gone by
    (at least one pass)."""
    start = now()
    i = 0
    while i == 0 or now() - start < seconds:
        yield i
        i += 1


def run_probe(args, timeout=170):
    """Run probe.exe and return its last stdout line, parsed."""
    p = subprocess.Popen([PROBE] + args, stdout=subprocess.PIPE)
    try:
        out, _ = p.communicate(timeout=timeout)
    finally:
        if p.poll() is None:
            p.kill()
            p.wait()
    if p.returncode != 0:
        raise Failure("probe %s exited with %d" % (args[0], p.returncode))
    lines = out.decode().strip().splitlines()
    return json.loads(lines[-1])


def host_block(args, domains, workers):
    try:
        ocaml = subprocess.run(["ocamlfind", "ocamlopt", "-version"], capture_output=True,
                               text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        ocaml = "unknown"
    try:
        # The ceiling keeps git from reporting an enclosing repository.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                env=env, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    h = hashlib.sha256()
    for top in ("lib", "bin", "bench", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", ".py", ".json")) or name == "dune":
                    path = os.path.join(dirpath, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "ocaml": ocaml, "python": platform.python_version(),
        "domains": domains, "workers": workers,
        "commit": commit or "unavailable (not a git checkout)",
        "source_sha256": h.hexdigest(),
    }


def build():
    for need in ("dune-project", "bin/ftb_cli.ml", "bench/main.ml", "lib"):
        if not os.path.exists(need):
            raise Failure("not a source checkout: %s is missing" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet"] + ["./" + t for t in TARGETS],
        stdout=sys.stderr, env=env)
    if r.returncode != 0:
        raise Failure("dune build failed")


# --- paper-quick -------------------------------------------------------------


def spawn_paper(seed, csv_dir):
    rm_rf(csv_dir)
    os.makedirs(csv_dir)
    argv = [MAIN] + PAPER_EXPERIMENTS + ["--quick", "--seed", str(seed), "--csv", csv_dir]
    t0 = now()
    p = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, bufsize=0)
    return t0, p


def read_lines(p, stop_after_first=False):
    """Timestamp stderr lines as they arrive."""
    lines, buf = [], b""
    fd = p.stderr.fileno()
    while True:
        chunk = os.read(fd, 65536)
        if not chunk:
            break
        t = now()
        buf += chunk
        *done, buf = buf.split(b"\n")
        lines.extend((t, d.decode(errors="replace")) for d in done)
        if stop_after_first and lines:
            break
    return lines


def wait_rusage(p):
    _, status, ru = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    return now(), ru


def check_csvs(csv_dir, seed, digests):
    """(checked, failures): every expected CSV exists; the seed-independent
    ones match their digests at any seed, the sampled ones at the default
    seed only (pass 0 of every run)."""
    failures, checked = [], 0
    for name, want in sorted(digests["files"].items()):
        checked += 1
        path = os.path.join(csv_dir, name)
        if not os.path.exists(path):
            failures.append("%s: missing" % name)
            continue
        if name in digests["seed_independent"] or seed == PAPER_DEFAULT_SEED:
            with open(path, "rb") as f:
                got = hashlib.sha256(f.read()).hexdigest()
            if got != want:
                failures.append("%s: sha256 %s, expected %s" % (name, got[:12], want[:12]))
    return checked, failures


def paper_layers(lines, end):
    stages, contexts, problems = bl.parse_markers(lines, end, PAPER_EXPERIMENTS)
    ctx_in = {}
    for _, stage, start, stop, _ in contexts:
        ctx_in[stage] = ctx_in.get(stage, 0.0) + (stop - start)
    dur = {name: stop - start for name, start, stop in stages}
    layer = {
        "core.context_prepare_s": sum(stop - start for _, _, start, stop, _ in contexts),
        "inject.ground_truth_cases": sum(c[4] for c in contexts),
    }
    if "table1" in dur and "fig3" in dur:
        layer["core.study_exhaustive_s"] = (
            dur["table1"] + dur["fig3"] - ctx_in.get("table1", 0) - ctx_in.get("fig3", 0))
    for stage, metric in PAPER_STAGE_METRICS.items():
        if stage in dur:
            layer[metric] = dur[stage] - ctx_in.get(stage, 0.0)
    return stages, contexts, problems, layer


def paper_setup(res, csv_dir, n):
    """Spawn to the first stage marker (program load and start-up), n times."""
    for _ in range(n):
        t0, p = spawn_paper(PAPER_DEFAULT_SEED, csv_dir)
        try:
            lines = read_lines(p, stop_after_first=True)
        finally:
            p.kill()
            p.wait()
            p.stderr.close()
        if lines:
            res.setup.append(lines[0][0] - t0)


def workload_paper(args, tracer):
    """Tracing here only timestamps stderr lines this process reads anyway,
    so traced and untraced passes run the same program: every pass serves
    both the end-to-end and the per-layer figures."""
    with open(DIGESTS) as f:
        digests = json.load(f)
    res = Result()
    csv_dir = os.path.join(OUT, "paper-csv")
    walls, rss, cases_per_s, layers = [], [], [], []
    for i in pass_loop(args.seconds):
        paper_setup(res, csv_dir, PAPER_SETUP_SPAWNS)
        # Pass 0 runs the default seed (see PAPER_DEFAULT_SEED); pass i > 0
        # runs seed S + i. The sampled studies' peak memory depends on the
        # seed (28 to 39 MiB), so a run covers several seeds.
        seed = PAPER_DEFAULT_SEED if i == 0 else args.seed + i
        t0, p = spawn_paper(seed, csv_dir)
        lines = read_lines(p)
        t1, ru = wait_rusage(p)
        p.stderr.close()
        res.attempted += 1
        if p.returncode != 0:
            res.fail("pass %d: bench/main.exe exited with %d" % (i, p.returncode))
            continue
        walls.append(t1 - t0)
        rss.append(ru.ru_maxrss / 1024.0)
        stages, contexts, problems, layer = paper_layers(lines, t1)
        for msg in problems:
            log("warning: pass %d: %s" % (i, msg))
        # Exhaustive ground-truth cases per second of regeneration. (Cases
        # over the context intervals alone is the sharper figure, but those
        # intervals are short and too noisy for an end-to-end bound; it is
        # reported per layer as core.context_prepare_s.)
        cases_per_s.append(layer["inject.ground_truth_cases"] / (t1 - t0))
        layers.append(layer)
        root = tracer.add("paper-quick/pass%d" % i, t0, t1)
        ids = {}
        for name, start, stop in stages:
            ids[name] = tracer.add("core.stage." + name, start, stop, root)
        for kernel, stage, start, stop, _ in contexts:
            tracer.add("core.context_prepare." + kernel, start, stop, ids.get(stage, root))
        checked, failures = check_csvs(csv_dir, seed, digests)
        res.attempted += checked
        for msg in failures:
            res.fail("pass %d: %s" % (i, msg))
    rm_rf(csv_dir)
    res.raw = {"walls": walls, "rss_mb": rss, "layers": layers, "cases_per_s": cases_per_s,
               "setup_s": res.setup}
    res.e2e(wall=walls, cases_per_s=cases_per_s, rss_mb=rss)
    res.named("paper_wall_s", walls, "s")
    res.named("setup_s", res.setup, "s")
    res.named("peak_rss_mb", rss, "MiB")
    if args.trace:
        for name in ["core.context_prepare_s", "core.study_exhaustive_s"] + list(
                PAPER_STAGE_METRICS.values()):
            res.layer(name, [l[name] for l in layers if name in l], "s",
                      why="its stage marker was missing")
        res.layer("inject.ground_truth_cases", [l["inject.ground_truth_cases"] for l in layers],
                  "count")
        res.no_overhead("stage markers are read from stderr on every pass")
    return res


# --- campaign ----------------------------------------------------------------


def workload_campaign(args, tracer):
    res = Result()
    tmp = os.path.join(OUT, "campaign")
    rm_rf(tmp)
    os.makedirs(tmp)

    def setup(n):
        for _ in range(n):
            res.setup.append(run_probe(["lower", "--seed", str(args.seed)])["setup_s"])

    setup(CAMPAIGN_SETUP_REPEATS // 2)
    p = subprocess.Popen(
        [PROBE, "campaign", "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(int(args.trace)), "--tmp", tmp],
        stdout=subprocess.PIPE)
    try:
        out = p.stdout.read()
        _, ru = wait_rusage(p)
    finally:
        if p.returncode is None:
            p.kill()
            p.wait()
    rm_rf(tmp)
    if p.returncode != 0:
        raise Failure("probe campaign exited with %d" % p.returncode)
    setup(CAMPAIGN_SETUP_REPEATS - CAMPAIGN_SETUP_REPEATS // 2)
    data = json.loads(out.decode().strip().splitlines()[-1])
    res.raw = data
    passes = data["passes"]
    n_campaigns = sum(len(ps["campaigns"]) for ps in passes)
    res.attempted += n_campaigns + data["checked"]
    for msg in data["errors"]:
        res.fail(msg)
    walls, rates = {False: [], True: []}, {False: [], True: []}
    for ps in passes:
        t = sum(c["golden_s"] + c["engine_s"] for c in ps["campaigns"])
        walls[ps["traced"]].append(t)
        rates[ps["traced"]].append(sum(c["cases"] for c in ps["campaigns"]) / t)
    rss = [ru.ru_maxrss / 1024.0]
    res.e2e(wall=walls[False], cases_per_s=rates[False], rss_mb=rss)
    res.named("campaign_cases_per_s", rates[False], "cases/s")
    res.named("setup_s", res.setup, "s")
    res.named("peak_rss_mb", rss, "MiB")
    if args.trace:
        tracer.adopt(data["spans"], "probe", None)
        traced = [ps for ps in passes if ps["traced"]]
        cs = [c for ps in traced for c in ps["campaigns"]]
        res.layer("ir.lower_s", [sum(ps["lower_s"].values()) for ps in traced], "s")
        res.layer("ir.cone_build_s",
                  [sum(c["cone_build_s"] for c in ps["campaigns"]) for ps in traced], "s")
        for label in sorted({c["name"] for c in cs}):
            mine = [c for c in cs if c["name"] == label]
            if not label.endswith(".bf32"):  # same program as ir.lu
                res.layer("ir.cone_site_share." + label,
                          [c["cone_sites"] / c["sites"] for c in mine], "ratio")
            res.layer("campaign.cases_per_s." + label,
                      [c["cases"] / (c["golden_s"] + c["engine_s"]) for c in mine], "cases/s")
        res.layer("trace.golden_s",
                  [sum(c["golden_s"] for c in ps["campaigns"]) for ps in traced], "s")
        res.layer("inject.replay_s",
                  [sum(c["replay_s"] for c in ps["campaigns"]) for ps in traced], "s")
        res.layer("inject.pool_idle_share",
                  [1 - sum(c["replay_s"] for c in ps["campaigns"])
                   / sum(c["pool_capacity_s"] for c in ps["campaigns"]) for ps in traced],
                  "ratio")
        res.layer("campaign.waves", [sum(c["waves"] for c in ps["campaigns"]) for ps in traced],
                  "count")
        res.layer_samples("campaign.wave_ms_p50", [x for c in cs for x in c["wave_ms"]], "ms")
        res.layer_samples("campaign.checkpoint_ms_p50",
                          [x for c in cs for x in c["checkpoint_ms"]], "ms")
        res.layer("campaign.checkpoints",
                  [sum(c["checkpoints"] for c in ps["campaigns"]) for ps in traced], "count")
        res.layer("campaign.checkpoint_bytes",
                  [sum(c["checkpoint_bytes"] for c in ps["campaigns"]) for ps in traced], "B")
        res.overhead(walls[True], walls[False])
    return res


# --- service -----------------------------------------------------------------


def frame(sock_path, obj, timeout=10.0):
    """One request/response exchange in the daemon's wire format (4-byte
    big-endian length, then JSON)."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(sock_path)
        payload = json.dumps(obj).encode()
        s.sendall(struct.pack(">I", len(payload)) + payload)

        def read(n):
            buf = b""
            while len(buf) < n:
                chunk = s.recv(n - len(buf))
                if not chunk:
                    raise ConnectionError("daemon closed the connection")
                buf += chunk
            return buf

        (length,) = struct.unpack(">I", read(4))
        return json.loads(read(length))


def read_proc(pid):
    with open("/proc/%d/stat" % pid) as f:
        st = bl.parse_proc_stat(f.read())
    with open("/proc/%d/status" % pid) as f:
        hwm = bl.parse_vm_hwm_kib(f.read())
    return (st["utime"] + st["stime"]) / os.sysconf("SC_CLK_TCK"), hwm


class Fleet:
    """One daemon (serve --domains 1) and one worker (--domains 1) on a
    fresh state directory."""

    def __init__(self, tag):
        self.state = os.path.join(OUT, "svc-" + tag)
        self.sock = os.path.join(OUT, "svc-%s.sock" % tag)
        rm_rf(self.state)
        if os.path.exists(self.sock):
            os.remove(self.sock)
        self.logf = open(os.path.join(OUT, "svc-%s.log" % tag), "w")
        self.procs = []

    def start(self):
        """Fork the daemon and the worker and wait until the worker has
        registered; returns the set-up time."""
        t0 = now()
        self.daemon = self._spawn([CLI, "serve", "--socket", self.sock, "--state", self.state,
                                   "--domains", "1"])
        deadline = t0 + 60
        while True:
            try:
                frame(self.sock, {"cmd": "list"})
                break
            except OSError:
                if now() > deadline or self.daemon.poll() is not None:
                    raise Failure("daemon did not come up")
                time.sleep(SETUP_POLL_S)
        self.worker = self._spawn([CLI, "worker", "--connect", self.sock, "--domains", "1"])
        while not frame(self.sock, {"cmd": "worker_stats"}).get("workers"):
            if now() > deadline or self.worker.poll() is not None:
                raise Failure("worker did not register")
            time.sleep(SETUP_POLL_S)
        return now() - t0

    def _spawn(self, argv):
        p = subprocess.Popen(argv, stdout=self.logf, stderr=self.logf, stdin=subprocess.DEVNULL)
        self.procs.append(p)
        return p

    def stop(self):
        """Worker first (SIGTERM), then the daemon (shutdown frame): a daemon
        asked to drain with a worker attached takes 1.7 s longer."""
        for p in reversed(self.procs):
            if p is self.procs[0]:
                try:
                    frame(self.sock, {"cmd": "shutdown"}, timeout=5)
                except (OSError, ValueError):
                    pass
            else:
                p.send_signal(signal.SIGTERM)
            try:
                p.wait(timeout=20)
            except subprocess.TimeoutExpired:
                p.send_signal(signal.SIGKILL)
                p.wait()
        self.procs = []
        self.logf.close()


def service_pass(args, res, tag):
    fleet = Fleet(tag)
    try:
        res.setup.append(fleet.start())
        d0, _ = read_proc(fleet.daemon.pid)
        w0, _ = read_proc(fleet.worker.pid)
        probe = ["service-run", "--socket", fleet.sock, "--seed", str(args.seed), "--phase"]
        # The exhaustive jobs are the same at every seed; the daemon's peak
        # memory after them is the steady figure. Adaptive jobs then grow
        # it by an amount that depends on how many rounds the seed needs.
        first = run_probe(probe + ["exhaustive"])
        _, hwm_fixed = read_proc(fleet.daemon.pid)
        data = run_probe(probe + ["adaptive"])
        d1, hwm = read_proc(fleet.daemon.pid)
        w1, whwm = read_proc(fleet.worker.pid)
    finally:
        fleet.stop()
    data["jobs"] = first["jobs"] + data["jobs"]
    data["start"] = first["start"]
    data["exhaustive_end"] = first["end"]
    for key in ("typed_errors", "transport_errors"):
        data[key] += first[key]
    data["daemon_cpu_s"] = d1 - d0
    data["worker_cpu_s"] = w1 - w0
    data["daemon_hwm_fixed_mb"] = hwm_fixed / 1024.0
    data["daemon_hwm_mb"] = hwm / 1024.0
    data["worker_hwm_mb"] = whwm / 1024.0
    data["state"] = fleet.state
    return data


def workload_service(args, tracer):
    """The client and its spans are the same on traced and untraced passes
    (the flag only decides what this process keeps), so every pass serves
    both the end-to-end and the per-layer figures."""
    res = Result()
    os.makedirs(OUT, exist_ok=True)

    def setup(first, last):
        for k in range(first, last):
            fleet = Fleet("setup%d" % k)
            try:
                res.setup.append(fleet.start())
            finally:
                fleet.stop()
            rm_rf(fleet.state)

    setup(0, SERVICE_SETUP_REPEATS // 2)
    passes = []
    for i in pass_loop(args.seconds):
        passes.append(service_pass(args, res, "pass%d" % i))
    setup(SERVICE_SETUP_REPEATS // 2, SERVICE_SETUP_REPEATS)
    check = run_probe(["service-check", "--seed", str(args.seed), "--tmp", OUT,
                       "--trace", str(int(args.trace))]
                      + [a for ps in passes for a in ("--state", ps["state"])])
    for ps in passes:
        rm_rf(ps["state"])
    res.raw = {"passes": passes, "check": check}
    res.attempted += check["checked"]
    for msg in check["errors"]:
        res.fail(msg)

    ttb, per_1k, exh_rate, rss, rss_total = [], [], [], [], []
    warm_ms, query_ms, late_ms, submit_ms = [], [], [], []
    for ps in passes:
        jobs = ps["jobs"]
        res.attempted += len(jobs) + len(ps["queries"])
        for j in jobs:
            if j.get("status") != "completed":
                res.fail("%s %s job: %s" % (j["class"], j["bench"], j.get("error", j.get("status"))))
        failed_queries = sum(1 for q in ps["queries"] if q[3] != 1.0)
        if failed_queries:
            res.fail("%d boundary queries failed" % failed_queries, count=failed_queries)
        # Typed and transport errors on jobs already fail those jobs above.
        if ps["worker"] is None:
            res.fail("worker_stats request failed")
        cold = [j for j in jobs if j["class"] == "adaptive_cold"]
        exh = [j for j in jobs if j["class"] == "exhaustive"]
        ttb.append(sum(j["done_at"] - j["submit_at"] for j in cold))
        # How many samples a cold job needs depends on its seed; the time
        # per sample does not (much). Seconds per 1000 samples, summed over
        # the three kernels, is the steady form of time to boundary.
        if cold and all(j.get("cases") for j in cold):
            per_1k.append(sum((j["done_at"] - j["submit_at"]) / j["cases"] for j in cold) * 1000)
        if exh and all(j.get("cases") for j in exh):
            exh_rate.append(sum(j["cases"] for j in exh)
                            / sum(j["done_at"] - j["submit_at"] for j in exh))
        rss.append(ps["daemon_hwm_fixed_mb"])
        rss_total.append(ps["daemon_hwm_mb"])
        warm_ms += [(j["done_at"] - j["submit_at"]) * 1e3 for j in jobs
                    if j["class"] == "adaptive_warm"]
        query_ms += [(q[2] - q[0]) * 1e3 for q in ps["queries"]]
        late_ms += [(q[1] - q[0]) * 1e3 for q in ps["queries"]]
        submit_ms += [j["submit_ms"] for j in jobs if "id" in j]
    res.e2e(wall=per_1k, cases_per_s=exh_rate, rss_mb=rss)
    res.named("service_s_per_1k_samples", per_1k, "s")
    res.named("service_time_to_boundary_s", ttb, "s")
    res.named("service_exhaustive_cases_per_s", exh_rate, "cases/s")
    res.named("service_warm_ms_p50", warm_ms, "ms")
    res.named("service_query_ms_p50", query_ms, "ms")
    res.named("service_query_ms_p99", query_ms, "ms", pct=99.0)
    res.named("setup_s", res.setup, "s")
    res.named("peak_rss_mb", rss, "MiB")
    res.named("daemon_peak_rss_mb_whole_pass", rss_total, "MiB")
    if args.trace:
        res.layer("service.time_to_boundary_s", ttb, "s")
        res.layer("service.daemon_peak_rss_mb", rss_total, "MiB")
        layer_service(res, tracer, passes, check["layer"], warm_ms, query_ms, late_ms, submit_ms)
        res.no_overhead("the client, its spans and the daemon are the same on every pass")
    return res


def layer_service(res, tracer, passes, store, warm_ms, query_ms, late_ms, submit_ms):
    res.layer_samples("service.submit_ms_p50", submit_ms, "ms")
    res.layer_samples("service.warm_ms_p50", warm_ms, "ms")
    res.layer_samples("service.query_ms_p50", query_ms, "ms")
    res.layer_samples("service.query_ms_p99", query_ms, "ms", pct=99.0)
    res.layer_samples("service.query_late_ms_p99", late_ms, "ms", pct=99.0)
    jobs = [j for ps in passes for j in ps["jobs"] if "id" in j]
    for cls in ("adaptive_cold", "exhaustive"):  # warm jobs are served at submit
        mine = [j for j in jobs if j["class"] == cls]
        res.layer_samples("service.queue_wait_ms_p50." + cls,
                          [(j["started"] - j["submitted"]) * 1e3 for j in mine
                           if j["started"] is not None], "ms")
        res.layer_samples("service.run_s." + cls,
                          [j["finished"] - j["started"] for j in mine
                           if j["started"] is not None and j["finished"] is not None], "s")
    rounds, samples, growth, intervals = [], [], [], []
    for ps in passes:
        cold = [j for j in ps["jobs"] if j["class"] == "adaptive_cold"]
        rounds.append(sum(len(j["rounds"]) for j in cold))
        samples.append(sum(j["rounds"][-1][2] for j in cold if j["rounds"]))
        longest = max(cold, key=lambda j: len(j["rounds"]), default=None)
        for j in cold:
            times = [j["submit_at"]] + [r[0] for r in j["rounds"]]
            gaps = [(b - a) * 1e3 for a, b in zip(times, times[1:])]
            intervals += gaps
            if j is longest and len(gaps) >= 4:
                q = len(gaps) // 4
                growth.append((sum(gaps[-q:]) / q) / (sum(gaps[:q]) / q))
        root = tracer.add("service/pass", ps["start"], ps["end"])
        for j in ps["jobs"]:
            jid = tracer.add("service.job." + j["class"], j["submit_at"], j["done_at"], root)
            prev = j["submit_at"]
            for t, r, _ in j["rounds"]:
                tracer.add("plan.round", prev, t, jid)
                prev = t
    res.layer("plan.rounds", rounds, "count")
    res.layer("plan.samples", samples, "count")
    res.layer_samples("plan.round_ms_p50", intervals, "ms")
    res.layer("plan.round_ms_growth", growth, "ratio",
              why="the longest cold adaptive job had fewer than four rounds")
    if store:
        res.layer("plan.round_checkpoint_bytes", [store["round_checkpoint_bytes"]], "B")
        res.layer("plan.round_checkpoint_save_ms", [store["round_checkpoint_save_ms"]], "ms")
        res.layer_samples("plan.store_query_us", store["store_query_us"], "us")
    workers = [ps["worker"] for ps in passes if ps["worker"]]
    for key in ("committed", "failed", "disputed"):
        res.layer("dist." + key, [w[key] for w in workers], "count")
    res.layer("dist.worker_busy_share",
              [ps["worker_cpu_s"] / (ps["end"] - ps["start"]) for ps in passes], "ratio")
    res.layer("service.daemon_cpu_s", [ps["daemon_cpu_s"] for ps in passes], "s")
    repeats = []
    for ps in passes:
        seen = set()
        for j in ps["jobs"]:
            if j["class"] == "exhaustive":
                (repeats.append(j) if j["bench"] in seen else seen.add(j["bench"]))
    res.layer("compose.full_hits", [sum(1 for j in repeats if j.get("cache") == "full")],
              "count")
    res.layer("compose.full_hit_attempts", [len(repeats)], "count")


# --- results -----------------------------------------------------------------


class Result:
    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.failed = 0
        self.setup = []
        self.end_to_end = {}
        self.layers = {}
        self.lines = []
        self.raw = None  # workload-specific raw measurements, kept for diagnosis

    def fail(self, msg, count=1):
        self.failures.append(msg)
        self.failed += count

    def e2e(self, wall, cases_per_s, rss_mb):
        for name, values, unit in (("setup_s", self.setup, "s"), ("wall_s", wall, "s"),
                                   ("cases_per_s", cases_per_s, "cases/s"),
                                   ("peak_rss_mb", rss_mb, "MiB")):
            if values:
                self.end_to_end[name] = (bl.median(values), unit)

    def named(self, name, values, unit, pct=None):
        """A human-readable line: the metric by its workload-specific name,
        its sample count and its highest qualifying tail percentile."""
        if not values:
            self.lines.append("%-32s (no samples)" % name)
            return
        value = bl.percentile(values, pct) if pct else bl.median(values)
        p, tv, n = bl.tail(values)
        tail = "p%g %.6g %s" % (p, tv, unit) if p else "no tail percentile (n < 11)"
        self.lines.append("%-32s %.6g %s  (n=%d, %s)" % (name, value, unit, n, tail))

    def layer(self, name, values, unit, why="no samples in this run"):
        """A per-layer metric: the median over the passes that trace."""
        if values:
            self.layers[name] = (bl.median(values), unit)
        else:
            self.layers[name] = (None, unit)
            self.lines.append("%-32s absent: %s" % (name, why))

    def layer_samples(self, name, values, unit, pct=50.0, why="no samples in this run"):
        if values:
            self.layers[name] = (bl.percentile(values, pct), unit)
            self.named(name, values, unit, pct=pct)
        else:
            self.layer(name, [], unit, why)

    def overhead(self, traced, untraced):
        if traced and untraced:
            self.layers["trace.overhead_s"] = (bl.median(traced) - bl.median(untraced), "s")

    def no_overhead(self, why):
        """Tracing that happens entirely outside the measured program costs
        it nothing: 0 by construction."""
        self.layers["trace.overhead_s"] = (0.0, "s")
        self.lines.append("%-32s 0 s by construction: %s" % ("trace.overhead_s", why))


def layer_catalogue():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    args.trace = bool(args.trace)
    fixed_layout()
    try:
        build()
        e2e_spec, layer_spec = layer_catalogue()
        os.makedirs(OUT, exist_ok=True)
        tracer = Tracer("%s/seed%d" % (args.workload, args.seed), args.trace)
        fn = {"paper-quick": workload_paper, "campaign": workload_campaign,
              "service": workload_service}[args.workload]
        host = host_block(args, domains={"paper-quick": 1, "campaign": 2, "service": 1}[
            args.workload], workers={"service": 1}.get(args.workload, 0))
        res = fn(args, tracer)
    except Failure as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    with open(os.path.join(OUT, "raw-%s-seed%d.json" % (args.workload, args.seed)), "w") as f:
        json.dump({"host": host, "raw": res.raw}, f)
    log("host " + json.dumps(host, sort_keys=True))
    for line in res.lines:
        log(line)
    for msg in res.failures:
        log("FAILED: " + msg)
    res.layers["failed_ratio"] = (res.failed / max(1, res.attempted), "ratio")
    if args.trace:
        path = os.path.join(OUT, "trace-%s-seed%d.json" % (args.workload, args.seed))
        by_name = tracer.write(path, {"host": host})
        log("spans: %s" % path)
        for name, (count, total, self_t) in sorted(by_name.items()):
            log("  %-36s n=%-4d total %9.4f s  self %9.4f s" % (name, count, total, self_t))
        wanted = layer_spec
    else:
        wanted = e2e_spec
    metrics = {}
    source = res.layers if args.trace else res.end_to_end
    for m in wanted:
        value, _ = source.get(m["name"], (None, m["unit"]))
        if args.trace:
            log("layer %-40s %s" % (m["name"], "%.6g %s" % (value, m["unit"]) if value is not None
                                    else "0 (not measured on this workload)"))
        # A layer this workload does not exercise did no work: report 0.
        metrics[m["name"]] = {"value": 0 if value is None else value, "unit": m["unit"]}
    correct = not res.failures
    print(json.dumps({"correct": correct, "attempted": max(1, res.attempted),
                      "failed": res.failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
