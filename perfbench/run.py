#!/usr/bin/env python3
"""End-to-end SMTP benchmark for the spam-aware mail server.

    python3 perfbench/run.py --workload sinkhole|sinkhole-warm|department|bulk \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (and the server modules
under src/) into $CARGO_TARGET_DIR (default .bench_build), starts the
real fork-after-trust server over a durable MFS store in its own
process, drives it with a separate generator process, stops it, and
checks every 250-acked mail in the reopened store.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics (client spans, server stage spans, registry counts, layer
replays). The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

WORKLOADS = ("sinkhole", "sinkhole-warm", "department", "bulk")
SETUP_LAUNCHES = 9          # setup_s is the median of this many launches
WARMUP_S = 5.0              # untimed warm-up before the timed phases
# Share of --seconds spent in the open-loop phase; the rest is closed
# loop. Tail latencies need more samples than rates do.
OPEN_SHARE = 0.7
# Harness-bound limits: past either, the run measured the generator,
# not the server, and is labelled so.
HARNESS_LATE_P99_MS = 50.0
HARNESS_CPU_FRAC = 0.9
STEP_TIMEOUT_S = 120


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(root):
    """Configures (once) and builds the perfbench binary; returns its path."""
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(here, "..", "src", "CMakeLists.txt")):
        raise BenchError("server sources (src/) not found next to perfbench/")
    cmake_dir = os.path.join(root, "cmake")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", here, "-B", cmake_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", cmake_dir, "--target", "perfbench",
                    "-j", str(nproc())],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(cmake_dir, "perfbench")


def read_line(proc, timeout):
    """One stdout line from `proc`, or BenchError after `timeout` seconds."""
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    try:
        if not sel.select(timeout):
            raise BenchError("server did not report its port")
    finally:
        sel.close()
    line = proc.stdout.readline()
    if not line:
        raise BenchError("server exited during setup")
    return line


def read_banner(port):
    with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
        buf = b""
        while b"\r\n" not in buf:
            chunk = s.recv(512)
            if not chunk:
                raise BenchError("server closed before its banner")
            buf += chunk
        if not buf.startswith(b"220"):
            raise BenchError("unexpected banner %r" % buf[:40])
        s.sendall(b"QUIT\r\n")
        s.recv(512)


class Server:
    """One server process; `setup_s` is launch -> first 220 banner."""

    def __init__(self, exe, workload, run_dir, tag, shards, trace):
        self.store = os.path.join(run_dir, "store-" + tag)
        self.out = os.path.join(run_dir, "server-%s.json" % tag)
        self.err = open(os.path.join(run_dir, "server-%s.log" % tag), "w")
        cmd = [exe, "server", "--workload", workload, "--store", self.store,
               "--out", self.out, "--shards", str(shards)]
        if trace:
            cmd.append("--trace")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self.err, text=True)
        try:
            line = read_line(self.proc, STEP_TIMEOUT_S)
            if not line.startswith("PORT "):
                raise BenchError("bad server hello %r" % line)
            self.port = int(line.split()[1])
            read_banner(self.port)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - t0

    def stop(self):
        """SIGTERM, drain, and the server's registry/stage JSON."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=STEP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("server did not stop")
        finally:
            self.err.close()
        if code != 0:
            raise BenchError("server exited with %d" % code)
        with open(self.out) as f:
            return json.load(f)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if not self.err.closed:
            self.err.close()


def run_json(cmd, timeout=STEP_TIMEOUT_S):
    """Runs a perfbench subcommand and parses its last stdout line."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError("%s exited with %d" % (cmd[1], proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(exe, workload, run_dir, shards, trace):
    """Launches the server SETUP_LAUNCHES times, fresh store each time;
    keeps the last one running. Returns (server, [setup_s...])."""
    times = []
    for i in range(SETUP_LAUNCHES):
        server = Server(exe, workload, run_dir, "setup%d" % i, shards, trace)
        times.append(server.setup_s)
        if i + 1 < SETUP_LAUNCHES:
            server.stop()
            shutil.rmtree(server.store, ignore_errors=True)
    return server, times


def drive(exe, args, server, run_dir, tag, open_s, closed_s, trace):
    """Generator run against `server`, then stop + output check."""
    acks = os.path.join(run_dir, "acks-%s.txt" % tag)
    cmd = [exe, "gen", "--workload", args.workload, "--seed", str(args.seed),
           "--port", str(server.port), "--server-pid", str(server.proc.pid),
           "--warmup", str(WARMUP_S), "--open", str(open_s),
           "--closed", str(closed_s), "--threads", str(nproc()),
           "--acks", acks]
    if trace:
        cmd.append("--trace")
    gen = run_json(cmd)
    srv = server.stop()
    check = run_json([exe, "verify", "--workload", args.workload,
                      "--seed", str(args.seed), "--store", server.store,
                      "--acks", acks, "--threads", str(nproc())])
    return gen, srv, check


def ratio(num, den, if_empty=0.0):
    return num / den if den else if_empty


def capacity(gen):
    return gen["closed"]["windowed"]["sessions_per_s"]


def harness_bound(gen):
    late = gen["open"]["late_ms"]["p99_all"] if "open" in gen else 0.0
    return late > HARNESS_LATE_P99_MS or gen["gen_cpu_frac"] > HARNESS_CPU_FRAC


def durable(srv, gen):
    """A run that acked mail must have fsynced it."""
    acked = sum(gen[p]["ham_acked"] for p in ("open", "closed") if p in gen)
    return acked == 0 or srv["counters"].get("sams_mfs_fsyncs_total", 0) > 0


def end_to_end(gen, setups):
    o, c = gen["open"], gen["closed"]
    w = c["windowed"]
    spam = o["spam_sessions"] + c["spam_sessions"]
    delivered = o["spam_delivered"] + c["spam_delivered"]
    attempted = o["sessions"] + c["sessions"]
    failed = o["failed"] + c["failed"]
    m = {
        "setup_s": (statistics.median(setups), "s"),
        "capacity_sessions_per_s": (w["sessions_per_s"], "1/s"),
        "goodput_mails_per_s": (w["ham_acked_per_s"], "1/s"),
        "body_mb_per_s": (w["body_mb_per_s"], "MB/s"),
        "cpu_ms_per_session": (w["cpu_ms_per_session"], "ms"),
        "session_p50_ms": (o["session_ms"]["p50"], "ms"),
        "session_p99_ms": (o["session_ms"]["p99"], "ms"),
        "ham_rcpt_stall_p50_ms": (o["ham_rcpt_stall_ms"]["p50"], "ms"),
        "ham_rcpt_stall_p99_ms": (o["ham_rcpt_stall_ms"]["p99"], "ms"),
        "ham_ack_p50_ms": (o["ham_ack_ms"]["p50"], "ms"),
        "ham_ack_p99_ms": (o["ham_ack_ms"]["p99"], "ms"),
        "completed_frac": (1.0 - ratio(failed, attempted), "frac"),
        # No spam offered means none got through.
        "spam_blocked_frac": (1.0 - ratio(delivered, spam), "frac"),
        "peak_rss_mb": (gen["peak_rss_mb"], "MiB"),
    }
    return m, attempted, failed


def stage(srv, name, pct):
    v = srv["stages"][name]["p%d" % pct]
    return 0.0 if v is None else v


def histogram(srv, name, pct):
    """Bucket percentile of a registry histogram; 0 when it saw nothing."""
    v = srv["histograms"].get(name, {}).get("p%d" % pct)
    return 0.0 if v is None else v


def per_layer(gen, srv, replay, untraced_capacity):
    cnt = srv["counters"]
    conns = cnt.get("sams_smtp_connections_total", 0)
    lookups = cnt.get("sams_dnsbl_async_lookups_total", 0)
    evals = cnt.get("sams_rep_evaluations_total", 0)
    spans = gen["open"]["spans"]
    accepted = srv["shard_accepted"]
    hits = cnt.get("sams_mfs_fd_cache_hits_total", 0)
    misses = cnt.get("sams_mfs_fd_cache_misses_total", 0)
    m = {
        "net.connect_ms.p50": (spans["connect"]["p50"], "ms"),
        "net.connect_ms.p99": (spans["connect"]["p99"], "ms"),
        "net.banner_ms.p50": (spans["banner"]["p50"], "ms"),
        "net.banner_ms.p99": (spans["banner"]["p99"], "ms"),
        "net.accept_redrains": (cnt.get("sams_smtp_accept_redrains_total", 0), "count"),
        "net.reply_backpressured": (cnt.get("sams_smtp_reply_backpressure_total", 0), "count"),
        "stage.helo.p50_ms": (stage(srv, "helo", 50), "ms"),
        "stage.mail.p50_ms": (stage(srv, "mail", 50), "ms"),
        "smtp.feed_us_per_session": (replay["smtp"]["feed_us_per_session"], "us"),
        "smtp.decode_mb_per_s": (replay["smtp"]["decode_mb_per_s"], "MB/s"),
        "stage.data.p50_ms": (stage(srv, "data", 50), "ms"),
        "stage.data.p99_ms": (stage(srv, "data", 99), "ms"),
        "dnsbl.cache_hit_ratio": (ratio(cnt.get("sams_dnsbl_async_cache_hits_total", 0), lookups), "frac"),
        "dnsbl.queries_per_session": (ratio(cnt.get("sams_dnsbl_async_queries_sent_total", 0), conns), "count"),
        "dnsbl.coalesced_ratio": (ratio(cnt.get("sams_dnsbl_async_coalesced_total", 0), lookups), "frac"),
        "dnsbl.degraded": (cnt.get("sams_dnsbl_async_degraded_total", 0), "count"),
        # The server records no dnsbl stage spans; its DNS round latency
        # histogram (cache misses only) stands in.
        "dnsbl.lookup_ms.p50": (histogram(srv, "sams_dnsbl_async_lookup_ms", 50), "ms"),
        "dnsbl.lookup_ms.p99": (histogram(srv, "sams_dnsbl_async_lookup_ms", 99), "ms"),
        "dnsbl.begin_us.p50": (replay["dnsbl"]["begin_us"]["p50"], "us"),
        "stage.rcpt.p50_ms": (stage(srv, "rcpt", 50), "ms"),
        "stage.rcpt.p99_ms": (stage(srv, "rcpt", 99), "ms"),
        "rep.evaluate_us.p50": (replay["rep"]["evaluate_us"]["p50"], "us"),
        "rep.shard_close_ratio": (ratio(cnt.get("sams_smtp_master_closed_total", 0), conns), "frac"),
        "rep.greylist_ratio": (ratio(cnt.get("sams_smtp_rep_greylisted_total", 0), evals), "frac"),
        "rep.reject_ratio": (ratio(cnt.get("sams_smtp_rep_rejects_total", 0), evals), "frac"),
        "stage.handoff.p50_ms": (stage(srv, "handoff", 50), "ms"),
        "stage.handoff.p99_ms": (stage(srv, "handoff", 99), "ms"),
        "mta.delegations_per_session": (ratio(cnt.get("sams_smtp_delegations_total", 0), conns), "count"),
        # Busiest shard's accepted connections over the mean (1 = even).
        "mta.shard_imbalance": (ratio(max(accepted, default=0), statistics.mean(accepted) if accepted else 0), "ratio"),
        "mta.overload_sheds": (cnt.get("sams_smtp_overload_sheds_total", 0), "count"),
        "mta.worker_read_timeouts": (cnt.get("sams_smtp_worker_read_timeouts_total", 0), "count"),
        "stage.delivery.p50_ms": (stage(srv, "delivery", 50), "ms"),
        "stage.delivery.p99_ms": (stage(srv, "delivery", 99), "ms"),
        "mfs.fsyncs_per_mail": (ratio(cnt.get("sams_mfs_fsyncs_total", 0), cnt.get("sams_mfs_mails_delivered_total", 0)), "count"),
        "mfs.commit_batch_mean": (ratio(cnt.get("sams_mfs_commit_tokens_total", 0), cnt.get("sams_mfs_commit_flushes_total", 0)), "count"),
        "mfs.bytes_written_per_logical": (ratio(cnt.get("sams_mfs_bytes_physical_total", 0), cnt.get("sams_mfs_bytes_logical_total", 0)), "ratio"),
        "mfs.fd_cache_hit_ratio": (ratio(hits, hits + misses), "frac"),
        "mfs.replay_deliveries_per_s": (replay["mfs"]["deliveries_per_s"], "1/s"),
        "gen.late_ms.p99": (gen["open"]["late_ms"]["p99_all"], "ms"),
        "gen.cpu_frac": (gen["gen_cpu_frac"], "frac"),
        "trace.overhead_frac": (1.0 - ratio(capacity(gen), untraced_capacity, 1.0), "frac"),
    }
    for name in ("helo", "mail", "rcpt", "data", "body_ack", "quit"):
        m["client.%s_ms.p50" % name] = (spans[name]["p50"] or 0.0, "ms")
    m["client.session_self_ms.p50"] = (spans["session_self"]["p50"] or 0.0, "ms")
    return m


def source_rev():
    """git rev when the checkout is a repository, else a digest of src/."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, files in os.walk(base):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def filesystem_of(path):
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    with open("/proc/mounts") as f:
        for line in f:
            fields = line.split()
            mount = fields[1]
            if (path == mount or path.startswith(mount.rstrip("/") + "/")) \
                    and len(mount) > len(best):
                best, fstype = mount, fields[2]
    return fstype


def fingerprint(root, digest):
    return {"nproc": nproc(), "kernel": platform.release(),
            "store_fs": filesystem_of(root), "build_type": "Release",
            "rev": source_rev(), "schedule_digest": digest}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    started = time.perf_counter()
    root = build_root()
    exe = build(root)
    # Deleting an earlier run's store leaves journal commits and block
    # discards behind; flush them so they do not land in timed phases.
    os.sync()
    run_dir = os.path.join(root, "runs", "%s-%d-%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    shards = nproc()
    servers = []
    try:
        s = args.seconds
        if not args.trace:
            server, setups = measure_setup(exe, args.workload, run_dir,
                                           shards, False)
            servers.append(server)
            gen, srv, check = drive(exe, args, server, run_dir, "run",
                                    s * OPEN_SHARE, s * (1 - OPEN_SHARE), False)
            metrics, attempted, failed = end_to_end(gen, setups)
            checks = [check]
            correct = check["ok"] and durable(srv, gen)
            details = {"gen": gen, "server": srv, "check": check,
                       "setup_s": setups}
        else:
            # Untraced capacity first, then the traced run, then replays;
            # a quarter of the time each.
            base = Server(exe, args.workload, run_dir, "untraced", shards, False)
            servers.append(base)
            base_gen, base_srv, base_check = drive(
                exe, args, base, run_dir, "untraced", 0, s / 4, False)
            traced = Server(exe, args.workload, run_dir, "traced", shards, True)
            servers.append(traced)
            gen, srv, check = drive(exe, args, traced, run_dir, "traced",
                                    s / 4, s / 4, True)
            replay = run_json([exe, "replay", "--workload", args.workload,
                               "--seed", str(args.seed), "--seconds", str(s / 4),
                               "--threads", str(nproc()),
                               "--store", os.path.join(run_dir, "store-replay")])
            metrics = per_layer(gen, srv, replay, capacity(base_gen))
            attempted = sum(g[p]["sessions"] for g in (base_gen, gen)
                            for p in ("open", "closed") if p in g)
            failed = sum(g[p]["failed"] for g in (base_gen, gen)
                         for p in ("open", "closed") if p in g)
            checks = [base_check, check]
            correct = (base_check["ok"] and check["ok"] and
                       durable(base_srv, base_gen) and durable(srv, gen))
            details = {"gen": gen, "server": srv, "check": check,
                       "replay": replay, "untraced_gen": base_gen,
                       "untraced_check": base_check}
    finally:
        for server in servers:
            server.kill()
    for name in os.listdir(run_dir):
        if name.startswith("store-"):
            shutil.rmtree(os.path.join(run_dir, name), ignore_errors=True)
        elif name.startswith("acks-"):
            os.remove(os.path.join(run_dir, name))
    os.sync()

    fp = fingerprint(root, gen["schedule_digest"])
    label = "harness-bound" if harness_bound(gen) else "server-bound"
    details.update({"fingerprint": fp, "label": label})
    with open(os.path.join(run_dir, "result.json"), "w") as f:
        json.dump(details, f, indent=1)
    print(json.dumps({"fingerprint": fp}))
    print("run label: %s (gen.late_ms.p99=%.3f limit %.0f, gen.cpu_frac=%.3f "
          "limit %.2f)" % (label, gen["open"]["late_ms"]["p99_all"],
                           HARNESS_LATE_P99_MS, gen["gen_cpu_frac"],
                           HARNESS_CPU_FRAC))
    for c in checks:
        print("output check: %s, %d acked mails, %d deliveries, %d missing, "
              "%d corrupt, %d duplicated" % (
                  "ok" if c["ok"] else "FAILED", c["acked_mails"],
                  c["acked_deliveries"], c["missing"], c["corrupt"],
                  c["duplicates"]))
    if not args.trace:
        o = gen["open"]
        print("samples: session %d, ham rcpt stall %d, ham ack %d" % (
            o["session_ms"]["n"], o["ham_rcpt_stall_ms"]["n"],
            o["ham_ack_ms"]["n"]))
    log("perfbench: run took %.1f s" % (time.perf_counter() - started))
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.SubprocessError, OSError, KeyError,
            ValueError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
