// perfbench — the end-to-end benchmark's one binary. run.py drives it:
//
//   perfbench server --workload W --store DIR --out FILE --shards N [--trace]
//   perfbench gen    --workload W --seed N --port P --server-pid PID
//                    --warmup S --open S --closed S --threads T
//                    --acks FILE [--trace]
//   perfbench verify --workload W --seed N --store DIR --acks FILE --threads T
//   perfbench replay --workload W --seed N --seconds S --threads T --store DIR
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include "check.h"
#include "gen.h"
#include "mfs/store.h"
#include "plan.h"
#include "replay.h"
#include "server.h"

namespace {

using perfbench::Workload;

struct Args {
  std::map<std::string, std::string> values;
  bool Has(const std::string& k) const { return values.count(k) > 0; }
  std::string Str(const std::string& k) const {
    const auto it = values.find(k);
    return it == values.end() ? "" : it->second;
  }
  double Double(const std::string& k, double fallback) const {
    return Has(k) ? std::strtod(Str(k).c_str(), nullptr) : fallback;
  }
  long long Int(const std::string& k, long long fallback) const {
    return Has(k) ? std::strtoll(Str(k).c_str(), nullptr, 10) : fallback;
  }
};

// --flag value pairs; a flag followed by another flag (or nothing) is a
// boolean set to "1".
bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
      return false;
    }
    const std::string key = argv[i] + 2;
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      args->values[key] = argv[++i];
    } else {
      args->values[key] = "1";
    }
  }
  return true;
}

int Verify(const Args& args, Workload w) {
  const auto seed = static_cast<std::uint64_t>(args.Int("seed", 1));
  std::ifstream in(args.Str("acks"));
  if (!in) {
    std::fprintf(stderr, "verify: cannot read %s\n", args.Str("acks").c_str());
    return 1;
  }
  perfbench::AckLog acks;
  std::string error;
  if (!perfbench::ParseAckLog(in, &acks, &error)) {
    std::fprintf(stderr, "verify: ack log: %s\n", error.c_str());
    return 1;
  }
  auto store = sams::mfs::MakeMfsStore(args.Str("store"), {});
  if (!store.ok()) {
    std::fprintf(stderr, "verify: store: %s\n", store.error().ToString().c_str());
    return 1;
  }
  const perfbench::BodyPool pool(seed);
  const perfbench::CheckReport r = perfbench::CheckStore(
      **store, acks,
      [&](std::uint64_t key, std::string_view body) {
        const perfbench::SessionPlan p = perfbench::MakeSession(
            w, seed, perfbench::KeyPhase(key), perfbench::KeyIndex(key));
        return perfbench::BodyMatches(pool, p, body);
      },
      static_cast<int>(args.Int("threads", 1)));
  std::string examples;
  for (const std::string& e : r.examples) {
    examples += (examples.empty() ? "\"" : ", \"") + e + "\"";
  }
  std::printf(
      "{\"ok\": %s, \"acked_mails\": %llu, \"acked_deliveries\": %llu, "
      "\"found\": %llu, \"missing\": %llu, \"corrupt\": %llu, "
      "\"duplicates\": %llu, \"unacked\": %llu, \"examples\": [%s]}\n",
      r.ok() ? "true" : "false", static_cast<unsigned long long>(r.acked_mails),
      static_cast<unsigned long long>(r.acked_deliveries),
      static_cast<unsigned long long>(r.found),
      static_cast<unsigned long long>(r.missing),
      static_cast<unsigned long long>(r.corrupt),
      static_cast<unsigned long long>(r.duplicates),
      static_cast<unsigned long long>(r.unacked), examples.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (argc < 2 || !ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr, "usage: perfbench server|gen|verify|replay ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const auto w = perfbench::ParseWorkload(args.Str("workload"));
  if (!w.has_value()) {
    std::fprintf(stderr,
                 "--workload must be sinkhole, sinkhole-warm, department or bulk\n");
    return 2;
  }
  if (cmd == "server") {
    perfbench::ServerOptions opts;
    opts.workload = *w;
    opts.store_dir = args.Str("store");
    opts.out_path = args.Str("out");
    opts.shards = static_cast<int>(args.Int("shards", 1));
    opts.trace = args.Has("trace");
    return perfbench::RunServer(opts);
  }
  if (cmd == "gen") {
    perfbench::GenConfig cfg;
    cfg.workload = *w;
    cfg.seed = static_cast<std::uint64_t>(args.Int("seed", 1));
    cfg.port = static_cast<std::uint16_t>(args.Int("port", 0));
    cfg.server_pid = static_cast<int>(args.Int("server-pid", 0));
    cfg.warmup_s = args.Double("warmup", 1.0);
    cfg.open_s = args.Double("open", 0.0);
    cfg.closed_s = args.Double("closed", 0.0);
    cfg.threads = static_cast<int>(args.Int("threads", 1));
    cfg.trace = args.Has("trace");
    cfg.acks_path = args.Str("acks");
    if (cfg.port == 0 || cfg.threads < 1) {
      std::fprintf(stderr, "gen: --port and --threads >= 1 are required\n");
      return 2;
    }
    return perfbench::RunGenerator(cfg);
  }
  if (cmd == "verify") return Verify(args, *w);
  if (cmd == "replay") {
    perfbench::ReplayOptions opts;
    opts.workload = *w;
    opts.seed = static_cast<std::uint64_t>(args.Int("seed", 1));
    opts.seconds = args.Double("seconds", 4.0);
    opts.threads = static_cast<int>(args.Int("threads", 1));
    opts.store_dir = args.Str("store");
    return perfbench::RunReplay(opts);
  }
  std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
  return 2;
}
