#include "server.h"

#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dnsbl/blacklist_db.h"
#include "dnsbl/udp_daemon.h"
#include "mfs/store.h"
#include "mta/recipient_db.h"
#include "mta/smtp_server.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "stats.h"

namespace perfbench {
namespace {

// Every session of a run fits in the ring, so stage percentiles cover
// all of them (each session records about ten spans).
constexpr std::size_t kTraceCapacity = std::size_t{1} << 21;

// Server counts by registry name, summed over label sets, so the
// benchmark does not depend on which labels a component attaches.
std::string RegistryJson(const sams::obs::Registry& registry) {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, std::pair<double, double>> histograms;
  // The instance behind a histogram name, or null once the name repeats
  // under another label set (bucket percentiles are then not reported).
  std::map<std::string, const sams::obs::Histogram*> single;
  std::vector<double> shard_accepted;  // one entry per shard label
  for (const sams::obs::MetricFamily& f : registry.Families()) {
    switch (f.type) {
      case sams::obs::MetricType::kCounter:
        counters[f.name] += static_cast<double>(f.counter->value());
        if (f.name == "sams_smtp_shard_accepted_total") {
          shard_accepted.push_back(static_cast<double>(f.counter->value()));
        }
        break;
      case sams::obs::MetricType::kGauge:
        gauges[f.name] += f.gauge->value();
        break;
      case sams::obs::MetricType::kHistogram:
        histograms[f.name].first += static_cast<double>(f.histogram->count());
        histograms[f.name].second += f.histogram->sum();
        single[f.name] = single.count(f.name) > 0 ? nullptr : f.histogram;
        break;
    }
  }
  std::string out = "\"counters\": {";
  const char* sep = "";
  for (const auto& [name, v] : counters) {
    out += sep + ("\"" + name + "\": ") + JsonNumber(v);
    sep = ", ";
  }
  out += "}, \"gauges\": {";
  sep = "";
  for (const auto& [name, v] : gauges) {
    out += sep + ("\"" + name + "\": ") + JsonNumber(v);
    sep = ", ";
  }
  out += "}, \"shard_accepted\": [";
  sep = "";
  for (const double v : shard_accepted) {
    out += sep + JsonNumber(v);
    sep = ", ";
  }
  out += "], \"histograms\": {";
  sep = "";
  for (const auto& [name, v] : histograms) {
    const sams::obs::Histogram* h = single[name];
    const bool pct = h != nullptr && h->count() > 0;
    out += sep + ("\"" + name + "\": {\"count\": ") + JsonNumber(v.first) +
           ", \"sum\": " + JsonNumber(v.second) +
           ", \"p50\": " + (pct ? JsonNumber(h->Percentile(50.0)) : "null") +
           ", \"p99\": " + (pct ? JsonNumber(h->Percentile(99.0)) : "null") + "}";
    sep = ", ";
  }
  return out + "}";
}

// Per-stage duration percentiles (ms) over every recorded span.
std::string StagesJson(const sams::obs::TraceSink& sink) {
  std::vector<std::vector<double>> by_stage(sams::obs::kStageCount);
  for (const sams::obs::SpanRecord& r : sink.Snapshot()) {
    by_stage[static_cast<std::size_t>(r.stage)].push_back(
        static_cast<double>(r.duration_ns()) / 1e6);
  }
  std::string out = "{";
  for (std::size_t i = 0; i < by_stage.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" +
           std::string(sams::obs::StageName(static_cast<sams::obs::Stage>(i))) +
           "\": " + PercentileJson(by_stage[i]);
  }
  return out + "}";
}

}  // namespace

int RunServer(const ServerOptions& opts) {
  // Block the stop signals before any thread starts, so every thread
  // inherits the mask and sigwait below is the only receiver.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGTERM);
  sigaddset(&stop_signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

  sams::dnsbl::BlacklistDb db;
  ForEachListed(opts.workload, [&db](sams::util::Ipv4 ip) { db.Add(ip); });
  sams::dnsbl::UdpDnsblDaemon daemon(kDnsblZone, db, 24 * 3600, kDnsblDelayMs);
  auto dns_port = daemon.Start();
  if (!dns_port.ok()) {
    std::fprintf(stderr, "dnsbl daemon: %s\n",
                 dns_port.error().ToString().c_str());
    return 1;
  }

  // A 250 must mean durable: group commit, committer at its defaults.
  sams::mfs::StoreOptions store_opts;
  store_opts.group_commit = true;
  auto store = sams::mfs::MakeMfsStore(opts.store_dir, store_opts);
  if (!store.ok()) {
    std::fprintf(stderr, "store: %s\n", store.error().ToString().c_str());
    return 1;
  }

  sams::mta::RecipientDb recipients;
  for (int i = 0; i < kMailboxes; ++i) {
    recipients.AddMailbox(MailboxName(i), kDomain);
  }

  // The live server's configuration (live_smtp_server --reputation
  // --dnsbl-zones --shards nproc). Fields that later changes plan to
  // delete (commit mode, io backend, pooled DATA path, DNSBL overlap)
  // are deliberately left at their defaults.
  sams::mta::RealServerConfig cfg;
  cfg.architecture = sams::mta::Architecture::kForkAfterTrust;
  cfg.worker_count = 4;
  cfg.num_shards = opts.shards;
  cfg.session.hostname = "perfbench.test";
  cfg.master_idle_timeout_ms = 60'000;
  cfg.master_session_deadline_ms = 300'000;
  cfg.max_inflight_sessions = 512;
  cfg.dnsbl.enabled = true;
  cfg.dnsbl.zones = {{kDnsblZone, *dns_port}};
  cfg.reputation.enabled = true;

  sams::obs::Registry registry;
  std::unique_ptr<sams::obs::TraceSink> sink;
  if (opts.trace) sink = std::make_unique<sams::obs::TraceSink>(kTraceCapacity);
  auto server = std::make_unique<sams::mta::SmtpServer>(
      cfg, std::move(recipients), **store);
  server->BindObservability(registry, sink.get());
  auto port = server->Start();
  if (!port.ok()) {
    std::fprintf(stderr, "server: %s\n", port.error().ToString().c_str());
    return 1;
  }
  std::printf("PORT %u\n", static_cast<unsigned>(*port));
  std::fflush(stdout);

  int sig = 0;
  sigwait(&stop_signals, &sig);
  const int leftover = server->Drain(/*grace_ms=*/5'000);
  registry.Collect();
  std::string json = "{\"leftover_sessions\": " + std::to_string(leftover) +
                     ", \"shards\": " + std::to_string(opts.shards) + ", " +
                     RegistryJson(registry);
  if (sink != nullptr) {
    json += ", \"trace_dropped\": " + std::to_string(sink->dropped()) +
            ", \"stages\": " + StagesJson(*sink);
  }
  json += "}\n";
  server.reset();
  daemon.Stop();
  if (!opts.out_path.empty()) {
    std::ofstream out(opts.out_path, std::ios::trunc);
    out << json;
    if (!out.good()) {
      std::fprintf(stderr, "server: cannot write %s\n", opts.out_path.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace perfbench
