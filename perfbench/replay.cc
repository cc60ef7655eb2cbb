#include "replay.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "dnsbl/async_pipeline.h"
#include "dnsbl/blacklist_db.h"
#include "dnsbl/udp_daemon.h"
#include "mfs/mail_id.h"
#include "mfs/store.h"
#include "mta/recipient_db.h"
#include "net/event_loop.h"
#include "rep/reputation.h"
#include "smtp/server_session.h"
#include "stats.h"
#include "util/rng.h"
#include "util/time.h"

namespace perfbench {
namespace {

using sams::util::MonotonicNanos;

constexpr int kDnsWindow = 64;                  // lookups kept in flight
constexpr std::size_t kChunkBytes = 16 * 1024;  // a pooled receive buffer

bool HasValidRcpt(const SessionPlan& p) {
  for (const int r : p.rcpts) {
    if (r >= 0) return true;
  }
  return false;
}

// ServerSession::Feed over whole client dialogs; the gate accepts, so
// every session with a valid recipient runs through DATA. The session
// config stays at its defaults: the benchmark sets no DATA-path switch.
std::string ReplayFeed(const ReplayOptions& opts, const BodyPool& pool,
                       std::int64_t budget_ns) {
  sams::mta::RecipientDb recipients;
  for (int i = 0; i < kMailboxes; ++i) recipients.AddMailbox(MailboxName(i), kDomain);
  const sams::smtp::SessionConfig cfg;
  std::uint64_t sessions = 0;
  std::uint64_t body_bytes = 0;
  std::int64_t feed_ns = 0;
  std::int64_t body_ns = 0;
  const std::int64_t deadline = MonotonicNanos() + budget_ns;
  for (std::uint64_t i = 0; MonotonicNanos() < deadline; ++i) {
    const SessionPlan p = MakeSession(opts.workload, opts.seed, Phase::kReplay, i);
    std::string commands = HeloLine(p) + MailLine(p);
    for (const int r : p.rcpts) commands += RcptLine(r);
    const bool data = HasValidRcpt(p);
    std::shared_ptr<std::string> body;
    if (data) {
      commands += "DATA\r\n";
      body = std::make_shared<std::string>(BodyHeader(p.key));
      *body += pool.WireLines(p.body_first_line, p.body_lines);
      *body += ".\r\n";
    }
    sams::smtp::ServerSession::Hooks hooks;
    hooks.send = [](std::string) { return true; };
    hooks.validate_rcpt = [&recipients](const sams::smtp::Address& a) {
      return recipients.IsValid(a);
    };
    std::uint64_t delivered = 0;
    hooks.on_mail = [&delivered](sams::smtp::Envelope&& env) {
      delivered += env.body_size();
    };
    sams::smtp::ServerSession session(cfg, std::move(hooks), p.client.ToString());
    session.Start();
    const std::int64_t t0 = MonotonicNanos();
    session.Feed(commands);
    const std::int64_t t1 = MonotonicNanos();
    if (body != nullptr) {
      const std::shared_ptr<const void> pin(body, body->data());
      for (std::size_t off = 0; off < body->size(); off += kChunkBytes) {
        session.FeedPinned(std::string_view(*body).substr(off, kChunkBytes), pin);
      }
    }
    const std::int64_t t2 = MonotonicNanos();
    session.Feed("QUIT\r\n");
    const std::int64_t t3 = MonotonicNanos();
    ++sessions;
    feed_ns += t3 - t0;
    body_ns += t2 - t1;
    body_bytes += delivered;
  }
  return "{\"sessions\": " + std::to_string(sessions) +
         ", \"feed_us_per_session\": " +
         JsonNumber(Ratio(static_cast<double>(feed_ns) / 1e3, static_cast<double>(sessions))) +
         ", \"decode_mb_per_s\": " +
         JsonNumber(Ratio(static_cast<double>(body_bytes) / 1e6,
                   static_cast<double>(body_ns) / 1e9)) +
         "}";
}

// ReputationEngine::Evaluate on every session that reaches the gate,
// with the dialog features its plan carries.
std::string ReplayEvaluate(const ReplayOptions& opts, std::int64_t budget_ns) {
  std::unordered_set<std::uint32_t> listed;
  ForEachListed(opts.workload,
                [&listed](sams::util::Ipv4 ip) { listed.insert(ip.value()); });
  sams::rep::RepConfig cfg;
  cfg.enabled = true;
  sams::rep::ReputationEngine engine(cfg);
  std::vector<double> us;
  const std::int64_t deadline = MonotonicNanos() + budget_ns;
  for (std::uint64_t i = 0; MonotonicNanos() < deadline; ++i) {
    const SessionPlan p = MakeSession(opts.workload, opts.seed, Phase::kReplay, i);
    int first_valid = -1;
    for (const int r : p.rcpts) {
      if (r >= 0) {
        first_valid = r;
        break;
      }
    }
    if (first_valid < 0) continue;
    sams::rep::DialogFeatures f;
    f.dnsbl_listed = listed.count(p.client.value()) > 0;
    f.pipelined = p.pipelined ? static_cast<std::uint32_t>(p.rcpts.size()) : 0;
    f.helo_bare_ip = p.bare_ip_helo;
    const std::string from = MailLine(p);
    const std::string rcpt = MailboxName(first_valid) + "@" + kDomain;
    const std::int64_t t0 = MonotonicNanos();
    const sams::rep::Evaluation eval = engine.Evaluate(p.client, f, from, rcpt, t0);
    const std::int64_t t1 = MonotonicNanos();
    (void)eval;
    us.push_back(static_cast<double>(t1 - t0) / 1e3);
  }
  return "{\"evaluate_us\": " + PercentileJson(us) + "}";
}

// AsyncLookupPipeline::Begin for every session's client, kDnsWindow in
// flight, against a daemon serving the workload's listing.
std::string ReplayBegin(const ReplayOptions& opts, std::int64_t budget_ns) {
  sams::dnsbl::BlacklistDb db;
  ForEachListed(opts.workload, [&db](sams::util::Ipv4 ip) { db.Add(ip); });
  sams::dnsbl::UdpDnsblDaemon daemon(kDnsblZone, db, 24 * 3600, kDnsblDelayMs);
  auto port = daemon.Start();
  if (!port.ok()) return "{\"error\": \"daemon\"}";
  sams::dnsbl::AsyncDnsblConfig cfg;
  cfg.enabled = true;
  cfg.zones = {{kDnsblZone, *port}};
  sams::dnsbl::AsyncDnsblService service(cfg);
  auto loop = sams::net::EventLoop::Create();
  if (!loop.ok()) return "{\"error\": \"loop\"}";
  auto pipeline =
      std::make_unique<sams::dnsbl::AsyncLookupPipeline>(service, **loop);
  if (!pipeline->Init().ok()) return "{\"error\": \"pipeline\"}";

  std::vector<double> us;
  std::uint64_t next = 0;
  std::uint64_t answered = 0;
  int inflight = 0;
  const std::int64_t deadline = MonotonicNanos() + budget_ns;
  std::function<void()> issue = [&] {
    while (inflight < kDnsWindow && MonotonicNanos() < deadline) {
      const SessionPlan p =
          MakeSession(opts.workload, opts.seed, Phase::kReplay, next++);
      const std::int64_t t0 = MonotonicNanos();
      auto verdict = pipeline->Begin(p.client, [&](const sams::dnsbl::AsyncVerdict&) {
        --inflight;
        ++answered;
        issue();
      });
      us.push_back(static_cast<double>(MonotonicNanos() - t0) / 1e3);
      if (verdict.has_value()) {
        ++answered;
      } else {
        ++inflight;
      }
    }
    if (inflight == 0) (*loop)->Stop();
  };
  (*loop)->Post(issue);
  (void)(*loop)->Run();
  pipeline.reset();  // on the loop's thread, after the loop stopped
  daemon.Stop();
  return "{\"begin_us\": " + PercentileJson(us) +
         ", \"answered\": " + std::to_string(answered) + "}";
}

// MailStore::DeliverParts of every mail the workload would deliver, from
// opts.threads threads into a fresh durable store.
std::string ReplayDeliver(const ReplayOptions& opts, const BodyPool& pool,
                          std::int64_t budget_ns) {
  sams::mfs::StoreOptions store_opts;
  store_opts.group_commit = true;
  auto store = sams::mfs::MakeMfsStore(opts.store_dir, store_opts);
  if (!store.ok()) return "{\"error\": \"store\"}";
  std::atomic<std::uint64_t> next{0};
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<std::uint64_t> errors{0};
  const std::int64_t t0 = MonotonicNanos();
  const std::int64_t deadline = t0 + budget_ns;
  std::vector<std::thread> threads;
  for (int t = 0; t < opts.threads; ++t) {
    threads.emplace_back([&, t] {
      sams::util::Rng rng(Mix64(opts.seed ^ static_cast<std::uint64_t>(t + 1)));
      while (MonotonicNanos() < deadline) {
        const SessionPlan p = MakeSession(opts.workload, opts.seed, Phase::kReplay,
                                          next.fetch_add(1));
        std::vector<std::string> boxes;
        for (const int r : p.rcpts) {
          if (r >= 0) boxes.push_back(MailboxName(r));
        }
        if (boxes.empty()) continue;
        const std::string header = BodyHeader(p.key);
        const std::string_view parts[] = {
            header, pool.Lines(p.body_first_line, p.body_lines)};
        const auto err = (*store)->DeliverParts(
            sams::mfs::MailId::Generate(rng), parts, boxes);
        if (err.ok()) {
          delivered.fetch_add(1);
        } else {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const double wall = static_cast<double>(MonotonicNanos() - t0) / 1e9;
  return "{\"deliveries_per_s\": " +
         JsonNumber(Ratio(static_cast<double>(delivered.load()), wall)) +
         ", \"errors\": " + std::to_string(errors.load()) + "}";
}

}  // namespace

int RunReplay(const ReplayOptions& opts) {
  const BodyPool pool(opts.seed);
  const auto slice = static_cast<std::int64_t>(opts.seconds / 4 * 1e9);
  std::string json = "{\"smtp\": " + ReplayFeed(opts, pool, slice);
  json += ", \"rep\": " + ReplayEvaluate(opts, slice);
  json += ", \"dnsbl\": " + ReplayBegin(opts, slice);
  json += ", \"mfs\": " + ReplayDeliver(opts, pool, slice) + "}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace perfbench
