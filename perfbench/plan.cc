#include "plan.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "trace/sinkhole.h"
#include "util/rng.h"

namespace perfbench {

using sams::util::Ipv4;
using sams::util::Rng;

namespace {

constexpr char kHeaderPrefix[] = "X-Perfbench-Key: ";
constexpr std::size_t kHeaderPrefixBytes = sizeof(kHeaderPrefix) - 1;
static_assert(kHeaderPrefixBytes + 16 + 4 == kHeaderBytes);

// Address plan (second and third octets of 127.B.C.host):
//   127.1.0.0/16     ham senders (a warm set; each workload uses a slice)
//   127.2.0.0/20     department spam /24s, all listed
//   127.3.0.0/20     department bounce sources
//   127.4-15.x.0     sinkhole ham from first-time senders
//   127.16-50.x.0    the sinkhole trace's 8,832 botnet /24s, by rank
//   127.128-255.x.0  sinkhole never-seen /24s (uniform over 32768)
constexpr int kTraceFirstB = 16;
constexpr int kFreshPrefixes = 32768;
// Hosts .1-.4 of a department spam /24 or a never-seen /24 send.
constexpr int kSpamHosts = 4;
// Share of sinkhole spam and bounces from /24s never seen before. An
// assumption: the sinkhole trace does not measure first sightings, and
// a prefix that keeps arriving fresh keeps the DNSBL cache below a 100%
// hit ratio.
constexpr double kFreshShare = 0.15;

Ipv4 Addr(int b, int c, int host) {
  return Ipv4(127, static_cast<std::uint8_t>(b), static_cast<std::uint8_t>(c),
              static_cast<std::uint8_t>(host));
}
Ipv4 FreshAddr(int k, int host) { return Addr(128 + k / 256, k % 256, host); }

// Half of the never-seen /24s are listed (an assumption).
bool FreshListed(int k) {
  return Mix64(static_cast<std::uint64_t>(k) ^ 0x5EE) % 100 < 50;
}

// The paper's spam sinkhole (Table 1; Figures 4, 12 and 13) as
// trace::SinkholeModel re-synthesizes it: 8,832 /24s holding 19,492
// bots, each /24 with its CBL-listed population (about 40% of the /24s
// list more than ten hosts, and every bot is listed), and the trace's
// session order, which carries its campaign and burst locality. Each
// /24 moves into loopback space by rank (127.16.0.0 upward) and keeps
// its host bytes.
struct SinkholeTrace {
  std::vector<Ipv4> clients;  // the client of each trace session, in order
  std::vector<Ipv4> listed;   // every CBL-listed address
};

const SinkholeTrace& Sinkhole() {
  static const SinkholeTrace trace = [] {
    const sams::trace::SinkholeModel model;
    std::vector<std::uint32_t> prefixes;
    for (const auto& entry : model.cbl_density()) {
      prefixes.push_back(entry.first.value());
    }
    std::sort(prefixes.begin(), prefixes.end());
    const auto loopback = [&prefixes](Ipv4 ip) {
      const auto rank = static_cast<int>(
          std::lower_bound(prefixes.begin(), prefixes.end(), ip.value() >> 8) -
          prefixes.begin());
      return Addr(kTraceFirstB + rank / 256, rank % 256, ip.octet(3));
    };
    SinkholeTrace t;
    for (const sams::trace::SessionSpec& s : model.sessions()) {
      t.clients.push_back(loopback(s.client_ip));
    }
    for (const Ipv4 ip : model.ListedIps()) t.listed.push_back(loopback(ip));
    return t;
  }();
  return trace;
}

// Inverse-CDF sampler for a Zipf(s) popularity over n items.
class Zipf {
 public:
  Zipf(int n, double s) : cdf_(static_cast<std::size_t>(n)) {
    double total = 0.0;
    for (int i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[static_cast<std::size_t>(i)] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  int Sample(Rng& rng) const {
    const double u = rng.NextDouble();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<int>(std::min<std::ptrdiff_t>(
        it - cdf_.begin(), static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
  }

 private:
  std::vector<double> cdf_;
};

const Zipf& SinkholeHamPopularity() {
  static const Zipf zipf(256, 1.0);
  return zipf;
}
const Zipf& DepartmentMailboxes() {
  static const Zipf zipf(96, 0.8);
  return zipf;
}

int Uniform(Rng& rng, int lo, int hi) {
  return static_cast<int>(rng.UniformInt(lo, hi));
}

void SetBody(Rng& rng, double median_bytes, double sigma, double min_bytes,
             double max_bytes, SessionPlan* p) {
  const double bytes =
      std::clamp(rng.LogNormal(std::log(median_bytes), sigma), min_bytes,
                 max_bytes);
  const auto lines = static_cast<std::uint32_t>(std::max(
      1.0, std::round((bytes - static_cast<double>(kHeaderBytes)) /
                      BodyPool::kLineBytes)));
  p->body_lines = std::min(lines, BodyPool::kLines);
  p->body_first_line = static_cast<std::uint32_t>(
      rng.UniformInt(0, BodyPool::kLines - p->body_lines));
}

// `n` distinct valid mailboxes drawn by `draw`.
template <typename Draw>
void AddValidRcpts(int n, Draw draw, std::vector<int>* rcpts) {
  while (static_cast<int>(rcpts->size()) < n) {
    const int box = draw();
    if (std::find(rcpts->begin(), rcpts->end(), box) == rcpts->end()) {
      rcpts->push_back(box);
    }
  }
}

// Dictionary-probing recipient list: each probe hits a real mailbox
// with probability `valid_p`; misses name a local part that does not
// exist. Valid hits stay distinct so an accepted mail lands in each
// mailbox at most once.
void AddProbes(Rng& rng, int n, double valid_p, int mailboxes,
               std::vector<int>* rcpts) {
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(valid_p)) {
      const int box = Uniform(rng, 0, mailboxes - 1);
      if (std::find(rcpts->begin(), rcpts->end(), box) == rcpts->end()) {
        rcpts->push_back(box);
        continue;
      }
    }
    rcpts->push_back(-1 - Uniform(rng, 0, 49'999));
  }
}

// `trace_pos` names the sinkhole trace session whose client a botnet
// session takes; `fresh_share` of spam and bounces come from never-seen
// /24s instead.
void MakeSinkhole(Rng& rng, std::uint64_t trace_pos, double fresh_share,
                  SessionPlan* p) {
  const double u = rng.NextDouble();
  if (u < 0.10) {
    p->kind = Kind::kHam;
    // One ham session in twenty comes from a sender never seen before,
    // whose first RCPT waits for a DNSBL round trip.
    p->client = rng.Bernoulli(0.05)
                    ? Addr(4 + Uniform(rng, 0, 11), Uniform(rng, 0, 255),
                           Uniform(rng, 1, 8))
                    : Addr(1, SinkholeHamPopularity().Sample(rng),
                           Uniform(rng, 1, 8));
    AddValidRcpts(rng.Bernoulli(0.3) ? 2 : 1,
                  [&rng] { return Uniform(rng, 0, 255); }, &p->rcpts);
    SetBody(rng, 4096, 0.8, 512, 64 * 1024, p);
    return;
  }
  p->kind = u < 0.90 ? Kind::kSpam : Kind::kBounce;
  if (rng.Bernoulli(fresh_share)) {
    p->client = FreshAddr(Uniform(rng, 0, kFreshPrefixes - 1),
                          Uniform(rng, 1, kSpamHosts));
  } else {
    const std::vector<Ipv4>& clients = Sinkhole().clients;
    p->client = clients[trace_pos % clients.size()];
  }
  if (p->kind == Kind::kBounce) {
    p->null_sender = true;
    AddProbes(rng, rng.Bernoulli(0.3) ? 2 : 1, 0.0, kMailboxes, &p->rcpts);
    return;
  }
  // Each /24 runs one bot engine, so a prefix's dialog shape (and with
  // it the reputation score its history converges to) is fixed: half of
  // the spam blasts pipelined with a bare-IP HELO (15% of all spam
  // before the banner), 30% paces its commands but still HELOs with an
  // IP, 20% looks like careful snowshoe senders. The shares are
  // assumptions; the trace records no dialog shapes.
  const std::uint64_t engine = Mix64((p->client.value() >> 8) ^ 0xE11) % 100;
  p->pipelined = engine < 50;
  p->pregreet = engine < 15;
  p->bare_ip_helo = engine < 80;
  // RCPT counts follow the sinkhole's Figure 4 (mostly 5..15, mean ~7).
  // A fifth of the dictionary probes name a real mailbox (an assumption).
  AddProbes(rng, sams::trace::SampleSinkholeRcpts(rng), 0.2, kMailboxes,
            &p->rcpts);
  SetBody(rng, 2048, 0.5, 256, 16 * 1024, p);
}

void MakeDepartment(Rng& rng, SessionPlan* p) {
  const double u = rng.NextDouble();
  if (u < 0.60) {
    p->kind = Kind::kHam;
    p->client = Addr(1, Uniform(rng, 0, 31), Uniform(rng, 1, 8));
    // Legitimate mail averages 1.02 recipients per session (the paper's
    // university trace, as trace::UnivModel samples it).
    AddValidRcpts(rng.Bernoulli(0.02) ? 2 : 1,
                  [&rng] { return DepartmentMailboxes().Sample(rng); },
                  &p->rcpts);
    SetBody(rng, 8192, 1.0, 512, 512 * 1024, p);
    return;
  }
  if (u < 0.90) {
    p->kind = Kind::kSpam;
    p->client = Addr(2, Uniform(rng, 0, 15), Uniform(rng, 1, kSpamHosts));
    p->pipelined = rng.Bernoulli(0.3);
    p->bare_ip_helo = rng.Bernoulli(0.5);
    AddProbes(rng, Uniform(rng, 1, 3), 0.5, 96, &p->rcpts);
    SetBody(rng, 2048, 0.5, 256, 16 * 1024, p);
    return;
  }
  p->kind = Kind::kBounce;
  p->client = Addr(3, Uniform(rng, 0, 15), Uniform(rng, 1, kSpamHosts));
  p->null_sender = true;
  AddProbes(rng, 1, 0.0, kMailboxes, &p->rcpts);
}

void MakeBulk(Rng& rng, SessionPlan* p) {
  p->kind = Kind::kHam;
  p->client = Addr(1, Uniform(rng, 0, 15), Uniform(rng, 1, 8));
  AddValidRcpts(Uniform(rng, 4, 20),
                [&rng] { return Uniform(rng, 0, kMailboxes - 1); }, &p->rcpts);
  SetBody(rng, 192 * 1024, 0.5, 32 * 1024, 1024 * 1024, p);
}

void HashBytes(std::uint64_t* h, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    *h ^= bytes[i];
    *h *= 0x100000001B3ULL;
  }
}

template <typename T>
void HashValue(std::uint64_t* h, T value) {
  HashBytes(h, &value, sizeof(value));
}

void HashPlan(std::uint64_t* h, const SessionPlan& p) {
  HashValue(h, p.key);
  HashValue(h, static_cast<std::uint8_t>(p.kind));
  HashValue(h, p.client.value());
  HashValue(h, static_cast<std::uint8_t>(p.pipelined | (p.pregreet << 1) |
                                         (p.bare_ip_helo << 2) |
                                         (p.null_sender << 3)));
  for (const int r : p.rcpts) HashValue(h, r);
  HashValue(h, p.body_first_line);
  HashValue(h, p.body_lines);
}

}  // namespace

std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::optional<Workload> ParseWorkload(std::string_view name) {
  if (name == "sinkhole") return Workload::kSinkhole;
  if (name == "sinkhole-warm") return Workload::kSinkholeWarm;
  if (name == "department") return Workload::kDepartment;
  if (name == "bulk") return Workload::kBulk;
  return std::nullopt;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kSinkhole:
      return "sinkhole";
    case Workload::kSinkholeWarm:
      return "sinkhole-warm";
    case Workload::kDepartment:
      return "department";
    case Workload::kBulk:
      return "bulk";
  }
  return "?";
}

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kHam:
      return "ham";
    case Kind::kSpam:
      return "spam";
    case Kind::kBounce:
      return "bounce";
  }
  return "?";
}

double OpenRate(Workload w) {
  switch (w) {
    case Workload::kSinkhole:
    case Workload::kSinkholeWarm:
      return 1800.0;
    case Workload::kDepartment:
      return 400.0;
    case Workload::kBulk:
      return 120.0;
  }
  return 1.0;
}

std::string MailboxName(int index) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "u%04d", index);
  return buf;
}

SessionPlan MakeSession(Workload w, std::uint64_t seed, Phase phase,
                        std::uint64_t index) {
  SessionPlan p;
  p.key = MakeKey(phase, index);
  Rng rng(Mix64(seed ^ Mix64(p.key)));
  switch (w) {
    case Workload::kSinkhole:
    case Workload::kSinkholeWarm:
      // Consecutive sessions of a phase take consecutive trace
      // sessions from a seeded start, keeping the trace's locality.
      MakeSinkhole(rng,
                   Mix64(seed ^ (0x51AC'0000ULL + static_cast<std::uint64_t>(phase))) +
                       index,
                   w == Workload::kSinkhole ? kFreshShare : 0.0, &p);
      break;
    case Workload::kDepartment:
      MakeDepartment(rng, &p);
      break;
    case Workload::kBulk:
      MakeBulk(rng, &p);
      break;
  }
  return p;
}

std::string HeloLine(const SessionPlan& p) {
  if (p.bare_ip_helo) return "HELO " + p.client.ToString() + "\r\n";
  return "HELO mx" + std::to_string(p.client.value() & 0xFFFFFF) + "." +
         KindName(p.kind) + ".example\r\n";
}

std::string MailLine(const SessionPlan& p) {
  if (p.null_sender) return "MAIL FROM:<>\r\n";
  return "MAIL FROM:<s" + std::to_string(KeyIndex(p.key) % 997) + "@" +
         KindName(p.kind) + ".example>\r\n";
}

std::string RcptLine(int rcpt) {
  const std::string local =
      rcpt >= 0 ? MailboxName(rcpt) : "p" + std::to_string(-1 - rcpt);
  return "RCPT TO:<" + local + "@" + kDomain + ">\r\n";
}

std::vector<double> OpenSchedule(Workload w, std::uint64_t seed,
                                 double seconds) {
  Rng rng(Mix64(seed ^ 0x0BE7'5C4E'D01EULL));
  const double mean_gap = 1.0 / OpenRate(w);
  std::vector<double> due;
  for (double t = rng.Exponential(mean_gap); t < seconds;
       t += rng.Exponential(mean_gap)) {
    due.push_back(t);
  }
  return due;
}

std::uint64_t ScheduleDigest(Workload w, std::uint64_t seed,
                             double open_seconds) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const std::vector<double> due = OpenSchedule(w, seed, open_seconds);
  for (std::size_t i = 0; i < due.size(); ++i) {
    HashValue(&h, due[i]);
    HashPlan(&h, MakeSession(w, seed, Phase::kOpen, i));
  }
  for (std::uint64_t i = 0; i < 4096; ++i) {
    HashPlan(&h, MakeSession(w, seed, Phase::kClosed, i));
  }
  return h;
}

void ForEachListed(Workload w, const std::function<void(Ipv4)>& fn) {
  switch (w) {
    case Workload::kSinkhole:
    case Workload::kSinkholeWarm:
      for (const Ipv4 ip : Sinkhole().listed) fn(ip);
      for (int k = 0; k < kFreshPrefixes; ++k) {
        if (!FreshListed(k)) continue;
        for (int host = 1; host <= kSpamHosts; ++host) fn(FreshAddr(k, host));
      }
      break;
    case Workload::kDepartment:
      for (int c = 0; c < 16; ++c) {
        for (int host = 1; host <= kSpamHosts; ++host) fn(Addr(2, c, host));
      }
      break;
    case Workload::kBulk:
      break;
  }
}

BodyPool::BodyPool(std::uint64_t seed) {
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ,;:-";
  Rng rng(Mix64(seed ^ 0xB0D1E5ULL));
  text_.reserve(std::size_t{kLines} * kLineBytes);
  wire_.reserve(std::size_t{kLines} * (kLineBytes + 1));
  wire_offset_.reserve(kLines + 1);
  for (std::uint32_t i = 0; i < kLines; ++i) {
    wire_offset_.push_back(static_cast<std::uint32_t>(wire_.size()));
    std::string line(kLineBytes - 2, ' ');
    for (char& c : line) {
      c = kAlphabet[rng.NextU64() % (sizeof(kAlphabet) - 1)];
    }
    if (i % 37 == 5) line[0] = '.';  // exercises dot-stuffing
    line += "\r\n";
    text_ += line;
    if (line[0] == '.') wire_ += '.';
    wire_ += line;
  }
  wire_offset_.push_back(static_cast<std::uint32_t>(wire_.size()));
}

std::string_view BodyPool::Lines(std::uint32_t first, std::uint32_t n) const {
  return std::string_view(text_).substr(std::size_t{first} * kLineBytes,
                                        std::size_t{n} * kLineBytes);
}

std::string_view BodyPool::WireLines(std::uint32_t first,
                                     std::uint32_t n) const {
  const std::uint32_t begin = wire_offset_[first];
  return std::string_view(wire_).substr(begin,
                                        wire_offset_[first + n] - begin);
}

std::string BodyHeader(std::uint64_t key) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%016llx\r\n\r\n", kHeaderPrefix,
                static_cast<unsigned long long>(key));
  return buf;
}

std::optional<std::uint64_t> ParseBodyKey(std::string_view body) {
  if (body.size() < kHeaderBytes ||
      body.substr(0, kHeaderPrefixBytes) != kHeaderPrefix) {
    return std::nullopt;
  }
  std::uint64_t key = 0;
  for (std::size_t i = kHeaderPrefixBytes; i < kHeaderPrefixBytes + 16; ++i) {
    const char c = body[i];
    int digit = 0;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return std::nullopt;
    }
    key = (key << 4) | static_cast<std::uint64_t>(digit);
  }
  return key;
}

std::uint64_t BodyBytes(const SessionPlan& plan) {
  return kHeaderBytes + std::uint64_t{plan.body_lines} * BodyPool::kLineBytes;
}

bool BodyMatches(const BodyPool& pool, const SessionPlan& plan,
                 std::string_view body) {
  if (body.size() != BodyBytes(plan)) return false;
  const std::string header = BodyHeader(plan.key);
  return body.substr(0, kHeaderBytes) == header &&
         body.substr(kHeaderBytes) ==
             pool.Lines(plan.body_first_line, plan.body_lines);
}

}  // namespace perfbench
