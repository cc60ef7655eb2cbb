// Seeded SMTP traffic plans for the end-to-end benchmark.
//
// Every session of every phase is a pure function of (workload, seed,
// phase, index), so generator threads build their own sessions without
// sharing RNG state, and the output check rebuilds each acked body from
// its key alone. The traffic shapes follow the Schatzmann et al.
// flow-level spam/ham model: spam from a heavy-tailed botnet /24
// popularity plus a steady share of never-seen prefixes, ham from a
// small warm set of senders.
//
// Client addresses are real loopback sources (127.A.B.C): the generator
// binds each socket to its planned address, so the server's DNSBL
// pipeline and reputation engine see distinct /24s with no test seam.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/ipv4.h"

namespace perfbench {

// kSinkholeWarm is the sinkhole traffic without never-seen /24s, so
// fewer DNSBL lookups miss the prefix cache.
enum class Workload { kSinkhole, kSinkholeWarm, kDepartment, kBulk };
std::optional<Workload> ParseWorkload(std::string_view name);
const char* WorkloadName(Workload w);

enum class Kind : std::uint8_t { kHam, kSpam, kBounce };
const char* KindName(Kind kind);

// Disjoint session streams, so a warm-up mail never shares a key with a
// timed one.
enum class Phase : std::uint8_t { kWarmup = 0, kOpen = 1, kClosed = 2, kReplay = 3 };

// Open-loop arrival rate (sessions/s), fixed per workload at roughly
// half of the seed's closed-loop capacity on a 4-core host. Never
// derived at run time: a faster server must not get a harder test.
double OpenRate(Workload w);

// Recipient directory shared by server, generator and checker:
// u0000 .. u1023 @ bench.test. The MFS fd cache holds 128 mailboxes by
// default, so `bulk` (all 1024) thrashes it and `department` (96) fits.
inline constexpr int kMailboxes = 1024;
inline constexpr char kDomain[] = "bench.test";
std::string MailboxName(int index);

// Mail identity: phase in the top byte, session index below.
inline std::uint64_t MakeKey(Phase phase, std::uint64_t index) {
  return (static_cast<std::uint64_t>(phase) << 56) | index;
}
inline Phase KeyPhase(std::uint64_t key) { return static_cast<Phase>(key >> 56); }
inline std::uint64_t KeyIndex(std::uint64_t key) {
  return key & ((std::uint64_t{1} << 56) - 1);
}

struct SessionPlan {
  std::uint64_t key = 0;
  Kind kind = Kind::kHam;
  sams::util::Ipv4 client;       // source address, 127.x.y.z
  bool pipelined = false;        // MAIL + every RCPT in one write
  bool pregreet = false;         // HELO written before the banner is read
  bool bare_ip_helo = false;     // HELO <dotted quad> instead of a hostname
  bool null_sender = false;      // MAIL FROM:<>
  // >= 0: mailbox index (a valid recipient); < 0: dictionary probe
  // for a local part that does not exist.
  std::vector<int> rcpts;
  std::uint32_t body_first_line = 0;  // slice of the body line pool
  std::uint32_t body_lines = 0;
};

SessionPlan MakeSession(Workload w, std::uint64_t seed, Phase phase,
                        std::uint64_t index);

// The CRLF-terminated command lines a client speaks for a plan.
std::string HeloLine(const SessionPlan& p);
std::string MailLine(const SessionPlan& p);
std::string RcptLine(int rcpt);

// Poisson arrival offsets (seconds from phase start) at OpenRate(w).
std::vector<double> OpenSchedule(Workload w, std::uint64_t seed,
                                 double seconds);

// FNV-1a over the open-loop schedule and every session it names plus
// the first 4096 closed-loop sessions: the same seed always prints the
// same digest, whatever the host.
std::uint64_t ScheduleDigest(Workload w, std::uint64_t seed,
                             double open_seconds);

// The DNSBL listing the daemon serves for `w` (seed-independent, so the
// server needs no seed): calls `fn` for every listed address.
void ForEachListed(Workload w, const std::function<void(sams::util::Ipv4)>& fn);

// The loopback DNSBL zone, and the fixed delay its daemon answers
// after: a stand-in for the round trip to a remote blacklist, which the
// server's pipeline overlaps with the banner -> HELO -> MAIL dialog.
inline constexpr char kDnsblZone[] = "bl.perfbench.test";
inline constexpr int kDnsblDelayMs = 2;

// Message bodies: a fixed header naming the key, then a slice of a
// seeded pool of 78-byte CRLF lines. Some pool lines start with '.', so
// the DATA path's dot-stuffing runs on every workload.
class BodyPool {
 public:
  static constexpr std::uint32_t kLineBytes = 78;
  static constexpr std::uint32_t kLines = 16384;  // 1.2 MiB of text

  explicit BodyPool(std::uint64_t seed);

  // Decoded text of lines [first, first + n).
  std::string_view Lines(std::uint32_t first, std::uint32_t n) const;
  // The same lines dot-stuffed for the wire.
  std::string_view WireLines(std::uint32_t first, std::uint32_t n) const;

 private:
  std::string text_;
  std::string wire_;
  std::vector<std::uint32_t> wire_offset_;  // kLines + 1 entries
};

// "X-Perfbench-Key: <16 hex>\r\n\r\n"; kHeaderBytes long.
inline constexpr std::size_t kHeaderBytes = 37;
std::string BodyHeader(std::uint64_t key);
std::optional<std::uint64_t> ParseBodyKey(std::string_view body);
std::uint64_t BodyBytes(const SessionPlan& plan);
// True when `body` is exactly the decoded body the plan describes.
bool BodyMatches(const BodyPool& pool, const SessionPlan& plan,
                 std::string_view body);

std::uint64_t Mix64(std::uint64_t x);

}  // namespace perfbench
