#include "gen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <time.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "stats.h"
#include "util/time.h"

#ifndef IP_BIND_ADDRESS_NO_PORT
#define IP_BIND_ADDRESS_NO_PORT 24
#endif

namespace perfbench {
namespace {

using sams::util::MonotonicNanos;

constexpr int kIoTimeoutMs = 10'000;
// Timed phases are cut into (up to) this many windows and each
// end-to-end figure is the median over windows (see WindowedPercentile).
constexpr int kWindows = 15;
constexpr std::size_t kMinWindowSamples = 1000;

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void SleepUntil(std::int64_t deadline_ns) {
  timespec ts{};
  ts.tv_sec = deadline_ns / 1'000'000'000;
  ts.tv_nsec = deadline_ns % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

// utime + stime of `pid` in seconds; < 0 when unreadable.
double ProcessCpuSeconds(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return -1.0;
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream fields(line.substr(close + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

// VmHWM of `pid` in MiB; < 0 when unreadable.
double PeakRssMb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return -1.0;
}

// One blocking SMTP client connection.
class Client {
 public:
  Client() = default;
  ~Client() { Close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool Connect(sams::util::Ipv4 source, std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    (void)::setsockopt(fd_, IPPROTO_IP, IP_BIND_ADDRESS_NO_PORT, &one,
                       sizeof(one));
    (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{kIoTimeoutMs / 1000, 0};
    (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    (void)::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    sockaddr_in src{};
    src.sin_family = AF_INET;
    src.sin_addr.s_addr = htonl(source.value());
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&src), sizeof(src)) != 0) {
      return false;
    }
    sockaddr_in dst{};
    dst.sin_family = AF_INET;
    dst.sin_port = htons(port);
    dst.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&dst), sizeof(dst)) == 0;
  }

  bool Send(std::string_view bytes) {
    iovec iov{const_cast<char*>(bytes.data()), bytes.size()};
    return SendV(&iov, 1);
  }

  bool SendV(iovec* iov, int count) {
    while (count > 0) {
      const ssize_t n = ::writev(fd_, iov, count);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      auto left = static_cast<std::size_t>(n);
      while (count > 0 && left >= iov->iov_len) {
        left -= iov->iov_len;
        ++iov;
        --count;
      }
      if (count > 0) {
        iov->iov_base = static_cast<char*>(iov->iov_base) + left;
        iov->iov_len -= left;
      }
    }
    return true;
  }

  // Reads one (possibly multi-line) reply: its code, 0 on a clean EOF,
  // -1 on an error, a timeout or a malformed line.
  int Reply() {
    for (;;) {
      std::string line;
      const int got = ReadLine(&line);
      if (got <= 0) return got;
      if (line.size() < 3 || line[0] < '2' || line[0] > '5' || line[1] < '0' ||
          line[1] > '9' || line[2] < '0' || line[2] > '9') {
        return -1;
      }
      if (line.size() == 3 || line[3] == ' ') {
        return (line[0] - '0') * 100 + (line[1] - '0') * 10 + (line[2] - '0');
      }
      if (line[3] != '-') return -1;
    }
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    off_ = len_ = 0;
  }

 private:
  // 1 with a line (CRLF stripped), 0 on EOF, -1 on error.
  int ReadLine(std::string* line) {
    for (;;) {
      for (std::size_t i = off_; i + 1 < len_; ++i) {
        if (buf_[i] == '\r' && buf_[i + 1] == '\n') {
          line->append(buf_ + off_, i - off_);
          off_ = i + 2;
          return 1;
        }
      }
      if (off_ > 0) {
        std::memmove(buf_, buf_ + off_, len_ - off_);
        len_ -= off_;
        off_ = 0;
      }
      if (len_ == sizeof(buf_)) return -1;  // overlong reply line
      // ACK at once instead of after the delayed-ACK timer. The server
      // writes each pipelined reply separately without TCP_NODELAY, so
      // against a delayed-ACK peer every reply after the first waits up
      // to 40 ms (Nagle); that timer, not the server's work, would then
      // set the capacity. TCP_QUICKACK does not stick, so re-arm it.
      const int one = 1;
      (void)::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
      const ssize_t n = ::recv(fd_, buf_ + len_, sizeof(buf_) - len_, 0);
      if (n == 0) return 0;
      if (n < 0) {
        if (errno == EINTR) continue;
        return -1;
      }
      len_ += static_cast<std::size_t>(n);
    }
  }

  int fd_ = -1;
  char buf_[4096];
  std::size_t off_ = 0;
  std::size_t len_ = 0;
};

// Client span names: children of the session root, in dialog order.
enum SpanId { kConnect, kBanner, kHelo, kMail, kRcpt, kData, kBodyAck, kQuit,
              kSpanCount };
constexpr std::array<const char*, kSpanCount> kSpanNames = {
    "connect", "banner", "helo", "mail", "rcpt", "data", "body_ack", "quit"};

struct Outcome {
  bool failed = false;
  const char* reason = "";
  bool acked = false;
  std::vector<int> accepted;         // mailboxes whose RCPT drew 250
  std::vector<double> rcpt_stall_ms; // ham, one per non-pipelined RCPT
  double ack_ms = -1.0;              // ham: final dot -> 250
  std::int64_t end_ns = 0;
  std::array<std::int64_t, kSpanCount> span_start{};
  std::array<std::int64_t, kSpanCount> span_end{};
  std::array<bool, kSpanCount> span_set{};
};

// Runs one planned dialog against the server on `port`.
Outcome RunSession(const SessionPlan& p, std::uint16_t port,
                   const BodyPool& pool) {
  Outcome out;
  Client c;
  const bool ham = p.kind == Kind::kHam;
  const auto fail = [&out](const char* reason) {
    out.failed = true;
    out.reason = reason;
  };
  const auto mark = [&out](SpanId id, std::int64_t start) {
    out.span_start[id] = start;
    out.span_end[id] = MonotonicNanos();
    out.span_set[id] = true;
    return out.span_end[id];
  };
  std::int64_t t = MonotonicNanos();
  if (!c.Connect(p.client, port)) {
    fail("connect");
    out.end_ns = MonotonicNanos();
    return out;
  }
  t = mark(kConnect, t);
  const std::string helo = HeloLine(p);
  if (p.pregreet && !c.Send(helo)) {
    fail("send");
  }
  if (!out.failed && c.Reply() != 220) fail("banner");
  if (!out.failed) t = mark(kBanner, t);
  if (!out.failed && !p.pregreet && !c.Send(helo)) fail("send");
  if (!out.failed && c.Reply() != 250) fail("helo");
  if (!out.failed) t = mark(kHelo, t);
  if (out.failed) {
    out.end_ns = MonotonicNanos();
    return out;
  }

  const std::string mail = MailLine(p);
  std::vector<std::string> rcpts;
  for (const int r : p.rcpts) rcpts.push_back(RcptLine(r));
  bool closed_by_server = false;  // 554 at the gate ends the session
  // Applies one RCPT reply; false ends the transaction.
  const auto on_rcpt_reply = [&](std::size_t i, int code) {
    const int r = p.rcpts[i];
    if (code == 250 && r >= 0) {
      out.accepted.push_back(r);
      return true;
    }
    if (ham) {
      fail("ham_rcpt");
      return false;
    }
    if (code == 554) {
      closed_by_server = true;
      return false;
    }
    if (code == 550 || code == 450) return true;
    fail(code <= 0 ? "rcpt_io" : "rcpt_code");
    return false;
  };
  if (p.pipelined) {
    std::string blast = mail;
    for (const std::string& r : rcpts) blast += r;
    if (!c.Send(blast)) fail("send");
    if (!out.failed && c.Reply() != 250) fail("mail");
    if (!out.failed) t = mark(kMail, t);
    for (std::size_t i = 0; !out.failed && i < rcpts.size(); ++i) {
      if (!on_rcpt_reply(i, c.Reply())) break;
    }
  } else {
    if (!c.Send(mail)) fail("send");
    if (!out.failed && c.Reply() != 250) fail("mail");
    if (!out.failed) t = mark(kMail, t);
    for (std::size_t i = 0; !out.failed && i < rcpts.size(); ++i) {
      const std::int64_t sent = MonotonicNanos();
      if (!c.Send(rcpts[i])) {
        fail("send");
        break;
      }
      const int code = c.Reply();
      if (ham) {
        out.rcpt_stall_ms.push_back(static_cast<double>(MonotonicNanos() - sent) / 1e6);
      }
      if (!on_rcpt_reply(i, code)) break;
    }
  }
  if (!out.failed) t = mark(kRcpt, t);

  if (!out.failed && !closed_by_server && !out.accepted.empty()) {
    if (!c.Send("DATA\r\n") || c.Reply() != 354) fail("data");
    if (!out.failed) {
      const std::string header = BodyHeader(p.key);
      const std::string_view lines =
          pool.WireLines(p.body_first_line, p.body_lines);
      static constexpr char kDot[] = ".\r\n";
      iovec iov[3] = {{const_cast<char*>(header.data()), header.size()},
                      {const_cast<char*>(lines.data()), lines.size()},
                      {const_cast<char*>(kDot), 3}};
      if (!c.SendV(iov, 3)) fail("send");
    }
    if (!out.failed) {
      t = mark(kData, t);
      const int code = c.Reply();
      if (code == 250) {
        out.acked = true;
      } else if (ham || code <= 0) {
        fail("body");
      }
      if (!out.failed) {
        t = mark(kBodyAck, t);
        if (ham) out.ack_ms = static_cast<double>(out.span_end[kBodyAck] -
                                                  out.span_start[kBodyAck]) /
                              1e6;
      }
    }
  }
  if (!out.failed && !closed_by_server) {
    if (!c.Send("QUIT\r\n") || c.Reply() != 221) fail("quit");
    if (!out.failed) mark(kQuit, t);
  }
  if (!out.acked) out.accepted.clear();
  out.end_ns = MonotonicNanos();
  return out;
}

struct PhaseStats {
  std::uint64_t sessions = 0;
  std::uint64_t failed = 0;
  std::uint64_t ham_acked = 0;
  std::uint64_t acked_bytes = 0;
  std::uint64_t spam_sessions = 0;
  std::uint64_t spam_delivered = 0;
  std::map<std::string, std::uint64_t> fail_reasons;
  // Open loop, stamped with the session's due time.
  std::vector<TimedSample> session_ms;
  std::vector<TimedSample> rcpt_stall_ms;
  std::vector<TimedSample> ack_ms;
  std::vector<TimedSample> late_ms;
  // Closed loop: every finished session, for the per-window rates.
  struct Done {
    std::int64_t end_ns = 0;
    std::uint64_t acked_bytes = 0;
    bool ham_acked = false;
  };
  std::vector<Done> done;
  std::array<std::vector<double>, kSpanCount> span_ms;
  std::vector<double> session_self_ms;
  double cpu_s = 0.0;  // this thread's CPU over the phase
  std::string acks;

  void Merge(PhaseStats&& o) {
    sessions += o.sessions;
    failed += o.failed;
    ham_acked += o.ham_acked;
    acked_bytes += o.acked_bytes;
    spam_sessions += o.spam_sessions;
    spam_delivered += o.spam_delivered;
    for (const auto& [k, v] : o.fail_reasons) fail_reasons[k] += v;
    const auto append = [](auto& a, auto& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    append(session_ms, o.session_ms);
    append(rcpt_stall_ms, o.rcpt_stall_ms);
    append(ack_ms, o.ack_ms);
    append(late_ms, o.late_ms);
    append(done, o.done);
    for (int i = 0; i < kSpanCount; ++i) append(span_ms[i], o.span_ms[i]);
    append(session_self_ms, o.session_self_ms);
    acks += o.acks;
  }
};

// Books one finished session into the thread's stats. `due_ns` < 0 for
// closed-loop sessions (no schedule to be late against).
void Record(const SessionPlan& p, const Outcome& o, std::int64_t start_ns,
            std::int64_t due_ns, bool trace, PhaseStats* s) {
  ++s->sessions;
  if (o.failed) {
    ++s->failed;
    ++s->fail_reasons[o.reason];
  }
  if (p.kind == Kind::kSpam) {
    ++s->spam_sessions;
    if (o.acked) ++s->spam_delivered;
  }
  if (o.acked) {
    if (p.kind == Kind::kHam) ++s->ham_acked;
    s->acked_bytes += BodyBytes(p);
    char key[24];
    std::snprintf(key, sizeof(key), "%016llx",
                  static_cast<unsigned long long>(p.key));
    s->acks += key;
    for (const int box : o.accepted) s->acks += " " + std::to_string(box);
    s->acks += '\n';
  }
  if (due_ns >= 0) {
    // A failed session misses every latency limit: it is booked at the
    // I/O timeout, beyond any percentile a healthy run reports.
    s->session_ms.push_back(
        {due_ns, o.failed ? kIoTimeoutMs
                          : static_cast<double>(o.end_ns - due_ns) / 1e6});
    s->late_ms.push_back({due_ns, static_cast<double>(start_ns - due_ns) / 1e6});
    if (p.kind == Kind::kHam) {
      if (o.failed) {
        s->rcpt_stall_ms.push_back({due_ns, kIoTimeoutMs});
        s->ack_ms.push_back({due_ns, kIoTimeoutMs});
      } else {
        for (const double ms : o.rcpt_stall_ms) {
          s->rcpt_stall_ms.push_back({due_ns, ms});
        }
        if (o.ack_ms >= 0) s->ack_ms.push_back({due_ns, o.ack_ms});
      }
    }
  } else {
    s->done.push_back({o.end_ns, o.acked ? BodyBytes(p) : 0,
                       o.acked && p.kind == Kind::kHam});
  }
  if (trace && !o.failed) {
    std::vector<Span> spans;
    spans.push_back({-1, start_ns, o.end_ns});
    for (int i = 0; i < kSpanCount; ++i) {
      if (!o.span_set[i]) continue;
      spans.push_back({0, o.span_start[i], o.span_end[i]});
      s->span_ms[i].push_back(
          static_cast<double>(o.span_end[i] - o.span_start[i]) / 1e6);
    }
    s->session_self_ms.push_back(static_cast<double>(SelfTimes(spans)[0]) / 1e6);
  }
}

// Closed-loop rates over one window of the phase.
struct Window {
  double sessions_per_s = 0.0;
  double ham_acked_per_s = 0.0;
  double body_mb_per_s = 0.0;
  double cpu_ms_per_session = 0.0;
};

struct PhaseResult {
  PhaseStats stats;
  double wall_s = 0.0;
  double max_thread_cpu_frac = 0.0;
  double server_cpu_s = -1.0;
  std::vector<Window> windows;  // closed loop only
};

// Runs one phase on cfg.threads clients. `due` non-null = open loop.
PhaseResult RunPhase(const GenConfig& cfg, const BodyPool& pool, Phase phase,
                     double seconds, const std::vector<double>* due) {
  PhaseResult result;
  std::vector<PhaseStats> per_thread(static_cast<std::size_t>(cfg.threads));
  std::atomic<std::uint64_t> next{0};
  const double server_cpu0 =
      cfg.server_pid > 0 ? ProcessCpuSeconds(cfg.server_pid) : -1.0;
  const std::int64_t t0 = MonotonicNanos() + 2'000'000;  // every thread starts together
  const std::int64_t deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t width = (deadline - t0) / kWindows;
  // Server CPU at each closed-loop window boundary.
  std::vector<double> cpu_at(kWindows + 1, -1.0);
  std::thread sampler;
  if (due == nullptr && phase == Phase::kClosed && cfg.server_pid > 0) {
    sampler = std::thread([&] {
      for (int k = 0; k <= kWindows; ++k) {
        SleepUntil(t0 + k * width);
        cpu_at[static_cast<std::size_t>(k)] = ProcessCpuSeconds(cfg.server_pid);
      }
    });
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < cfg.threads; ++t) {
    threads.emplace_back([&, t] {
      PhaseStats& s = per_thread[static_cast<std::size_t>(t)];
      SleepUntil(t0);
      const double cpu0 = ThreadCpuSeconds();
      for (;;) {
        const std::uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
        std::int64_t due_ns = -1;
        if (due != nullptr) {
          if (i >= due->size()) break;
          due_ns = t0 + static_cast<std::int64_t>((*due)[i] * 1e9);
          if (MonotonicNanos() < due_ns) SleepUntil(due_ns);
        } else if (MonotonicNanos() >= deadline) {
          break;
        }
        const SessionPlan p = MakeSession(cfg.workload, cfg.seed, phase, i);
        const std::int64_t start = MonotonicNanos();
        const Outcome o = RunSession(p, cfg.port, pool);
        Record(p, o, start, due_ns, cfg.trace, &s);
      }
      s.cpu_s = ThreadCpuSeconds() - cpu0;
    });
  }
  for (std::thread& th : threads) th.join();
  if (sampler.joinable()) sampler.join();
  const std::int64_t t1 = MonotonicNanos();
  result.wall_s = static_cast<double>(t1 - t0) / 1e9;
  if (server_cpu0 >= 0) {
    result.server_cpu_s = ProcessCpuSeconds(cfg.server_pid) - server_cpu0;
  }
  for (PhaseStats& s : per_thread) {
    result.max_thread_cpu_frac =
        std::max(result.max_thread_cpu_frac, Ratio(s.cpu_s, result.wall_s));
    result.stats.Merge(std::move(s));
  }
  if (cpu_at.front() >= 0) {
    const double width_s = static_cast<double>(width) / 1e9;
    std::vector<std::uint64_t> sessions(kWindows);
    std::vector<std::uint64_t> ham(kWindows);
    std::vector<std::uint64_t> bytes(kWindows);
    for (const PhaseStats::Done& d : result.stats.done) {
      const std::int64_t k = (d.end_ns - t0) / width;
      if (k < 0 || k >= kWindows) continue;  // finished after the deadline
      ++sessions[static_cast<std::size_t>(k)];
      ham[static_cast<std::size_t>(k)] += d.ham_acked ? 1 : 0;
      bytes[static_cast<std::size_t>(k)] += d.acked_bytes;
    }
    for (std::size_t k = 0; k < kWindows; ++k) {
      const auto n = static_cast<double>(sessions[k]);
      result.windows.push_back(
          {n / width_s, static_cast<double>(ham[k]) / width_s,
           static_cast<double>(bytes[k]) / 1e6 / width_s,
           Ratio(1e3 * (cpu_at[k + 1] - cpu_at[k]), n)});
    }
  }
  return result;
}

// Medians over the closed-loop windows.
std::string WindowsJson(const std::vector<Window>& windows) {
  std::vector<double> sessions;
  std::vector<double> ham;
  std::vector<double> mb;
  std::vector<double> cpu;
  for (const Window& w : windows) {
    sessions.push_back(w.sessions_per_s);
    ham.push_back(w.ham_acked_per_s);
    mb.push_back(w.body_mb_per_s);
    cpu.push_back(w.cpu_ms_per_session);
  }
  char buf[240];
  std::snprintf(buf, sizeof(buf),
                "{\"windows\": %zu, \"sessions_per_s\": %.9g, "
                "\"ham_acked_per_s\": %.9g, \"body_mb_per_s\": %.9g, "
                "\"cpu_ms_per_session\": %.9g}",
                windows.size(), Median(sessions), Median(ham), Median(mb),
                Median(cpu));
  return buf;
}

std::string FailJson(const PhaseStats& s) {
  std::string out = "{";
  for (const auto& [reason, n] : s.fail_reasons) {
    if (out.size() > 1) out += ", ";
    out += "\"" + reason + "\": " + std::to_string(n);
  }
  return out + "}";
}

std::string CountsJson(const PhaseStats& s) {
  return "\"sessions\": " + std::to_string(s.sessions) +
         ", \"failed\": " + std::to_string(s.failed) +
         ", \"fail_reasons\": " + FailJson(s) +
         ", \"ham_acked\": " + std::to_string(s.ham_acked) +
         ", \"acked_bytes\": " + std::to_string(s.acked_bytes) +
         ", \"spam_sessions\": " + std::to_string(s.spam_sessions) +
         ", \"spam_delivered\": " + std::to_string(s.spam_delivered);
}

std::string Windowed(const std::vector<TimedSample>& samples) {
  return WindowedPercentileJson(samples, kMinWindowSamples, kWindows);
}

std::string SpansJson(PhaseStats& s) {
  std::string out = "{";
  for (int i = 0; i < kSpanCount; ++i) {
    out += "\"" + std::string(kSpanNames[i]) + "\": " +
           PercentileJson(s.span_ms[i]) + ", ";
  }
  return out + "\"session_self\": " + PercentileJson(s.session_self_ms) + "}";
}

}  // namespace

int RunGenerator(const GenConfig& cfg) {
  const BodyPool pool(cfg.seed);
  std::string acks;
  std::string json = "{\"workload\": \"" + std::string(WorkloadName(cfg.workload)) +
                     "\", \"seed\": " + std::to_string(cfg.seed);
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(
                    ScheduleDigest(cfg.workload, cfg.seed, cfg.open_s)));
  json += ", \"schedule_digest\": \"" + std::string(digest) + "\"";
  json += ", \"threads\": " + std::to_string(cfg.threads);
  double gen_cpu_frac = 0.0;
  if (cfg.warmup_s > 0) {
    PhaseResult warm = RunPhase(cfg, pool, Phase::kWarmup, cfg.warmup_s, nullptr);
    acks += warm.stats.acks;
    json += ", \"warmup\": {" + CountsJson(warm.stats) + "}";
  }
  if (cfg.open_s > 0) {
    const std::vector<double> due =
        OpenSchedule(cfg.workload, cfg.seed, cfg.open_s);
    PhaseResult open = RunPhase(cfg, pool, Phase::kOpen, cfg.open_s, &due);
    acks += open.stats.acks;
    gen_cpu_frac = std::max(gen_cpu_frac, open.max_thread_cpu_frac);
    PhaseStats& s = open.stats;
    json += ", \"open\": {" + CountsJson(s) + ", \"rate\": " +
            JsonNumber(OpenRate(cfg.workload)) + ", \"wall_s\": " + JsonNumber(open.wall_s) +
            ", \"session_ms\": " + Windowed(s.session_ms) +
            ", \"ham_rcpt_stall_ms\": " + Windowed(s.rcpt_stall_ms) +
            ", \"ham_ack_ms\": " + Windowed(s.ack_ms) +
            ", \"late_ms\": " + Windowed(s.late_ms) +
            ", \"gen_cpu_frac\": " + JsonNumber(open.max_thread_cpu_frac);
    if (cfg.trace) json += ", \"spans\": " + SpansJson(s);
    json += "}";
  }
  if (cfg.closed_s > 0) {
    PhaseResult closed =
        RunPhase(cfg, pool, Phase::kClosed, cfg.closed_s, nullptr);
    acks += closed.stats.acks;
    gen_cpu_frac = std::max(gen_cpu_frac, closed.max_thread_cpu_frac);
    PhaseStats& s = closed.stats;
    json += ", \"closed\": {" + CountsJson(s) + ", \"wall_s\": " +
            JsonNumber(closed.wall_s) + ", \"server_cpu_s\": " +
            JsonNumber(closed.server_cpu_s) + ", \"gen_cpu_frac\": " +
            JsonNumber(closed.max_thread_cpu_frac);
    if (!closed.windows.empty()) {
      json += ", \"windowed\": " + WindowsJson(closed.windows);
    }
    if (cfg.trace) json += ", \"spans\": " + SpansJson(s);
    json += "}";
  }
  json += ", \"gen_cpu_frac\": " + JsonNumber(gen_cpu_frac);
  if (cfg.server_pid > 0) {
    json += ", \"peak_rss_mb\": " + JsonNumber(PeakRssMb(cfg.server_pid));
  }
  json += "}";
  if (!cfg.acks_path.empty()) {
    std::ofstream out(cfg.acks_path, std::ios::binary | std::ios::trunc);
    out << acks;
    if (!out.good()) {
      std::fprintf(stderr, "gen: cannot write %s\n", cfg.acks_path.c_str());
      return 1;
    }
  }
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace perfbench
