// Load generator: nproc blocking SMTP clients in one process, separate
// from the server, driving the seeded plan through three phases:
//
//   warm-up  (untimed) closed loop, so the DNSBL cache, reputation
//            buckets and MFS fd cache reach steady state;
//   open     Poisson arrivals at OpenRate(w); each session is timed from
//            when it was due, so a stall also charges the queue behind it;
//   closed   every client starts its next session as soon as the last
//            one closes: the rate an nproc-connection sender sustains.
//
// Prints one JSON object (last stdout line) and writes the ack log the
// output check reads: one line per 250-acked mail, "<key hex> <mailbox
// index>...".
#pragma once

#include <cstdint>
#include <string>

#include "plan.h"

namespace perfbench {

struct GenConfig {
  Workload workload = Workload::kSinkhole;
  std::uint64_t seed = 1;
  std::uint16_t port = 0;
  int server_pid = 0;        // for server CPU and peak RSS from /proc
  double warmup_s = 1.0;
  double open_s = 0.0;       // 0 skips the phase
  double closed_s = 0.0;
  int threads = 1;
  bool trace = false;        // record client spans
  std::string acks_path;
};

int RunGenerator(const GenConfig& cfg);

}  // namespace perfbench
