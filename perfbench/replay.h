// Layer replays for the traced run: the workload's generated inputs go
// straight into each layer's public entry point, one span per call, with
// no sockets or other layers in the way:
//
//   smtp   smtp::ServerSession::Feed (DATA through FeedPinned, as the
//          pooled receive path does)
//   rep    rep::ReputationEngine::Evaluate
//   dnsbl  dnsbl::AsyncLookupPipeline::Begin against a loopback daemon
//   mfs    mfs::MailStore::DeliverParts from `threads` threads, durable
//
// Each layer gets a quarter of `seconds`. Prints one JSON object.
#pragma once

#include <cstdint>
#include <string>

#include "plan.h"

namespace perfbench {

struct ReplayOptions {
  Workload workload = Workload::kSinkhole;
  std::uint64_t seed = 1;
  double seconds = 4.0;
  int threads = 1;
  std::string store_dir;  // fresh directory for the DeliverParts replay
};

int RunReplay(const ReplayOptions& opts);

}  // namespace perfbench
