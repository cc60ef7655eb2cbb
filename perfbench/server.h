// Server process: the real fork-after-trust mta::SmtpServer over a
// durable MFS store, with a loopback DNSBL daemon and the reputation
// gate on. Prints "PORT <n>" once it accepts, then serves until SIGTERM,
// drains, and writes its registry counts (summed by sams_* name) and,
// when traced, per-stage span percentiles to `out_path` as JSON.
#pragma once

#include <string>

#include "plan.h"

namespace perfbench {

struct ServerOptions {
  Workload workload = Workload::kSinkhole;
  std::string store_dir;
  std::string out_path;
  int shards = 1;
  bool trace = false;  // bind an obs::TraceSink through BindObservability
};

int RunServer(const ServerOptions& opts);

}  // namespace perfbench
