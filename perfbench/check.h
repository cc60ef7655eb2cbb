// Output check: after the server stops, the store is reopened and every
// 250-acked mail must sit exactly once, byte-identical, in every
// mailbox the server accepted it for.
#pragma once

#include <cstdint>
#include <functional>
#include <istream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "mfs/store.h"

namespace perfbench {

// Mail key -> mailbox indices whose RCPT drew 250.
using AckLog = std::unordered_map<std::uint64_t, std::vector<int>>;

// Parses the generator's ack log ("<key hex> <mailbox>..." per line).
// False (with `error` set) on a malformed line or a repeated key.
bool ParseAckLog(std::istream& in, AckLog* acks, std::string* error);

struct CheckReport {
  std::uint64_t acked_mails = 0;
  std::uint64_t acked_deliveries = 0;  // mail x accepted mailbox
  std::uint64_t found = 0;             // acked deliveries present and intact
  std::uint64_t missing = 0;
  std::uint64_t corrupt = 0;           // key present, bytes differ
  std::uint64_t duplicates = 0;        // an acked mail stored twice in a box
  std::uint64_t unacked = 0;           // stored mails no ack names
  std::vector<std::string> examples;   // first few problems, for the log

  bool ok() const { return missing == 0 && corrupt == 0 && duplicates == 0; }
};

// `body_ok(key, body)` says whether `body` is exactly the mail `key`
// names. Reads every mailbox the log mentions on `threads` threads.
CheckReport CheckStore(
    sams::mfs::MailStore& store, const AckLog& acks,
    const std::function<bool(std::uint64_t, std::string_view)>& body_ok,
    int threads);

}  // namespace perfbench
