#include "check.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "plan.h"

namespace perfbench {

bool ParseAckLog(std::istream& in, AckLog* acks, std::string* error) {
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string key_hex;
    fields >> key_hex;
    std::uint64_t key = 0;
    try {
      std::size_t used = 0;
      key = std::stoull(key_hex, &used, 16);
      if (used != key_hex.size()) throw std::invalid_argument(key_hex);
    } catch (const std::exception&) {
      *error = "line " + std::to_string(line_no) + ": bad key";
      return false;
    }
    std::vector<int> boxes;
    int box = 0;
    while (fields >> box) {
      if (box < 0 || box >= kMailboxes) {
        *error = "line " + std::to_string(line_no) + ": bad mailbox";
        return false;
      }
      boxes.push_back(box);
    }
    if (!fields.eof() || boxes.empty()) {
      *error = "line " + std::to_string(line_no) + ": bad mailbox list";
      return false;
    }
    if (!acks->emplace(key, std::move(boxes)).second) {
      *error = "line " + std::to_string(line_no) + ": key acked twice";
      return false;
    }
  }
  return true;
}

CheckReport CheckStore(
    sams::mfs::MailStore& store, const AckLog& acks,
    const std::function<bool(std::uint64_t, std::string_view)>& body_ok,
    int threads) {
  // Invert the log: mailbox -> keys acked into it.
  std::vector<std::vector<std::uint64_t>> expected(kMailboxes);
  CheckReport report;
  for (const auto& [key, boxes] : acks) {
    ++report.acked_mails;
    for (const int box : boxes) expected[static_cast<std::size_t>(box)].push_back(key);
    report.acked_deliveries += boxes.size();
  }
  std::vector<int> boxes;
  for (int box = 0; box < kMailboxes; ++box) {
    if (!expected[static_cast<std::size_t>(box)].empty()) boxes.push_back(box);
  }

  std::mutex mutex;  // guards report
  std::atomic<std::size_t> next{0};
  const auto note = [&report](std::string problem) {
    if (report.examples.size() < 8) report.examples.push_back(std::move(problem));
  };
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= boxes.size()) return;
      const int box = boxes[i];
      const std::string name = MailboxName(box);
      auto mails = store.ReadMailbox(name);
      std::vector<std::uint64_t> want = expected[static_cast<std::size_t>(box)];
      std::sort(want.begin(), want.end());
      std::set<std::uint64_t> seen;
      CheckReport local;
      std::vector<std::string> problems;
      if (!mails.ok()) {
        problems.push_back(name + ": " + mails.error().ToString());
      } else {
        for (const std::string& body : *mails) {
          const auto key = ParseBodyKey(body);
          if (!key.has_value() ||
              !std::binary_search(want.begin(), want.end(), *key)) {
            ++local.unacked;
            continue;
          }
          if (!seen.insert(*key).second) {
            ++local.duplicates;
            problems.push_back(name + ": duplicate");
          } else if (!body_ok(*key, body)) {
            ++local.corrupt;
            problems.push_back(name + ": corrupt body");
          } else {
            ++local.found;
          }
        }
      }
      for (const std::uint64_t key : want) {
        if (seen.count(key) == 0) {
          ++local.missing;
          problems.push_back(name + ": missing acked mail");
        }
      }
      std::lock_guard<std::mutex> lock(mutex);
      report.found += local.found;
      report.missing += local.missing;
      report.corrupt += local.corrupt;
      report.duplicates += local.duplicates;
      report.unacked += local.unacked;
      for (std::string& p : problems) note(std::move(p));
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < std::max(threads, 1); ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& th : pool) th.join();
  return report;
}

}  // namespace perfbench
