// Self-tests for the benchmark's own logic: plan determinism and mix,
// percentile/ratio/span arithmetic, and the output check (including a
// planted missing mail, so the check is shown to catch one).
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "check.h"
#include "mfs/mail_id.h"
#include "mfs/store.h"
#include "plan.h"
#include "stats.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr Workload kAll[] = {Workload::kSinkhole, Workload::kSinkholeWarm,
                             Workload::kDepartment, Workload::kBulk};

TEST(PlanTest, SameSeedSameDigest) {
  for (const Workload w : kAll) {
    EXPECT_EQ(ScheduleDigest(w, 7, 0.5), ScheduleDigest(w, 7, 0.5))
        << WorkloadName(w);
  }
}

TEST(PlanTest, DifferentSeedsDifferentDigests) {
  for (const Workload w : kAll) {
    EXPECT_NE(ScheduleDigest(w, 7, 0.5), ScheduleDigest(w, 8, 0.5))
        << WorkloadName(w);
  }
}

TEST(PlanTest, SessionIsPureFunctionOfItsKey) {
  const SessionPlan a = MakeSession(Workload::kSinkhole, 3, Phase::kOpen, 42);
  const SessionPlan b = MakeSession(Workload::kSinkhole, 3, Phase::kOpen, 42);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.client, b.client);
  EXPECT_EQ(a.rcpts, b.rcpts);
  EXPECT_EQ(a.body_first_line, b.body_first_line);
  EXPECT_NE(a.key, MakeSession(Workload::kSinkhole, 3, Phase::kClosed, 42).key);
}

TEST(PlanTest, ClassSharesMatchTheMix) {
  const std::map<Workload, std::vector<double>> want = {
      {Workload::kSinkhole, {0.10, 0.80, 0.10}},
      {Workload::kSinkholeWarm, {0.10, 0.80, 0.10}},
      {Workload::kDepartment, {0.60, 0.30, 0.10}},
      {Workload::kBulk, {1.0, 0.0, 0.0}}};
  constexpr int kSessions = 20000;
  for (const auto& [w, shares] : want) {
    std::vector<int> counts(3);
    for (int i = 0; i < kSessions; ++i) {
      ++counts[static_cast<int>(MakeSession(w, 11, Phase::kClosed, i).kind)];
    }
    for (int k = 0; k < 3; ++k) {
      EXPECT_NEAR(static_cast<double>(counts[k]) / kSessions, shares[k], 0.015)
          << WorkloadName(w) << " " << KindName(static_cast<Kind>(k));
    }
  }
}

TEST(PlanTest, ValidRecipientsAreDistinctAndHamHasOne) {
  for (const Workload w : kAll) {
    for (int i = 0; i < 2000; ++i) {
      const SessionPlan p = MakeSession(w, 5, Phase::kOpen, i);
      std::vector<int> valid;
      for (const int r : p.rcpts) {
        if (r >= 0) valid.push_back(r);
      }
      std::sort(valid.begin(), valid.end());
      EXPECT_EQ(std::adjacent_find(valid.begin(), valid.end()), valid.end());
      if (p.kind == Kind::kHam) {
        EXPECT_EQ(valid.size(), p.rcpts.size());
      }
      if (p.kind == Kind::kBounce) {
        EXPECT_TRUE(valid.empty());
      }
    }
  }
}

TEST(PlanTest, SinkholeSpamFollowsTheSinkholeTrace) {
  // RCPT counts follow the trace's Figure 4 (mean ~7); botnet clients
  // come from its 8,832 /24s, never-seen ones from 127.128.0.0 upward.
  double rcpts = 0;
  int spam = 0;
  int fresh = 0;
  std::set<std::uint32_t> nets;
  for (int i = 0; i < 20000; ++i) {
    const SessionPlan p = MakeSession(Workload::kSinkhole, 3, Phase::kClosed, i);
    if (p.kind != Kind::kSpam) continue;
    ++spam;
    rcpts += static_cast<double>(p.rcpts.size());
    if (p.client.octet(1) >= 128) {
      ++fresh;
    } else {
      nets.insert(p.client.value() >> 8);
    }
  }
  EXPECT_NEAR(rcpts / spam, 7.0, 0.3);
  EXPECT_NEAR(static_cast<double>(fresh) / spam, 0.15, 0.02);
  EXPECT_GT(nets.size(), 500u);
  EXPECT_LE(nets.size(), 8832u);
}

TEST(PlanTest, WarmSinkholeHasNoNeverSeenPrefixes) {
  for (int i = 0; i < 5000; ++i) {
    const SessionPlan p = MakeSession(Workload::kSinkholeWarm, 3, Phase::kOpen, i);
    EXPECT_LT(p.client.octet(1), 128) << i;
  }
}

TEST(PlanTest, HamNeverSharesASpamOrListedPrefix) {
  // Reputation history is per /24: a ham sender inside a spam /24 would
  // inherit its score and fail for reasons the plan cannot see.
  for (const Workload w : kAll) {
    std::set<std::uint32_t> listed;
    ForEachListed(w, [&listed](sams::util::Ipv4 ip) { listed.insert(ip.value() >> 8); });
    std::set<std::uint32_t> ham;
    std::set<std::uint32_t> other;
    for (int i = 0; i < 20000; ++i) {
      const SessionPlan p = MakeSession(w, 2, Phase::kClosed, i);
      (p.kind == Kind::kHam ? ham : other).insert(p.client.value() >> 8);
    }
    for (const std::uint32_t net : ham) {
      EXPECT_EQ(other.count(net), 0u) << WorkloadName(w);
      EXPECT_EQ(listed.count(net), 0u) << WorkloadName(w);
    }
  }
}

TEST(PlanTest, OpenScheduleRateMatches) {
  const std::vector<double> due = OpenSchedule(Workload::kDepartment, 9, 5.0);
  const double expected = OpenRate(Workload::kDepartment) * 5.0;
  EXPECT_NEAR(static_cast<double>(due.size()), expected, 5 * std::sqrt(expected));
  EXPECT_TRUE(std::is_sorted(due.begin(), due.end()));
}

TEST(BodyTest, WireFormUnstuffsToTheDecodedBody) {
  const BodyPool pool(4);
  const std::string_view wire = pool.WireLines(0, 200);
  std::string decoded;
  std::istringstream lines{std::string(wire)};
  for (std::string line; std::getline(lines, line);) {
    if (!line.empty() && line[0] == '.') line.erase(0, 1);
    decoded += line + "\n";
  }
  EXPECT_EQ(decoded, std::string(pool.Lines(0, 200)));
  EXPECT_GT(wire.size(), pool.Lines(0, 200).size());  // some lines were stuffed
}

TEST(BodyTest, KeyRoundTripsAndBodyMatches) {
  const BodyPool pool(4);
  const SessionPlan p = MakeSession(Workload::kDepartment, 4, Phase::kOpen, 17);
  std::string body = BodyHeader(p.key);
  body += pool.Lines(p.body_first_line, p.body_lines);
  EXPECT_EQ(ParseBodyKey(body), p.key);
  EXPECT_EQ(body.size(), BodyBytes(p));
  EXPECT_TRUE(BodyMatches(pool, p, body));
  body[body.size() / 2] ^= 1;
  EXPECT_FALSE(BodyMatches(pool, p, body));
  EXPECT_FALSE(ParseBodyKey("Subject: hi\r\n").has_value());
}

TEST(StatsTest, PercentileInterpolatesBetweenRanks) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 50.5);
  EXPECT_DOUBLE_EQ(Percentile(v, 99), 99.01);
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 100.0);
  std::vector<double> one = {3.5};
  EXPECT_DOUBLE_EQ(Percentile(one, 99), 3.5);
  std::vector<double> none;
  EXPECT_TRUE(std::isnan(Percentile(none, 50)));
}

TEST(StatsTest, WindowedPercentileIsMedianOfWindows) {
  // Three windows of 1000 time-ordered samples: the middle one is a
  // burst ten times slower; the median of the windows' p50s ignores it.
  std::vector<TimedSample> samples;
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < 1000; ++i) {
      const double v = (w == 1 ? 10.0 : 1.0) * (1 + i % 10);
      samples.push_back({static_cast<std::int64_t>(w * 1000 + i), v});
    }
  }
  std::reverse(samples.begin(), samples.end());  // order comes from t_ns
  EXPECT_DOUBLE_EQ(WindowedPercentile(samples, 50, 50, 1000, 9), 5.5);
  // Median of the window p99s {10, 10, 100}: 10.
  EXPECT_DOUBLE_EQ(WindowedPercentile(samples, 99, 50, 1000, 9), 10.0);
  // Too few samples for two windows: one pooled window.
  std::vector<TimedSample> few(samples.begin(), samples.begin() + 1500);
  std::vector<double> pooled;
  for (const TimedSample& s : few) pooled.push_back(s.v);
  EXPECT_DOUBLE_EQ(WindowedPercentile(few, 99, 50, 1000, 9), Percentile(pooled, 99));
  EXPECT_TRUE(std::isnan(WindowedPercentile({}, 50, 50, 1000, 9)));
}

TEST(StatsTest, WindowedP99FollowsASlowdownOfMostWindows) {
  // Two of three windows are ten times slower: the median window's p99
  // is a slow one.
  std::vector<TimedSample> samples;
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < 1000; ++i) {
      const double v = (w == 0 ? 1.0 : 10.0) * (1 + i % 10);
      samples.push_back({static_cast<std::int64_t>(w * 1000 + i), v});
    }
  }
  EXPECT_DOUBLE_EQ(WindowedPercentile(samples, 99, 50, 1000, 9), 100.0);
}

TEST(StatsTest, MedianOfEvenCountAveragesTheMiddle) {
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({7}), 7.0);
}

TEST(StatsTest, RatioFallsBackOnEmptyBase) {
  EXPECT_DOUBLE_EQ(Ratio(3, 4), 0.75);
  EXPECT_DOUBLE_EQ(Ratio(3, 0), 0.0);
  EXPECT_DOUBLE_EQ(Ratio(0, 0, 1.0), 1.0);
}

TEST(StatsTest, SelfTimeSubtractsChildren) {
  // root [0,100) with children [10,20) and [30,50): self = 100 - 30.
  const std::vector<Span> spans = {{-1, 0, 100}, {0, 10, 20}, {0, 30, 50}};
  const std::vector<std::int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 70);
  EXPECT_EQ(self[1], 10);
  EXPECT_EQ(self[2], 20);
}

TEST(StatsTest, SelfTimeMergesOverlapAndClipsToParent) {
  // Children overlap ([10,40) and [30,60)) and one spills past the
  // parent's end ([90,120)): covered = [10,60) + [90,100) = 60.
  const std::vector<Span> spans = {
      {-1, 0, 100}, {0, 10, 40}, {0, 30, 60}, {0, 90, 120}, {1, 12, 14}};
  const std::vector<std::int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 40);
  EXPECT_EQ(self[1], 28);  // grandchild counts against its own parent only
}

class CheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Under the working directory (ctest runs in the build tree).
    dir_ = std::filesystem::current_path() /
           ("perfbench_check_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::filesystem::remove_all(dir_);
    auto store = sams::mfs::MakeMfsStore(dir_.string(), {});
    ASSERT_TRUE(store.ok());
    store_ = std::move(store).value();
  }
  void TearDown() override {
    store_.reset();
    std::filesystem::remove_all(dir_);
  }

  // Delivers session `i` of the department stream to its recipients and
  // records it as acked, unless `skip` (the planted loss).
  void Deliver(std::uint64_t i, bool skip = false) {
    const SessionPlan p = MakeSession(Workload::kDepartment, 1, Phase::kOpen, i);
    std::vector<int> boxes;
    std::vector<std::string> names;
    for (const int r : p.rcpts) {
      if (r < 0) continue;
      boxes.push_back(r);
      names.push_back(MailboxName(r));
    }
    if (boxes.empty()) return;
    acks_[p.key] = boxes;
    if (skip) return;
    const std::string body =
        BodyHeader(p.key) + std::string(pool_.Lines(p.body_first_line, p.body_lines));
    ASSERT_TRUE(
        store_->Deliver(sams::mfs::MailId::Generate(rng_), body, names).ok());
  }

  CheckReport Check() {
    return CheckStore(*store_, acks_, [this](std::uint64_t key, std::string_view body) {
      return BodyMatches(
          pool_, MakeSession(Workload::kDepartment, 1, KeyPhase(key), KeyIndex(key)),
          body);
    }, 2);
  }

  std::filesystem::path dir_;
  std::unique_ptr<sams::mfs::MailStore> store_;
  const BodyPool pool_{1};
  sams::util::Rng rng_{99};
  AckLog acks_;
};

TEST_F(CheckTest, CompleteStorePasses) {
  for (std::uint64_t i = 0; i < 40; ++i) Deliver(i);
  const CheckReport r = Check();
  EXPECT_TRUE(r.ok());
  EXPECT_GT(r.acked_mails, 10u);
  EXPECT_EQ(r.found, r.acked_deliveries);
}

TEST_F(CheckTest, PlantedMissingMailFailsTheCheck) {
  for (std::uint64_t i = 0; i < 40; ++i) Deliver(i, /*skip=*/i == 3);
  const CheckReport r = Check();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.missing, acks_[MakeKey(Phase::kOpen, 3)].size());
  EXPECT_EQ(r.corrupt, 0u);
}

TEST_F(CheckTest, CorruptedAndDuplicatedMailsFailTheCheck) {
  for (std::uint64_t i = 0; i < 10; ++i) Deliver(i);
  const SessionPlan p = MakeSession(Workload::kDepartment, 1, Phase::kOpen, 0);
  ASSERT_FALSE(p.rcpts.empty());
  // A second copy of an acked mail, bytes flipped, in its first mailbox.
  std::string body =
      BodyHeader(p.key) + std::string(pool_.Lines(p.body_first_line, p.body_lines));
  body.back() = 'X';
  const std::vector<std::string> box = {MailboxName(acks_.at(p.key).front())};
  ASSERT_TRUE(store_->Deliver(sams::mfs::MailId::Generate(rng_), body, box).ok());
  const CheckReport r = Check();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.duplicates, 1u);
}

TEST(AckLogTest, ParsesAndRejectsMalformedLines) {
  std::istringstream good("0100000000000005 3 7\n0100000000000006 1\n");
  AckLog acks;
  std::string error;
  ASSERT_TRUE(ParseAckLog(good, &acks, &error)) << error;
  EXPECT_EQ(acks.at(0x0100000000000005ULL), (std::vector<int>{3, 7}));
  for (const char* bad : {"zz 1\n", "01 99999\n", "01\n", "01 1\n01 2\n"}) {
    std::istringstream in(bad);
    AckLog parsed;
    EXPECT_FALSE(ParseAckLog(in, &parsed, &error)) << bad;
  }
}

}  // namespace
}  // namespace perfbench
