// Percentile, ratio and span arithmetic shared by the generator, the
// server-side stage summary and the layer replays.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Linear interpolation between closest ranks (numpy's default), p in
// [0, 100]. Sorts `samples` in place. NaN when empty.
double Percentile(std::vector<double>& samples, double p);

// num / den, or `if_empty` when den is 0.
double Ratio(double num, double den, double if_empty = 0.0);

// One timed interval on the client; `parent` indexes the enclosing span
// in the same vector (-1 for the session root).
struct Span {
  int parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// Each span's duration minus the part of it its direct children cover
// (overlapping children are merged, so shared time is subtracted once).
std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans);

// {"p50": .., "p99": .., "n": ..} for the samples (ms or us, as given).
std::string PercentileJson(std::vector<double>& samples);

// `v` with all its digits for a JSON document; null when not finite.
std::string JsonNumber(double v);

// Median (mean of the middle two for an even count); NaN when empty.
double Median(std::vector<double> values);

// A sample stamped with when it was due, so a run can be cut into
// consecutive time windows.
struct TimedSample {
  std::int64_t t_ns = 0;
  double v = 0.0;
};

// Cuts the time-ordered samples into k = clamp(n / min_per_window, 1,
// max_windows) consecutive windows of equal count, takes percentile p
// of each, and returns percentile `across` of those k values (50: their
// median). A noisy stretch of a run (a disk stall, a neighbour's burst)
// then moves the result less than it moves a percentile over the pooled
// samples. Each window keeps at least min_per_window samples, so with
// 1000 at least ten lie beyond its p99.
double WindowedPercentile(std::vector<TimedSample> samples, double p,
                          double across, std::size_t min_per_window,
                          int max_windows);

// {"p50", "p99", "n", "windows", "p99_all", "p99_by_window"}: p50 and
// p99 are the medians of the window p50s and p99s, so a stall that
// slows half the windows or more moves them. p99_all is the pooled p99,
// used for the harness-bound check.
std::string WindowedPercentileJson(const std::vector<TimedSample>& samples,
                                   std::size_t min_per_window, int max_windows);

}  // namespace perfbench
