#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

namespace perfbench {

double Percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  if (frac == 0.0) return samples[lo];
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Ratio(double num, double den, double if_empty) {
  return den == 0.0 ? if_empty : num / den;
}

std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;  // end of the covered prefix
    for (auto [begin, end] : kids) {
      begin = std::max(begin, cursor);
      end = std::min(end, s.end_ns);
      if (end > begin) {
        covered += end - begin;
        cursor = end;
      }
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::string PercentileJson(std::vector<double>& samples) {
  char buf[160];
  if (samples.empty()) {
    std::snprintf(buf, sizeof(buf), "{\"p50\": null, \"p99\": null, \"n\": 0}");
  } else {
    const double p50 = Percentile(samples, 50.0);
    const double p99 = Percentile(samples, 99.0);
    std::snprintf(buf, sizeof(buf), "{\"p50\": %.6f, \"p99\": %.6f, \"n\": %zu}",
                  p50, p99, samples.size());
  }
  return buf;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

double Median(std::vector<double> values) {
  return Percentile(values, 50.0);
}

namespace {

std::size_t WindowCount(std::size_t n, std::size_t min_per_window,
                        int max_windows) {
  const std::size_t k = min_per_window == 0 ? 1 : n / min_per_window;
  return std::clamp<std::size_t>(k, 1, static_cast<std::size_t>(max_windows));
}

std::vector<double> PerWindowPercentiles(std::vector<TimedSample> samples,
                                         double p, std::size_t min_per_window,
                                         int max_windows) {
  std::stable_sort(samples.begin(), samples.end(),
                   [](const TimedSample& a, const TimedSample& b) {
                     return a.t_ns < b.t_ns;
                   });
  const std::size_t n = samples.size();
  const std::size_t k = n == 0 ? 0 : WindowCount(n, min_per_window, max_windows);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < k; ++w) {
    std::vector<double> values;
    for (std::size_t i = w * n / k; i < (w + 1) * n / k; ++i) {
      values.push_back(samples[i].v);
    }
    per_window.push_back(Percentile(values, p));
  }
  return per_window;
}

}  // namespace

double WindowedPercentile(std::vector<TimedSample> samples, double p,
                          double across, std::size_t min_per_window,
                          int max_windows) {
  std::vector<double> per_window =
      PerWindowPercentiles(std::move(samples), p, min_per_window, max_windows);
  return Percentile(per_window, across);
}

std::string WindowedPercentileJson(const std::vector<TimedSample>& samples,
                                   std::size_t min_per_window, int max_windows) {
  char buf[200];
  if (samples.empty()) {
    std::snprintf(buf, sizeof(buf),
                  "{\"p50\": null, \"p99\": null, \"n\": 0, \"windows\": 0, "
                  "\"p99_all\": null}");
  } else {
    std::vector<double> pooled;
    for (const TimedSample& s : samples) pooled.push_back(s.v);
    std::snprintf(
        buf, sizeof(buf),
        "{\"p50\": %.6f, \"p99\": %.6f, \"n\": %zu, \"windows\": %zu, "
        "\"p99_all\": %.6f",
        WindowedPercentile(samples, 50.0, 50.0, min_per_window, max_windows),
        WindowedPercentile(samples, 99.0, 50.0, min_per_window, max_windows),
        samples.size(), WindowCount(samples.size(), min_per_window, max_windows),
        Percentile(pooled, 99.0));
  }
  std::string out = buf;
  if (samples.empty()) return out;
  out += ", \"p99_by_window\": [";
  const char* sep = "";
  for (const double v :
       PerWindowPercentiles(samples, 99.0, min_per_window, max_windows)) {
    out += sep + JsonNumber(v);
    sep = ", ";
  }
  return out + "]}";
}

}  // namespace perfbench
