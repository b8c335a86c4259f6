#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace acf::util {

void RunningStats::add(double x) noexcept {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double percentile(std::span<const double> sample, double p) {
  if (sample.empty()) return 0.0;
  std::vector<double> sorted(sample.begin(), sample.end());
  std::sort(sorted.begin(), sorted.end());
  p = std::clamp(p, 0.0, 1.0);
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double median(std::span<const double> sample) { return percentile(sample, 0.5); }

double percentile_in_place(std::span<double> sample, double p) {
  if (sample.empty()) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const double rank = p * static_cast<double>(sample.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  const auto nth = sample.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(sample.begin(), nth, sample.end());
  const double lo_value = sample[lo];
  if (frac == 0.0 || lo + 1 >= sample.size()) return lo_value;
  // After nth_element the tail holds everything >= the lo-th order
  // statistic, so the (lo+1)-th is the tail's minimum — no second select.
  const double hi_value = *std::min_element(nth + 1, sample.end());
  return lo_value * (1.0 - frac) + hi_value * frac;
}

double median_in_place(std::span<double> sample) {
  return percentile_in_place(sample, 0.5);
}

Interval confidence_interval_95(const RunningStats& stats) {
  const double mean = stats.mean();
  if (stats.count() < 2) return {mean, mean};
  // Two-sided 97.5% Student-t quantiles by degrees of freedom 1..30, then
  // coarser breakpoints converging on the normal 1.96.
  static constexpr double kT975[] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  const std::size_t dof = stats.count() - 1;
  double t;
  if (dof <= 30) {
    t = kT975[dof - 1];
  } else if (dof <= 40) {
    t = 2.021;
  } else if (dof <= 60) {
    t = 2.000;
  } else if (dof <= 120) {
    t = 1.980;
  } else {
    t = 1.960;
  }
  const double half = t * stats.stddev() / std::sqrt(static_cast<double>(stats.count()));
  return {mean - half, mean + half};
}

Interval confidence_interval_95(std::span<const double> sample) {
  RunningStats stats;
  for (const double x : sample) stats.add(x);
  return confidence_interval_95(stats);
}

Interval wilson_interval_95(std::size_t successes, std::size_t trials) {
  if (trials == 0) return {0.0, 1.0};
  constexpr double z = 1.959964;  // normal 97.5% quantile
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(std::min(successes, trials)) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half = z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  return {std::max(0.0, center - half), std::min(1.0, center + half)};
}

double chi_square_uniform(std::span<const std::uint64_t> counts) {
  if (counts.empty()) return 0.0;
  std::uint64_t total = 0;
  for (auto c : counts) total += c;
  if (total == 0) return 0.0;
  const double expected = static_cast<double>(total) / static_cast<double>(counts.size());
  double stat = 0.0;
  for (auto c : counts) {
    const double diff = static_cast<double>(c) - expected;
    stat += diff * diff / expected;
  }
  return stat;
}

bool chi_square_accepts_uniform(double statistic, std::size_t dof, double alpha) {
  if (dof == 0) return true;
  // Wilson-Hilferty: chi2_crit ~ dof * (1 - 2/(9 dof) + z * sqrt(2/(9 dof)))^3.
  const double z = (alpha <= 0.001) ? 3.090 : (alpha <= 0.01 ? 2.326 : 1.645);
  const double k = static_cast<double>(dof);
  const double term = 1.0 - 2.0 / (9.0 * k) + z * std::sqrt(2.0 / (9.0 * k));
  const double critical = k * term * term * term;
  return statistic <= critical;
}

}  // namespace acf::util
