// Lightweight statistics used by the analysis layer: running moments,
// percentiles, histograms and a chi-square uniformity test (used to validate
// the fuzzer's byte distribution, Figs 4/5 of the paper).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

namespace acf::util {

/// Welford online mean/variance accumulator.  Numerically stable; O(1) space.
class RunningStats {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double sum() const noexcept { return sum_; }

  /// Merges another accumulator (parallel Welford combine).
  void merge(const RunningStats& other) noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Linear-interpolated percentile of an unsorted sample, p in [0,1].
/// Copies and sorts; intended for end-of-campaign reporting, not hot paths.
double percentile(std::span<const double> sample, double p);

/// Sample median (percentile 0.5): robust location for the heavy-tailed
/// geometric time-to-unlock distributions where a 12-sample mean wanders.
double median(std::span<const double> sample);

/// In-place percentile: selects with nth_element instead of copying and
/// fully sorting — O(n) expected, no allocation.  Reorders `sample`; use on
/// hot aggregation paths where the sample buffer is owned and disposable.
/// Same interpolation as percentile(), so results are identical.
double percentile_in_place(std::span<double> sample, double p);

/// In-place median (percentile_in_place at 0.5).
double median_in_place(std::span<double> sample);

/// Closed interval, e.g. a confidence interval around a mean.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;
  double width() const noexcept { return hi - lo; }
  double half_width() const noexcept { return width() / 2.0; }
};

/// Two-sided 95% confidence interval for the mean of the accumulated
/// sample: mean ± t(n-1, 0.975) · s/√n, with the exact Student-t quantile
/// for small n and the normal 1.96 beyond the table.  Degenerates to
/// {mean, mean} for fewer than two samples.
Interval confidence_interval_95(const RunningStats& stats);

/// Convenience overload: accumulates the span in O(n) with no copy, then
/// applies the Student-t interval above.
Interval confidence_interval_95(std::span<const double> sample);

/// Wilson score 95% interval for a binomial proportion of `successes` out
/// of `trials`.  Unlike the Wald/Student-t interval it stays inside [0,1]
/// and keeps coverage near p = 0 and p = 1 — exactly the regime of
/// detection rates (a detector catching 0/20 or 20/20 trials must not get a
/// degenerate zero-width interval).  Returns {0,1} for zero trials.
Interval wilson_interval_95(std::size_t successes, std::size_t trials);

/// Pearson chi-square statistic for observed counts against a uniform
/// expectation.  Returns the statistic; dof = counts.size() - 1.
double chi_square_uniform(std::span<const std::uint64_t> counts);

/// True if a chi-square statistic is below the critical value at roughly the
/// given significance for the dof.  Supports alpha = 0.01 and 0.001 via the
/// Wilson-Hilferty approximation (adequate for dof >= 10 as used here).
bool chi_square_accepts_uniform(double statistic, std::size_t dof, double alpha = 0.001);

}  // namespace acf::util
