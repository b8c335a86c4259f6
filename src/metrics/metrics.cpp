#include "metrics/metrics.hpp"

#include <algorithm>
#include <cmath>

namespace acf::metrics {

namespace {

/// Counters named `*_max` carry bump_to (high-watermark) semantics: merging
/// across registries takes the max, not the sum, so a fleet-wide watermark
/// equals the largest single process's — same answer as one registry seeing
/// every bump_to.
bool is_watermark(std::string_view name) {
  return name.size() >= 4 && name.substr(name.size() - 4) == "_max";
}

}  // namespace

// -------------------------------------------------------------- meter -----

void Meter::tick_to(double now_seconds) {
  if (!primed_) {
    started_ = now_seconds;
    last_tick_ = now_seconds;
    now_ = now_seconds;
    primed_ = true;
    return;
  }
  if (now_seconds < now_) return;  // clock must not run backwards
  now_ = now_seconds;
  while (last_tick_ + kTickSeconds <= now_) {
    const std::uint64_t counted = count_.load(std::memory_order_relaxed);
    const double instant =
        static_cast<double>(counted - last_counted_) / kTickSeconds;
    last_counted_ = counted;
    last_tick_ += kTickSeconds;
    const auto fold = [instant](double& rate, double tau) {
      const double alpha = 1.0 - std::exp(-kTickSeconds / tau);
      rate += alpha * (instant - rate);
    };
    fold(m1_, 60.0);
    fold(m5_, 300.0);
    fold(m15_, 900.0);
  }
}

double Meter::mean_rate() const noexcept {
  if (!primed_ || now_ <= started_) return 0.0;
  return static_cast<double>(count_.load(std::memory_order_relaxed)) /
         (now_ - started_);
}

// -------------------------------------------------------------- timer -----

void Timer::record(double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  ckms_.insert(value);
}

std::uint64_t Timer::count() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return count_;
}

double Timer::sum() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return sum_;
}

double Timer::min() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return min_;
}

double Timer::max() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return max_;
}

double Timer::quantile(double q) {
  std::lock_guard<std::mutex> lock(mutex_);
  return ckms_.query(q);
}

std::vector<CkmsQuantiles::Sample> Timer::export_samples() {
  std::lock_guard<std::mutex> lock(mutex_);
  return ckms_.export_samples();
}

void Timer::absorb(std::span<const CkmsQuantiles::Sample> samples,
                   std::uint64_t count, double sum, double min, double max) {
  if (count == 0 || samples.empty()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (count_ == 0) {
    min_ = min;
    max_ = max;
  } else {
    min_ = std::min(min_, min);
    max_ = std::max(max_, max);
  }
  count_ += count;
  sum_ += sum;
  ckms_.absorb(samples, count);
}

// ----------------------------------------------------------- registry -----

namespace {

template <typename Map>
auto& get_or_create(Map& map, std::mutex& mutex, std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex);
  auto it = map.find(name);
  if (it == map.end()) {
    using Instrument = typename Map::mapped_type::element_type;
    it = map.emplace(std::string(name), std::make_unique<Instrument>()).first;
  }
  return *it->second;
}

}  // namespace

Counter& Registry::counter(std::string_view name) {
  return get_or_create(counters_, mutex_, name);
}

Gauge& Registry::gauge(std::string_view name) {
  return get_or_create(gauges_, mutex_, name);
}

Meter& Registry::meter(std::string_view name) {
  return get_or_create(meters_, mutex_, name);
}

Timer& Registry::timer(std::string_view name) {
  return get_or_create(timers_, mutex_, name);
}

RegistrySnapshot Registry::snapshot() {
  std::lock_guard<std::mutex> lock(mutex_);
  RegistrySnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.push_back({name, counter->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.push_back({name, gauge->value()});
  }
  snap.meters.reserve(meters_.size());
  for (const auto& [name, meter] : meters_) {
    snap.meters.push_back({name, meter->count(), meter->rate1(), meter->rate5(),
                           meter->rate15(), meter->mean_rate()});
  }
  snap.timers.reserve(timers_.size());
  for (const auto& [name, timer] : timers_) {
    TimerSnap t;
    t.name = name;
    t.count = timer->count();
    t.sum = timer->sum();
    t.min = timer->min();
    t.max = timer->max();
    t.p50 = timer->quantile(0.50);
    t.p90 = timer->quantile(0.90);
    t.p99 = timer->quantile(0.99);
    t.p999 = timer->quantile(0.999);
    t.samples = timer->export_samples();
    snap.timers.push_back(std::move(t));
  }
  return snap;
}

void Registry::absorb(const RegistrySnapshot& snap) {
  for (const CounterSnap& c : snap.counters) {
    if (is_watermark(c.name)) {
      counter(c.name).bump_to(c.value);
    } else {
      counter(c.name).add(c.value);
    }
  }
  for (const GaugeSnap& g : snap.gauges) gauge(g.name).add(g.value);
  for (const TimerSnap& t : snap.timers) {
    timer(t.name).absorb(t.samples, t.count, t.sum, t.min, t.max);
  }
  // Meters are intentionally skipped: EWMA rates from different clocks do
  // not compose; the merged view recomputes nothing for them.
}

}  // namespace acf::metrics
