#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>
#include <utility>

#include "util/json.hpp"

namespace perfbench {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------------ spans --

std::int64_t self_time_ns(const Span& span, std::span<const Span> children) {
  std::vector<std::pair<std::int64_t, std::int64_t>> covered;
  covered.reserve(children.size());
  for (const Span& child : children) {
    const std::int64_t lo = std::max(child.start_ns, span.start_ns);
    const std::int64_t hi = std::min(child.end_ns, span.end_ns);
    if (hi > lo) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  std::int64_t union_ns = 0;
  std::int64_t run_lo = 0;
  std::int64_t run_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : covered) {
    if (open && lo <= run_hi) {
      run_hi = std::max(run_hi, hi);
      continue;
    }
    if (open) union_ns += run_hi - run_lo;
    run_lo = lo;
    run_hi = hi;
    open = true;
  }
  if (open) union_ns += run_hi - run_lo;
  return span.duration_ns() - union_ns;
}

std::int64_t SpanLog::add(Span span) {
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::write_jsonl(std::ostream& out) const {
  // Self times in one pass: children grouped by parent.
  std::map<std::int64_t, std::vector<Span>> children;
  for (const Span& span : spans_) {
    if (span.parent >= 0) children[span.parent].push_back(span);
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const auto it = children.find(static_cast<std::int64_t>(i));
    const std::int64_t self =
        it == children.end() ? span.duration_ns()
                             : self_time_ns(span, it->second);
    out << "{\"id\":" << i << ",\"name\":\"" << acf::util::json_escape(span.name)
        << "\",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << ",\"self_ns\":" << self << ",\"parent\":" << span.parent
        << ",\"trial\":" << span.trial << ",\"thread\":" << span.thread << "}\n";
  }
}

ScopedSpan::ScopedSpan(SpanLog* log, std::string name, std::int64_t parent) : log_(log) {
  if (log_ == nullptr) return;
  Span span;
  span.name = std::move(name);
  span.start_ns = now_ns();
  span.parent = parent;
  index_ = log_->add(std::move(span));
}

ScopedSpan::~ScopedSpan() {
  if (log_ != nullptr) log_->close(index_);
}

// ------------------------------------------------------------ percentiles --

namespace {

/// 1-based nearest rank of the p-th percentile among n > 0 samples.  The
/// epsilon keeps binary rounding of p/100·n (99.9 % of 10000 is not exactly
/// 9990 in floating point) from bumping an exact rank up by one.
std::size_t nearest_rank(std::size_t n, double p) noexcept {
  const double exact = p / 100.0 * static_cast<double>(n);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::ceil(exact - 1e-9)), 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t rank = nearest_rank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double p) noexcept {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

std::optional<double> tail_percentile(std::size_t n) noexcept {
  static constexpr double kLadder[] = {99.9, 99.0, 90.0, 50.0};
  for (const double p : kLadder) {
    if (samples_beyond(n, p) >= 10) return p;
  }
  return std::nullopt;
}

// ----------------------------------------------------------------- digest --

std::uint64_t digest_of(std::string_view bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string digest_hex(std::uint64_t digest) {
  char buffer[19];
  std::snprintf(buffer, sizeof buffer, "0x%016llx", static_cast<unsigned long long>(digest));
  return buffer;
}

bool digest_gate(const std::optional<std::string>& expected, std::uint64_t actual) {
  return !expected || *expected == digest_hex(actual);
}

// ----------------------------------------------------------- trial timing --

namespace {

/// Forwards to the wrapped world and stamps run and destruction into the
/// trial's slot.
class TimedWorld final : public acf::fleet::World {
 public:
  TimedWorld(std::unique_ptr<acf::fleet::World> inner, TrialTiming& slot)
      : inner_(std::move(inner)), slot_(slot) {}
  TimedWorld(const TimedWorld&) = delete;
  TimedWorld& operator=(const TimedWorld&) = delete;

  ~TimedWorld() override {
    slot_.teardown_start = now_ns();
    inner_.reset();
    slot_.teardown_end = now_ns();
  }

  acf::fuzzer::CampaignResult run() override {
    slot_.run_start = now_ns();
    acf::fuzzer::CampaignResult result = inner_->run();
    slot_.run_end = now_ns();
    return result;
  }

 private:
  std::unique_ptr<acf::fleet::World> inner_;
  TrialTiming& slot_;
};

}  // namespace

acf::fleet::WorldFactory timed_factory(acf::fleet::WorldFactory inner,
                                       std::vector<TrialTiming>& timings) {
  return [inner = std::move(inner), &timings](const acf::fleet::TrialSpec& spec)
             -> std::unique_ptr<acf::fleet::World> {
    TrialTiming& slot = timings.at(spec.trial_index);
    slot.thread = std::this_thread::get_id();
    slot.build_start = now_ns();
    std::unique_ptr<acf::fleet::World> world = inner(spec);
    slot.build_end = now_ns();
    if (!world) return world;
    return std::make_unique<TimedWorld>(std::move(world), slot);
  };
}

PoolAccounting account_pool(std::span<const TrialTiming> timings, unsigned threads,
                            std::int64_t pool_start, std::int64_t pool_end) {
  std::map<std::thread::id, std::vector<const TrialTiming*>> by_thread;
  for (const TrialTiming& timing : timings) {
    if (timing.recorded()) by_thread[timing.thread].push_back(&timing);
  }
  PoolAccounting accounting;
  const double wall = static_cast<double>(pool_end - pool_start);
  accounting.capacity_ns = wall * threads;
  for (auto& [thread, trials] : by_thread) {
    std::sort(trials.begin(), trials.end(), [](const TrialTiming* a, const TrialTiming* b) {
      return a->build_start < b->build_start;
    });
    for (const TrialTiming* t : trials) {
      accounting.busy_ns += static_cast<double>((t->build_end - t->build_start) +
                                                (t->run_end - t->run_start) +
                                                (t->teardown_end - t->teardown_start));
    }
    std::int64_t last_end = trials.front()->teardown_end;
    for (const TrialTiming* t : trials) last_end = std::max(last_end, t->teardown_end);
    accounting.idle_ns += static_cast<double>(trials.front()->build_start - pool_start) +
                          static_cast<double>(pool_end - last_end);
  }
  if (by_thread.size() < threads) {
    accounting.idle_ns += wall * static_cast<double>(threads - by_thread.size());
  }
  return accounting;
}

bool pool_accounted(const PoolAccounting& pool) noexcept {
  return std::abs(pool.accounted_frac() - 1.0) <= 0.05;
}

}  // namespace perfbench
