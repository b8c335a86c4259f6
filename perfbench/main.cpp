// acf_perfbench: runs one workload of the campaign benchmark and prints its
// metrics.  perfbench/run.py builds this binary, times set-up from outside
// the process and prints the result line; see README.md.
//
//   acf_perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]
//                 [--expect-digest HEX] [--trace-out PATH]
//   acf_perfbench --workload NAME --seed N --setup-probe
//   acf_perfbench --workload NAME --seed N --digest-only
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics, plus the run's digest and build provenance.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "attacks/attack_world.hpp"
#include "harness.hpp"
#include "probes.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_given = false;
  double seconds = 10.0;
  int trace = 0;
  std::optional<std::string> expect_digest;
  std::string trace_out;
  bool setup_probe = false;
  bool digest_only = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "acf_perfbench: %s\n"
               "usage: acf_perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]\n"
               "                     [--expect-digest HEX] [--trace-out PATH]\n"
               "                     [--setup-probe | --digest-only]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const char* text, const char* flag) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 0);
  if (end == text || *end != '\0' || text[0] == '-') {
    usage(std::string("bad value for ") + flag + ": " + text);
  }
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = parse_u64(value(), "--seed");
      args.seed_given = true;
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parse_u64(value(), "--seconds"));
    } else if (flag == "--trace") {
      const std::uint64_t trace = parse_u64(value(), "--trace");
      if (trace > 1) usage("--trace takes 0 or 1");
      args.trace = static_cast<int>(trace);
    } else if (flag == "--expect-digest") {
      args.expect_digest = value();
    } else if (flag == "--trace-out") {
      args.trace_out = value();
    } else if (flag == "--setup-probe") {
      args.setup_probe = true;
    } else if (flag == "--digest-only") {
      args.digest_only = true;
    } else {
      usage("unknown argument " + flag);
    }
  }
  const std::vector<std::string>& names = workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    usage("unknown workload '" + args.workload + "'");
  }
  if (!args.seed_given) usage("--seed is required");
  if (args.seconds < 1) usage("--seconds must be at least 1");
  return args;
}

/// Non-null when this binary must not report numbers.
const char* build_refusal() {
#if !defined(__OPTIMIZE__)
  return "unoptimised build";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
  return "sanitizer build";
#endif
#endif
  return nullptr;
}

/// The process's resident-set high-water mark (VmHWM).  getrusage's
/// ru_maxrss would also count the spawning process's image from before exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Frames the workload's worlds put on their buses.  Feedback worlds do not
/// publish bus totals; their unit of traffic is the frame an execution
/// sends.
double frames_of(const Workload& workload, const Round& round) {
  return static_cast<double>(workload.kind() == WorkloadKind::kFeedback
                                 ? round.counter("feedback.frames_sent")
                                 : round.counter("can.bus.frames_delivered"));
}

/// Feedback counts executions (one fresh world each); on the other
/// workloads each trial is one execution of its world.
double executions_of(const Workload& workload, const Round& round) {
  return workload.kind() == WorkloadKind::kFeedback
             ? static_cast<double>(round.counter("feedback.executions"))
             : static_cast<double>(round.outcomes.size());
}

/// What the metrics need from one round, kept instead of the round so the
/// benchmark's own memory does not grow with the number of rounds.
struct RoundSummary {
  double seconds = 0.0;  // pool, aggregation, eval merge, export and digest
  double trials = 0.0;
  double frames = 0.0;
  double executions = 0.0;
  double report_ms = 0.0;
};

/// One time per trial and round, in memory sized and written before the
/// first round, so the benchmark's own memory does not grow with the number
/// of rounds and peak_rss_mb measures the program.  Rounds past kMaxRounds
/// add no samples.
class TrialSamples {
 public:
  static constexpr std::size_t kMaxRounds = 256;

  explicit TrialSamples(std::size_t trials) : trials_(trials), ns_(trials * kMaxRounds, 0.0f) {}

  void add(std::size_t round, std::size_t trial, std::int64_t ns) {
    if (round < kMaxRounds) ns_[round * trials_ + trial] = static_cast<float>(ns);
  }

  /// Per trial, the tenth percentile of its samples, divided by `scale`.
  std::vector<double> tenth_percentiles(double scale) const {
    std::vector<double> out;
    std::vector<double> column;
    for (std::size_t trial = 0; trial < trials_; ++trial) {
      column.clear();
      for (std::size_t at = trial; at < ns_.size(); at += trials_) {
        if (ns_[at] > 0.0f) column.push_back(ns_[at]);
      }
      if (!column.empty()) out.push_back(percentile(column, 10.0) / scale);
    }
    return out;
  }

 private:
  std::size_t trials_;
  std::vector<float> ns_;  // [round][trial]; 0 = not recorded
};

/// Rounds of one workload run back to back.
///
/// Every round runs the same plan and reproduces the same digest, so rounds
/// differ only in what the host did meanwhile.  On a shared machine that
/// interference only ever slows a round, it differs between CPUs, and its
/// level drifts over seconds to minutes.  So rounds rotate over the CPUs,
/// rates come from the fastest tenth of the rounds, and a trial's times are
/// the tenth percentile of its repetitions: these measured the program
/// rather than its neighbours.  Both are quantiles, not minima, so faster
/// code, which fits more rounds into a run, does not also draw a lower
/// extreme from more samples.
class Phase {
 public:
  /// `spans`: also keep each trial's build, run and teardown times.
  Phase(const Workload& workload, bool spans)
      : workload_(workload),
        spans_(spans),
        wall_(workload.plan().trial_count()),
        build_(spans ? workload.plan().trial_count() : 0),
        run_(spans ? workload.plan().trial_count() : 0),
        teardown_(spans ? workload.plan().trial_count() : 0) {}

  void add(const Round& round) {
    const std::size_t index = rounds_.size();
    trials_ += round.outcomes.size();
    failed_ += round.failed_trials();
    wall_ns_ += round.wall_ns();
    rounds_.push_back({static_cast<double>(round.wall_ns()) / 1e9,
                       static_cast<double>(round.outcomes.size()), frames_of(workload_, round),
                       executions_of(workload_, round),
                       static_cast<double>(round.report_ns) / 1e6});
    for (std::size_t i = 0; i < round.timings.size(); ++i) {
      const TrialTiming& t = round.timings[i];
      if (!t.recorded()) continue;
      wall_.add(index, i, t.wall_ns());
      if (!spans_) continue;
      build_.add(index, i, t.build_end - t.build_start);
      run_.add(index, i, t.run_end - t.run_start);
      teardown_.add(index, i, t.teardown_end - t.teardown_start);
    }
    for (const acf::metrics::CounterSnap& snap : round.registry.counters) {
      counters_[snap.name] += snap.value;
    }
    const PoolAccounting pool =
        account_pool(round.timings, round.threads, round.pool_start_ns, round.pool_end_ns);
    pool_.busy_ns += pool.busy_ns;
    pool_.idle_ns += pool.idle_ns;
    pool_.capacity_ns += pool.capacity_ns;
  }

  std::size_t rounds() const noexcept { return rounds_.size(); }
  std::size_t trials() const noexcept { return trials_; }
  std::size_t failed_trials() const noexcept { return failed_; }
  double seconds() const noexcept { return static_cast<double>(wall_ns_) / 1e9; }
  const PoolAccounting& pool() const noexcept { return pool_; }

  /// Σ amount / Σ seconds over the fastest tenth of the rounds.
  double rate(double RoundSummary::*amount) const {
    std::vector<RoundSummary> kept = rounds_;
    std::sort(kept.begin(), kept.end(), [](const RoundSummary& a, const RoundSummary& b) {
      return a.seconds < b.seconds;
    });
    kept.resize((kept.size() + 9) / 10);
    double total = 0.0;
    double seconds = 0.0;
    for (const RoundSummary& round : kept) {
      total += round.*amount;
      seconds += round.seconds;
    }
    return ratio(total, seconds);
  }
  /// Median over all rounds of amount per second, for comparison.
  double median_rate(double RoundSummary::*amount) const {
    std::vector<double> rates;
    for (const RoundSummary& round : rounds_) rates.push_back(ratio(round.*amount, round.seconds));
    return median(rates);
  }
  double median_report_ms() const {
    std::vector<double> values;
    for (const RoundSummary& round : rounds_) values.push_back(round.report_ms);
    return median(values);
  }

  /// Per trial of the plan, the tenth percentile of its repetitions.
  std::vector<double> trial_walls_ms() const { return wall_.tenth_percentiles(1e6); }
  std::vector<double> builds_us() const { return build_.tenth_percentiles(1e3); }
  std::vector<double> runs_ms() const { return run_.tenth_percentiles(1e6); }
  std::vector<double> teardowns_us() const { return teardown_.tenth_percentiles(1e3); }

  /// Registry counter summed over the rounds (0 when never published).
  double counter(std::string_view name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : static_cast<double>(it->second);
  }

 private:
  const Workload& workload_;
  bool spans_;
  std::vector<RoundSummary> rounds_;
  std::size_t trials_ = 0;
  std::size_t failed_ = 0;
  std::int64_t wall_ns_ = 0;
  TrialSamples wall_;
  TrialSamples build_;
  TrialSamples run_;
  TrialSamples teardown_;
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  PoolAccounting pool_;
};

/// The output gate.  Every round must reproduce the digest of the run's
/// first round and, when digests.json records this workload and seed, the
/// recorded one; on the IDS workloads its identities must hold; and no trial
/// may fail.  After the timed rounds a reference round on another thread
/// count must reproduce the digest too, since thread count must not change
/// outputs.
struct OutputCheck {
  std::optional<std::string> recorded;
  std::optional<std::uint64_t> first;
  bool ok = true;
  std::string error;

  void check(const Round& round) {
    if (!ok) return;
    if (!first) first = round.digest;
    if (round.digest != *first) {
      fail("digest " + digest_hex(round.digest) + " differs from the run's first round's " +
           digest_hex(*first));
    } else if (!digest_gate(recorded, round.digest)) {
      fail("digest " + digest_hex(round.digest) + " differs from the recorded " + *recorded);
    } else if (!round.identities_ok) {
      fail("IDS identities fail: " + round.identity_error);
    } else if (round.failed_trials() > 0) {
      fail(std::to_string(round.failed_trials()) + " trials failed or were skipped");
    }
  }

  /// Records the first failure; later ones add nothing.
  void fail(std::string why) {
    if (!ok) return;
    ok = false;
    error = std::move(why);
  }
};

/// Pins the calling thread, and so the pool threads it starts (they inherit
/// its mask), to a window of `width` allowed CPUs that moves by one CPU per
/// round; restores the original mask when destroyed.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (::sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (std::size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) ::sched_setaffinity(0, sizeof original_, &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// False when every allowed CPU would be in the window anyway.
  bool rotates(std::size_t width) const noexcept { return width < cpus_.size(); }

  void pin(std::size_t round, std::size_t width) const {
    if (!rotates(width)) return;
    cpu_set_t window;
    CPU_ZERO(&window);
    for (std::size_t k = 0; k < width; ++k) CPU_SET(cpus_[(round + k) % cpus_.size()], &window);
    ::sched_setaffinity(0, sizeof window, &window);
  }

 private:
  cpu_set_t original_;
  std::vector<std::size_t> cpus_;
};

/// Runs whole rounds until `seconds` of wall time are spent, and at least
/// ten, so the fastest tenth holds a round.  Rounds rotate over windows of
/// as many CPUs as the workload has pool threads.
Phase run_phase(const Workload& workload, double seconds, OutputCheck& check, SpanLog* log) {
  constexpr std::size_t kMinRounds = 10;
  Phase phase(workload, /*spans=*/log != nullptr);
  const CpuRotation rotation;
  while (phase.seconds() < seconds || phase.rounds() < kMinRounds) {
    rotation.pin(phase.rounds(), workload.threads());
    const Round round = workload.run_round(workload.threads(), log);
    check.check(round);
    phase.add(round);
  }
  return phase;
}

std::vector<Metric> end_to_end_metrics(const Phase& phase) {
  const std::vector<double> walls = phase.trial_walls_ms();
  return {
      {"trials_per_s", phase.rate(&RoundSummary::trials), "1/s"},
      {"frames_per_s", phase.rate(&RoundSummary::frames), "1/s"},
      {"execs_per_s", phase.rate(&RoundSummary::executions), "1/s"},
      {"trial_wall_p50_ms", percentile(walls, 50.0), "ms"},
      {"trial_wall_p90_ms", percentile(walls, 90.0), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> per_layer_metrics(const Workload& workload, const Phase& untraced,
                                      const Phase& traced) {
  const auto count = [&traced](std::string_view name) { return traced.counter(name); };
  const double trials = static_cast<double>(traced.trials());
  const double bus_frames = count("can.bus.frames_delivered");
  const double alerts = count("ids.pipeline.alerts_raised") + count("ids.pipeline.alerts_suppressed");
  const double executions = count("feedback.executions");
  const PoolAccounting& pool = traced.pool();

  std::vector<Metric> out = {
      {"fleet.build_us_p50", median(traced.builds_us()), "us"},
      {"fleet.run_ms_p50", median(traced.runs_ms()), "ms"},
      {"fleet.teardown_us_p50", median(traced.teardowns_us()), "us"},
      {"fleet.idle_frac", ratio(pool.idle_ns, pool.capacity_ns), "ratio"},
      {"fleet.accounted_frac", pool.accounted_frac(), "ratio"},
      {"fleet.report_ms", traced.median_report_ms(), "ms"},
      {"fleet.trial_errors", count("fleet.trial.errors"), "count"},
      {"sim.events_per_frame", ratio(count("sim.scheduler.events_executed"), bus_frames),
       "1/frame"},
      {"sim.action_heap_spills", ratio(count("sim.scheduler.action_heap_spills"), trials),
       "1/trial"},
      {"can.deliveries_per_frame", ratio(count("can.bus.deliveries"), bus_frames), "1/frame"},
      {"can.arbitration_contests", ratio(count("can.bus.arbitration_contests"), trials),
       "1/trial"},
      {"can.drops_queue_full", ratio(count("can.bus.drops_queue_full"), trials), "1/trial"},
      {"fuzzer.send_failure_ratio",
       ratio(count("fleet.trial.send_failures"),
             count("fleet.trial.frames_sent") + count("fleet.trial.send_failures")),
       "ratio"},
      {"ids.alert_suppressed_ratio", ratio(count("ids.pipeline.alerts_suppressed"), alerts),
       "ratio"},
      {"feedback.novel_ratio", ratio(count("feedback.novel_inputs"), executions), "ratio"},
      {"feedback.trim_ratio", ratio(count("feedback.trim_executions"), executions), "ratio"},
      {"feedback.frames_per_exec", ratio(count("feedback.frames_sent"), executions),
       "1/exec"},
      {"trace.trials_per_s", traced.rate(&RoundSummary::trials), "1/s"},
      {"trace.untraced_trials_per_s", untraced.rate(&RoundSummary::trials), "1/s"},
  };

  // Run time per attack family (median over its trials' tenth percentiles); zero
  // where the workload runs no attacks.
  const std::vector<acf::attacks::AttackArm> arms = acf::attacks::standard_attack_arms();
  std::map<std::string, std::vector<double>> family_run_ms;
  for (const acf::attacks::AttackArm& arm : arms) {
    family_run_ms[acf::attacks::to_string(arm.spec.family)];
  }
  if (workload.kind() == WorkloadKind::kAttackMatrix) {
    const std::vector<double> runs = traced.runs_ms();
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const std::size_t arm = workload.plan().spec(i).arm;
      family_run_ms[acf::attacks::to_string(arms.at(arm).spec.family)].push_back(runs[i]);
    }
  }
  for (auto& [family, samples] : family_run_ms) {
    out.push_back({"attacks.run_ms." + family, median(samples), "ms"});
  }
  return out;
}

std::string json_string(std::string_view text) {
  return "\"" + acf::util::json_escape(text) + "\"";
}

std::string provenance_json(const Workload& workload, const Args& args) {
  std::string out = "{";
  out += "\"compiler\":" + json_string(std::string(PERFBENCH_COMPILER) + " (" + __VERSION__ + ")");
  out += ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE);
  out += ",\"cxx_flags\":" + json_string(PERFBENCH_CXX_FLAGS);
  out += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  out += ",\"pool_threads\":" + std::to_string(workload.threads());
  out += ",\"seed\":" + std::to_string(args.seed);
  out += ",\"workload\":" + json_string(workload.name());
  out += ",\"trials_per_round\":" + std::to_string(workload.plan().trial_count());
  out += "}";
  return out;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ",";
    out += json_string(metrics[i].name) + ":{\"value\":" +
           acf::util::json_double(metrics[i].value) + ",\"unit\":" +
           json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

void print_phase(const char* label, const Phase& phase, unsigned threads) {
  std::printf("%s: %zu rounds, %zu trials on %u pool thread(s), %.3f s; rates from the "
              "fastest tenth of the rounds (median over all rounds: %.3f trials/s)\n",
              label, phase.rounds(), phase.trials(), threads, phase.seconds(),
              phase.median_rate(&RoundSummary::trials));
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t main_entry = now_ns();
  const Args args = parse_args(argc, argv);
  if (const char* refusal = build_refusal()) {
    std::fprintf(stderr, "acf_perfbench: refusing to report numbers: %s\n", refusal);
    return 3;
  }
  const Workload workload(args.workload, args.seed);

  if (args.setup_probe) {
    std::printf("setup_ns %lld\n",
                static_cast<long long>(workload.first_trial_start() - main_entry));
    return 0;
  }

  const unsigned reference_threads = workload.threads() == 1 ? 2 : 1;
  if (args.digest_only) {
    const Round round = workload.run_round(reference_threads);
    std::printf("%s\n", digest_hex(round.digest).c_str());
    return round.identities_ok && round.failed_trials() == 0 ? 0 : 1;
  }
  std::printf("workload %s seed %llu: %zu trials per round, recorded digest %s\n",
              workload.name().c_str(), static_cast<unsigned long long>(args.seed),
              workload.plan().trial_count(),
              args.expect_digest ? args.expect_digest->c_str() : "none");

  OutputCheck check;
  check.recorded = args.expect_digest;
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const auto account = [&](const Phase& phase) {
    attempted += phase.trials();
    failed += phase.failed_trials();
  };

  if (args.trace == 0) {
    // The first rounds also warm caches and lazy set-up; they are rarely
    // among the fastest tenth that the timings come from.
    const Phase phase = run_phase(workload, args.seconds, check, nullptr);
    print_phase("timed", phase, workload.threads());
    account(phase);
    metrics = end_to_end_metrics(phase);
    const std::vector<double> walls = phase.trial_walls_ms();
    const std::size_t n = walls.size();
    const std::optional<double> tail = tail_percentile(n);
    std::printf("trial wall samples: %zu (%zu beyond p90); tail percentile p%g = %.6f ms\n", n,
                samples_beyond(n, 90.0), tail.value_or(50.0),
                percentile(walls, tail.value_or(50.0)));
  } else {
    SpanLog log;
    const Phase untraced = run_phase(workload, args.seconds / 2, check, nullptr);
    const Phase traced = run_phase(workload, args.seconds / 2, check, &log);
    print_phase("untraced", untraced, workload.threads());
    print_phase("traced", traced, workload.threads());
    account(untraced);
    account(traced);
    metrics = per_layer_metrics(workload, untraced, traced);
    {
      ScopedSpan span(&log, "probes");
      for (Metric& probe : run_probes(workload)) metrics.push_back(std::move(probe));
    }
    const PoolAccounting& pool = traced.pool();
    std::printf("pool: of threads x pool wall, trials busy %.4f, idle before the first and "
                "after the last trial %.4f, pool bookkeeping inside and between trials %.4f\n",
                ratio(pool.busy_ns, pool.capacity_ns), ratio(pool.idle_ns, pool.capacity_ns),
                1.0 - pool.accounted_frac());
    if (!pool_accounted(pool)) {
      check.fail("trial spans do not account for the pool (accounted fraction " +
                 std::to_string(pool.accounted_frac()) + ")");
    }
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      log.write_jsonl(out);
      if (!out) {
        std::fprintf(stderr, "acf_perfbench: cannot write %s\n", args.trace_out.c_str());
        return 1;
      }
      std::printf("spans: %zu written to %s\n", log.spans().size(), args.trace_out.c_str());
    }
  }
  // After the timings (and the peak-RSS reading), so its extra pool threads
  // leave no trace in them.
  const Round reference = workload.run_round(reference_threads);
  check.check(reference);
  const bool correct = check.ok;
  if (!correct) {
    // A wrong output fails the whole run: every trial in it counts as failed.
    failed = attempted;
    std::printf("OUTPUT CHECK FAILED: %s\n", check.error.c_str());
  } else {
    std::printf("outputs: every round, and a reference round on %u thread(s), reproduced "
                "digest %s\n",
                reference.threads, digest_hex(reference.digest).c_str());
  }
  std::printf("failed_trial_ratio %.6f (%zu of %zu)\n",
              ratio(static_cast<double>(failed), static_cast<double>(attempted)), failed,
              attempted);
  print_metrics(metrics);
  std::printf("{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,\"metrics\":%s,\"digest\":%s,"
              "\"provenance\":%s}\n",
              correct ? "true" : "false", attempted, failed, metrics_json(metrics).c_str(),
              json_string(digest_hex(reference.digest)).c_str(),
              provenance_json(workload, args).c_str());
  return 0;
}
