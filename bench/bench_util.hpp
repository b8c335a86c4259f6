// Shared scaffolding for the experiment benches: each bench binary
// regenerates one of the paper's tables or figures on stdout.  The
// trial-matrix benches (Table V, rate/hardening ablations, feedback vs
// random) run their campaigns through fleet::run_campaign — `--runs N
// --threads T` shards N replicas per arm across a worker pool, and
// `--distributed [K]` runs the same plan through the coordinator with K
// forked workers, with byte-identical results either way.
#pragma once

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "fleet/aggregator.hpp"
#include "fleet/executor.hpp"
#include "fleet/runner.hpp"
#include "fleet/worlds.hpp"
#include "fuzzer/campaign.hpp"
#include "fuzzer/generator.hpp"
#include "oracle/vehicle_oracles.hpp"
#include "sim/scheduler.hpp"
#include "transport/virtual_bus_transport.hpp"
#include "util/cli.hpp"
#include "vehicle/vehicle.hpp"

namespace acf::bench {

/// The report's banner.  A fleet bench prints it once fleet::run_campaign
/// has returned: a refused campaign then leaves nothing on stdout, and a
/// forked worker, which exits inside run_campaign, prints no banner into the
/// coordinator's stderr.
inline void header(const std::string& artefact, const std::string& caption) {
  std::printf("================================================================\n");
  std::printf("%s — %s\n", artefact.c_str(), caption.c_str());
  std::printf("(Fowler et al., \"Fuzz Testing for Automotive Cyber-security\", DSN 2018)\n");
  std::printf("================================================================\n");
}

/// One Table V unlock trial (fleet::unlock_world_factory's world): blind
/// random fuzz until the unlock oracle fires; returns simulated seconds to
/// unlock, or a negative value on timeout.  Callers must branch on the sign
/// — a timeout is a separate count, never a sample (feeding -1 into a mean
/// corrupts it).  A trial that does not complete ends the bench.
inline double time_to_unlock(vehicle::UnlockPredicate predicate, std::uint64_t seed,
                             sim::Duration timeout = std::chrono::hours(24),
                             fuzzer::FuzzConfig fuzz = fuzzer::FuzzConfig::full_random()) {
  fleet::TrialSpec spec;
  spec.seed = seed;
  const fleet::TrialOutcome outcome = fleet::run_one_trial(
      spec, fleet::unlock_world_factory({{predicate, std::move(fuzz), timeout}}));
  if (!outcome.completed()) {
    std::fprintf(stderr, "time_to_unlock: trial with seed %llu failed: %s\n",
                 static_cast<unsigned long long>(seed), outcome.error.c_str());
    std::exit(1);
  }
  return outcome.time_to_failure;
}

/// Command-line knobs shared by the fleet benches.
struct FleetArgs {
  int runs = 0;  // replicas per arm
  std::uint64_t seed = 0xACF17EE7ULL;
  fleet::CampaignOptions campaign;
};

/// A bench-local flag: the next argument lands in `value`, or, for a switch,
/// `on` is set.
struct LocalFlag {
  const char* name;
  std::string* value;
  bool* on = nullptr;
};

/// Parses `--runs N`, `--threads T`, `--seed S`, `--metrics-out PATH`,
/// `--metrics-interval N` and the bench's `local` flags.  A distributable
/// bench also takes `--distributed [K]` (the coordinator plus K forked
/// workers, default 2), the `--connect HOST:PORT` a forked worker is given,
/// and a bare leading integer as the run count (its historical interface).
/// Numbers are read whole (util::parse_number); a malformed or out-of-range
/// one, like an unknown flag, prints the usage and exits 2.
inline FleetArgs parse_fleet_args(int argc, char** argv, int default_runs,
                                  std::initializer_list<LocalFlag> local = {},
                                  bool distributable = true) {
  FleetArgs args;
  args.runs = default_runs;
  fleet::CampaignOptions& campaign = args.campaign;
  bool malformed = false;
  const auto number = [&malformed](const char* text, std::uint64_t min, std::uint64_t max) {
    const std::optional<std::uint64_t> value = util::parse_number(text, min, max);
    malformed = malformed || !value;
    return value.value_or(min);
  };
  const auto is_count = [](const char* text) {
    return util::parse_number(text, 1, INT_MAX).has_value();
  };
  for (int i = 1; i < argc && !malformed; ++i) {
    const auto flag = std::find_if(local.begin(), local.end(), [&](const LocalFlag& f) {
      return std::strcmp(argv[i], f.name) == 0;
    });
    if (flag != local.end() && flag->on != nullptr) {
      *flag->on = true;
    } else if (flag != local.end() && i + 1 < argc) {
      *flag->value = argv[++i];
    } else if (std::strcmp(argv[i], "--runs") == 0 && i + 1 < argc) {
      args.runs = static_cast<int>(number(argv[++i], 1, INT_MAX));
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      campaign.threads = static_cast<unsigned>(number(argv[++i], 0, UINT_MAX));
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      args.seed = number(argv[++i], 0, UINT64_MAX);
    } else if (distributable && std::strcmp(argv[i], "--distributed") == 0) {
      campaign.serve = true;
      campaign.workers = 2;
      if (i + 1 < argc && is_count(argv[i + 1])) {
        campaign.workers = static_cast<std::size_t>(number(argv[++i], 1, INT_MAX));
      }
    } else if (distributable && std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
      campaign.connect = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      campaign.metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-interval") == 0 && i + 1 < argc) {
      campaign.metrics_interval = static_cast<std::size_t>(number(argv[++i], 0, SIZE_MAX));
    } else if (distributable && i == 1 && is_count(argv[i])) {
      args.runs = static_cast<int>(number(argv[i], 1, INT_MAX));
    } else {
      malformed = true;
    }
  }
  if (malformed) {
    std::fprintf(stderr, "usage: %s [--runs N] [--threads T] [--seed S]%s\n", argv[0],
                 distributable ? " [--distributed [K]]" : "");
    std::fprintf(stderr, "          [--metrics-out PATH] [--metrics-interval N]");
    for (const LocalFlag& f : local) std::fprintf(stderr, " [%s%s]", f.name, f.on ? "" : " ARG");
    std::fprintf(stderr, "\n");
    std::exit(2);
  }
  return args;
}

/// The run count a bench takes as its one optional argument, `fallback`
/// when absent.  Anything but a whole number in [1, INT_MAX] exits 2.
inline int run_count_arg(int argc, char** argv, int fallback) {
  if (argc == 1) return fallback;
  const std::optional<std::uint64_t> runs =
      argc == 2 ? util::parse_number(argv[1], 1, INT_MAX) : std::nullopt;
  if (!runs) {
    std::fprintf(stderr, "usage: %s [RUNS]\n", argv[0]);
    std::exit(2);
  }
  return static_cast<int>(*runs);
}

}  // namespace acf::bench
