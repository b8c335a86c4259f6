// Shared scaffolding for the experiment benches: each bench binary
// regenerates one of the paper's tables or figures on stdout.  The
// trial-matrix benches (Table V, rate/hardening ablations, feedback vs
// random) run their campaigns through fleet::run_campaign — `--runs N
// --threads T` shards N replicas per arm across a worker pool, and
// `--distributed [K]` runs the same plan through the coordinator with K
// forked workers, with byte-identical results either way.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "fleet/aggregator.hpp"
#include "fleet/runner.hpp"
#include "fleet/worlds.hpp"
#include "fuzzer/campaign.hpp"
#include "fuzzer/generator.hpp"
#include "oracle/vehicle_oracles.hpp"
#include "sim/scheduler.hpp"
#include "transport/virtual_bus_transport.hpp"
#include "vehicle/vehicle.hpp"

namespace acf::bench {

inline void header(const std::string& artefact, const std::string& caption) {
  std::printf("================================================================\n");
  std::printf("%s — %s\n", artefact.c_str(), caption.c_str());
  std::printf("(Fowler et al., \"Fuzz Testing for Automotive Cyber-security\", DSN 2018)\n");
  std::printf("================================================================\n");
}

/// One unlock-testbench trial: blind random fuzz until the unlock oracle
/// fires; returns simulated seconds to unlock, or a negative value on
/// timeout.  Callers must branch on the sign — a timeout is a separate
/// count, never a sample (feeding -1 into a mean corrupts it).
inline double time_to_unlock(vehicle::UnlockPredicate predicate, std::uint64_t seed,
                             sim::Duration timeout = std::chrono::hours(24),
                             fuzzer::FuzzConfig fuzz = fuzzer::FuzzConfig::full_random()) {
  sim::Scheduler scheduler;
  vehicle::UnlockTestbench bench(scheduler, predicate);
  transport::VirtualBusTransport attacker(bench.bus(), "attacker");
  oracle::CompositeOracle oracles;
  oracles.add(std::make_unique<oracle::UnlockOracle>(bench.bus(), &bench.bcm()));
  fuzz.seed = seed;
  fuzzer::RandomGenerator generator(fuzz);
  fuzzer::CampaignConfig config;
  config.tx_period = fuzz.tx_period;  // the Table III "Rate" knob
  config.max_duration = timeout;
  config.oracle_period = std::chrono::milliseconds(10);
  config.record_suspicious = false;
  fuzzer::FuzzCampaign campaign(scheduler, attacker, generator, &oracles, config);
  const auto& result = campaign.run();
  if (!result.any_failure()) return -1.0;
  // The oracle records the exact bus time of the acknowledgement frame.
  return sim::to_seconds(result.first_failure()->observation.time);
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
inline FleetArgs parse_fleet_args(int argc, char** argv, int default_runs,
                                  std::initializer_list<LocalFlag> local = {},
                                  bool distributable = true) {
  FleetArgs args;
  args.runs = default_runs;
  fleet::CampaignOptions& campaign = args.campaign;
  for (int i = 1; i < argc; ++i) {
    const auto flag = std::find_if(local.begin(), local.end(), [&](const LocalFlag& f) {
      return std::strcmp(argv[i], f.name) == 0;
    });
    if (flag != local.end() && flag->on != nullptr) {
      *flag->on = true;
    } else if (flag != local.end() && i + 1 < argc) {
      *flag->value = argv[++i];
    } else if (std::strcmp(argv[i], "--runs") == 0 && i + 1 < argc) {
      args.runs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      campaign.threads = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      args.seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (distributable && std::strcmp(argv[i], "--distributed") == 0) {
      campaign.serve = true;
      campaign.workers = 2;
      if (i + 1 < argc && std::atoi(argv[i + 1]) > 0) {
        campaign.workers = static_cast<std::size_t>(std::atoi(argv[++i]));
      }
    } else if (distributable && std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
      campaign.connect = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      campaign.metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-interval") == 0 && i + 1 < argc) {
      campaign.metrics_interval = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (distributable && i == 1 && std::atoi(argv[i]) > 0) {
      args.runs = std::atoi(argv[i]);
    } else {
      std::fprintf(stderr, "usage: %s [--runs N] [--threads T] [--seed S]%s\n", argv[0],
                   distributable ? " [--distributed [K]]" : "");
      std::fprintf(stderr, "          [--metrics-out PATH] [--metrics-interval N]");
      for (const LocalFlag& f : local) std::fprintf(stderr, " [%s%s]", f.name, f.on ? "" : " ARG");
      std::fprintf(stderr, "\n");
      std::exit(2);
    }
  }
  if (args.runs <= 0) args.runs = default_runs;
  return args;
}

}  // namespace acf::bench
