// Ablation A1: targeted vs blind fuzzing.  The paper concludes automotive
// fuzzing is most useful "in a specific message space, close to known
// messages, whether determined from design or data traffic capture".  This
// bench quantifies it: time-to-unlock when the id space shrinks from all
// 2048 ids (blind) to ids observed on the bus, to a +-8 window around the
// command id, to the exact id.
#include "analysis/report.hpp"
#include "util/stats.hpp"
#include "bench_util.hpp"
#include "trace/capture.hpp"

namespace {

double mean_time_to_unlock(const acf::fuzzer::FuzzConfig& base, int runs,
                           std::uint64_t seed_base) {
  acf::util::RunningStats stats;
  for (int run = 0; run < runs; ++run) {
    stats.add(acf::bench::time_to_unlock(
        acf::vehicle::UnlockPredicate::single_id_and_byte(),
        seed_base + static_cast<std::uint64_t>(run), std::chrono::hours(24), base));
  }
  return stats.mean();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace acf;
  const int runs = bench::run_count_arg(argc, argv, 8);
  bench::header("Ablation A1", "Targeted vs blind fuzzing: mean time-to-unlock (" +
                                   std::to_string(runs) + " runs each)");

  // "Ids observed on the bus": capture the testbench's own traffic first
  // (the reverse-engineering step the paper describes).
  std::vector<std::uint32_t> observed_ids;
  {
    sim::Scheduler scheduler;
    vehicle::UnlockTestbench bench_rig(scheduler);
    trace::CaptureTap tap(bench_rig.bus(), "tap");
    bench_rig.head_unit().request_unlock();  // one legitimate actuation
    scheduler.run_for(std::chrono::seconds(2));
    for (const auto& entry : tap.frames()) {
      if (std::find(observed_ids.begin(), observed_ids.end(), entry.frame.id()) ==
          observed_ids.end()) {
        observed_ids.push_back(entry.frame.id());
      }
    }
  }
  std::printf("ids observed on the testbench bus: %zu\n\n", observed_ids.size());

  struct Strategy {
    std::string label;
    fuzzer::FuzzConfig config;
  };
  const Strategy strategies[] = {
      {"blind (all 2048 ids)", fuzzer::FuzzConfig::full_random()},
      {"observed ids (traffic capture)", fuzzer::FuzzConfig::targeted(observed_ids)},
      {"around known id (0x215 +- 8)", fuzzer::FuzzConfig::around_id(0x215, 8)},
      {"exact id (design knowledge)", fuzzer::FuzzConfig::targeted({0x215})},
  };

  analysis::TextTable table({"Strategy", "Id space", "Mean time-to-unlock"});
  double blind_mean = 0.0;
  for (const auto& strategy : strategies) {
    const double mean = mean_time_to_unlock(strategy.config, runs, 0xA1000);
    if (blind_mean == 0.0) blind_mean = mean;
    char speedup[32];
    std::snprintf(speedup, sizeof speedup, " (x%.0f faster)", blind_mean / mean);
    table.add_row({strategy.label, std::to_string(strategy.config.id_space()),
                   analysis::format_number(mean, 1) + " s" +
                       (blind_mean == mean ? "" : speedup)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("Shape: time-to-unlock scales ~linearly with the id space — the\n"
              "combinatorial argument for targeted fuzzing in the paper's §VIII.\n");
  return 0;
}
