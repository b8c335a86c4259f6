// Ablation A9: generation strategy shoot-out on the unlock testbench.
// Uniform random (the paper's fuzzer) vs boundary-value + dictionary
// (protocol-informed, Table I's "design based" column) vs feedback-adaptive
// id scheduling — mean time-to-unlock per strategy at the 1 ms period.
#include "analysis/report.hpp"
#include "fuzzer/smart_generator.hpp"
#include "oracle/vehicle_oracles.hpp"
#include "util/stats.hpp"
#include "bench_util.hpp"

namespace {

using namespace acf;

double run_once(fuzzer::FrameGenerator& generator) {
  sim::Scheduler scheduler;
  vehicle::UnlockTestbench bench_rig(scheduler);
  transport::VirtualBusTransport attacker(bench_rig.bus(), "attacker");
  oracle::CompositeOracle oracles;
  oracles.add(std::make_unique<oracle::UnlockOracle>(bench_rig.bus(), &bench_rig.bcm()));
  fuzzer::CampaignConfig config;
  config.max_duration = std::chrono::hours(12);
  config.oracle_period = std::chrono::milliseconds(10);
  config.record_suspicious = false;
  fuzzer::FuzzCampaign campaign(scheduler, attacker, generator, &oracles, config);
  const auto& result = campaign.run();
  return result.any_failure() ? sim::to_seconds(result.first_failure()->observation.time)
                              : -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  const int runs = bench::run_count_arg(argc, argv, 8);
  bench::header("Ablation A9", "Generation strategies vs time-to-unlock (" +
                                   std::to_string(runs) + " runs each)");

  analysis::TextTable table({"Strategy", "Knowledge used", "Mean time-to-unlock"});

  {
    util::RunningStats stats;
    for (int run = 0; run < runs; ++run) {
      fuzzer::RandomGenerator gen(
          fuzzer::FuzzConfig::full_random(0xA900 + static_cast<std::uint64_t>(run)));
      stats.add(run_once(gen));
    }
    table.add_row({"uniform random (paper)", "none",
                   analysis::format_number(stats.mean()) + " s"});
  }
  {
    util::RunningStats stats;
    for (int run = 0; run < runs; ++run) {
      fuzzer::BoundaryPlan plan;
      plan.dictionary = {0x20, 0x10};  // command bytes harvested from capture
      plan.seed = 0xA910 + static_cast<std::uint64_t>(run);
      fuzzer::BoundaryGenerator gen(fuzzer::FuzzConfig::full_random(), plan);
      stats.add(run_once(gen));
    }
    table.add_row({"boundary + dictionary", "captured command bytes",
                   analysis::format_number(stats.mean()) + " s"});
  }
  {
    // Feedback: reward ids that draw *any* bus response (the BCM acks).
    util::RunningStats stats;
    for (int run = 0; run < runs; ++run) {
      sim::Scheduler scheduler;
      vehicle::UnlockTestbench bench_rig(scheduler);
      transport::VirtualBusTransport attacker(bench_rig.bus(), "attacker");
      oracle::CompositeOracle oracles;
      oracles.add(std::make_unique<oracle::UnlockOracle>(bench_rig.bus(), &bench_rig.bcm()));
      fuzzer::FeedbackPlan plan;
      plan.seed = 0xA920 + static_cast<std::uint64_t>(run);
      fuzzer::FeedbackGenerator gen(fuzzer::FuzzConfig::full_random(), plan);
      // Reward loop: any BODY_ACK rewards the recently fuzzed ids.  A lock
      // ack (the fuzzer hitting 0x10) is feedback too — exactly the signal
      // that makes the id converge before the unlock byte lands.
      transport::VirtualBusTransport monitor(bench_rig.bus(), "monitor", {}, true);
      std::vector<std::uint32_t> recent;
      monitor.set_rx_callback([&](const can::CanFrame& frame, sim::SimTime) {
        if (frame.id() == dbc::kMsgBodyCommand) {
          recent.push_back(frame.id());
          if (recent.size() > 8) recent.erase(recent.begin());
        }
        if (frame.id() == dbc::kMsgBodyAck) {
          for (std::uint32_t id : recent) gen.reward(id);
        }
      });
      fuzzer::CampaignConfig config;
      config.max_duration = std::chrono::hours(12);
      config.oracle_period = std::chrono::milliseconds(10);
      config.record_suspicious = false;
      fuzzer::FuzzCampaign campaign(scheduler, attacker, gen, &oracles, config);
      const auto& result = campaign.run();
      stats.add(result.any_failure()
                    ? sim::to_seconds(result.first_failure()->observation.time)
                    : -1.0);
    }
    table.add_row({"feedback-adaptive ids", "bus responses (acks)",
                   analysis::format_number(stats.mean()) + " s"});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("Shape: each step of target knowledge divides time-to-unlock — the paper's\n"
              "conclusion that automotive fuzzing pays off \"in a specific message space,\n"
              "close to known messages\" holds even when that knowledge is learned online.\n");
  return 0;
}
