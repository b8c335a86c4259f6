// Ablation A7: message authentication as the end-state defense.  Extends
// Table V with a third predicate — truncated-MAC + rolling counter (the
// Nowdehi-et-al. family the paper cites) — and measures what it does to the
// blind-fuzz attack and to the replay attack, while the legitimate app path
// keeps working.
#include "analysis/report.hpp"
#include "attacks/attacks.hpp"
#include "util/stats.hpp"
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace acf;
  const int runs = bench::run_count_arg(argc, argv, 6);
  bench::header("Ablation A7", "Message authentication vs the Table V attack (" +
                                   std::to_string(runs) + " runs per unauthenticated arm)");

  analysis::TextTable table({"Predicate", "Mean time-to-unlock", "Notes"});

  for (const auto& [label, predicate] :
       {std::pair<const char*, vehicle::UnlockPredicate>{
            "single id and byte", vehicle::UnlockPredicate::single_id_and_byte()},
        {"id, byte plus data length", vehicle::UnlockPredicate::id_byte_and_length()}}) {
    util::RunningStats stats;
    for (int run = 0; run < runs; ++run) {
      stats.add(bench::time_to_unlock(predicate, 0xA700 + static_cast<std::uint64_t>(run)));
    }
    table.add_row({label, analysis::format_number(stats.mean()) + " s", "paper Table V"});
  }

  // Authenticated arm: bounded budget, then report the analytic mean.
  {
    sim::Scheduler scheduler;
    vehicle::UnlockTestbench bench_rig(scheduler, vehicle::UnlockPredicate::authenticated());
    transport::VirtualBusTransport attacker(bench_rig.bus(), "attacker");
    oracle::CompositeOracle oracles;
    oracles.add(std::make_unique<oracle::UnlockOracle>(bench_rig.bus(), &bench_rig.bcm()));
    fuzzer::RandomGenerator generator(fuzzer::FuzzConfig::full_random(0xA7FF));
    fuzzer::CampaignConfig config;
    config.max_duration = std::chrono::hours(2);  // 7.2M frames at 1 kHz
    config.oracle_period = std::chrono::milliseconds(10);
    config.record_suspicious = false;
    fuzzer::FuzzCampaign campaign(scheduler, attacker, generator, &oracles, config);
    const auto& result = campaign.run();
    char note[128];
    std::snprintf(note, sizeof note,
                  "no unlock in %llu fuzzed frames; %llu frames rejected by the BCM",
                  static_cast<unsigned long long>(result.frames_sent),
                  static_cast<unsigned long long>(bench_rig.bcm().rejected_commands()));
    table.add_row({"MAC + rolling counter",
                   result.any_failure() ? "BROKEN?!" : "> 2 h (analytic: ~3e6 years)", note});
  }
  std::printf("%s\n", table.to_string().c_str());

  // Replay resistance and the legitimate path.
  {
    sim::Scheduler scheduler;
    vehicle::UnlockTestbench bench_rig(scheduler, vehicle::UnlockPredicate::authenticated());
    transport::VirtualBusTransport attacker(bench_rig.bus(), "attacker");
    attacks::ReplayAttack replay(scheduler, bench_rig.bus(), attacker,
                                 can::FilterBank{can::IdMaskFilter::exact(0x215)});
    replay.record_for(std::chrono::milliseconds(100));
    bench_rig.head_unit().request_unlock();
    scheduler.run_for(std::chrono::milliseconds(200));
    bench_rig.bcm().force_lock();
    replay.replay(5);
    scheduler.run_for(std::chrono::seconds(1));
    std::printf("replay of the recorded genuine unlock frame (x5): %s "
                "(%llu replays detected by the counter window)\n",
                bench_rig.bcm().unlocked() ? "UNLOCKED — replay works?!"
                                           : "still locked — replay defeated",
                static_cast<unsigned long long>(
                    bench_rig.bcm().verifier()->stats().replayed));
    bench_rig.head_unit().request_unlock();
    scheduler.run_for(std::chrono::milliseconds(50));
    std::printf("legitimate app unlock afterwards: %s\n",
                bench_rig.bcm().unlocked() ? "works" : "BROKEN");
  }
  std::printf("\nShape: attacker cost rises from minutes (Table V row 1) through x8 (row 2)\n"
              "to cryptographic infeasibility (2^-32 per correctly-shaped frame), with no\n"
              "functional cost on the legitimate path — but key management remains the\n"
              "deployment blocker the paper's §IV cites.\n");
  return 0;
}
