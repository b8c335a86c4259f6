#include "fleet/worlds.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "fuzzer/campaign.hpp"
#include "fuzzer/generator.hpp"
#include "metrics/metrics.hpp"
#include "oracle/vehicle_oracles.hpp"
#include "sim/scheduler.hpp"
#include "transport/virtual_bus_transport.hpp"

namespace acf::fleet {

namespace {

/// Everything one Table V trial touches, owned together: scheduler, bench
/// rig, attacker transport, oracle, generator, campaign.  Nothing escapes
/// the worker thread that builds it.
class UnlockWorld final : public World {
 public:
  UnlockWorld(const UnlockArm& arm, const TrialSpec& spec, metrics::Registry* registry)
      : registry_(registry), bench_(scheduler_, arm.predicate),
        attacker_(bench_.bus(), "attacker") {
    oracles_.add(std::make_unique<oracle::UnlockOracle>(bench_.bus(), &bench_.bcm()));
    fuzzer::FuzzConfig fuzz = arm.fuzz;
    fuzz.seed = spec.seed;
    generator_ = std::make_unique<fuzzer::RandomGenerator>(fuzz);
    fuzzer::CampaignConfig config;
    config.tx_period = fuzz.tx_period;
    config.max_duration =
        spec.sim_budget.count() > 0 ? spec.sim_budget : arm.default_budget;
    config.oracle_period = std::chrono::milliseconds(10);
    config.record_suspicious = false;
    campaign_ = std::make_unique<fuzzer::FuzzCampaign>(scheduler_, attacker_, *generator_,
                                                       &oracles_, config);
  }

  fuzzer::CampaignResult run() override {
    fuzzer::CampaignResult result = campaign_->run();
    if (registry_) {
      // Per-trial totals published exactly once, at trial end: the shared
      // registry sees a deterministic sum whatever the completion order.
      scheduler_.publish_metrics(*registry_);
      bench_.bus().publish_metrics(*registry_);
    }
    return result;
  }

 private:
  metrics::Registry* registry_ = nullptr;
  // Pre-sized to the unlock world's steady-state event population (256
  // slots): trial construction in fleet workers never grows the scheduler.
  sim::Scheduler scheduler_{256};
  vehicle::UnlockTestbench bench_;
  transport::VirtualBusTransport attacker_;
  oracle::CompositeOracle oracles_;
  std::unique_ptr<fuzzer::RandomGenerator> generator_;
  std::unique_ptr<fuzzer::FuzzCampaign> campaign_;
};

}  // namespace

WorldFactory unlock_world_factory(std::vector<UnlockArm> arms,
                                  metrics::Registry* registry) {
  if (arms.empty()) throw std::invalid_argument("unlock_world_factory: no arms");
  auto shared = std::make_shared<const std::vector<UnlockArm>>(std::move(arms));
  return [shared, registry](const TrialSpec& spec) -> std::unique_ptr<World> {
    return std::make_unique<UnlockWorld>(shared->at(spec.arm), spec, registry);
  };
}

}  // namespace acf::fleet
