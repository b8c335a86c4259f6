// Feedback fleet worlds: one fleet trial = one complete, isolated
// feedback-driven campaign.  Because a FeedbackCampaign is a pure function
// of its seed, packaging it as a fleet::World buys in-process and
// distributed execution — and byte-identical outcomes at any thread
// count — from the existing trial machinery for free.
#pragma once

#include <string>
#include <vector>

#include "feedback/campaign.hpp"
#include "fleet/trial.hpp"

namespace acf::metrics {
class Registry;
}

namespace acf::feedback {

/// One arm of a feedback fleet: the loop configuration.  The seed comes
/// from the TrialSpec, and so does the total budget when the TrialPlan
/// imposes one (600 simulated seconds otherwise).
struct FeedbackArm {
  FeedbackConfig config;
};

/// Factory building one isolated feedback campaign per trial; the trial's
/// arm index selects from `arms` and its seed drives the whole loop.
///
/// When `registry` is non-null each world publishes the feedback loop's
/// counters (`feedback.*`, watermarks as `*_max`) and the coverage
/// tracker's totals (`fuzz.coverage.*`) at trial end — deterministic
/// per-trial sums, order-independent in aggregate.
///
/// When `corpus_dir` is non-empty it is created if missing; a file named
/// `seed.corpus` inside it (if present and valid) pre-populates every
/// trial's corpus, and each trial writes its final corpus to
/// `trial-<index>.corpus` — distinct names, so parallel trials never
/// collide.  A trial whose corpus cannot be written fails with an error
/// naming the file.
fleet::WorldFactory feedback_world_factory(std::vector<FeedbackArm> arms,
                                           metrics::Registry* registry = nullptr,
                                           std::string corpus_dir = {});

}  // namespace acf::feedback
