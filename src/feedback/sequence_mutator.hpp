// SequenceMutator: lifts the shared byte-mutation core from raw byte
// buffers to CAN frame *sequences* — the input unit of the feedback loop.
//
// Havoc-style: each mutate() applies a stack of 1..4 operators drawn from a
// frozen table.  Three layers of operator:
//  * per-frame byte mutations (bit flips / byte overwrites via
//    fuzzer::mutcore, plus an interesting-byte table of protocol
//    constants — command codes, the 0x5F prefix, boundary values);
//  * id/dlc-aware ops driven by the signal-database dictionary (snap a
//    frame's id onto a real message id, jitter it nearby, resize the
//    payload across DLC boundaries);
//  * sequence ops (duplicate / drop / insert frames, and splice — AFL's
//    crossover — grafting the tail of a donor seed onto a prefix).
//
// Same determinism contract as the rest of the fuzzer: every operator
// consumes Rng draws in a frozen order, so a mutated sequence is a pure
// function of (rng state, input, donor).
#pragma once

#include <cstdint>
#include <vector>

#include "can/frame.hpp"
#include "util/rng.hpp"

namespace acf::feedback {

class SequenceMutator {
 public:
  /// Hard cap on frames per sequence; keeps per-execution simulated cost
  /// (and therefore the time-to-finding denominator) small.
  static constexpr std::size_t kMaxFrames = 16;

  /// Applies 1..4 havoc rounds in place.  `donor` (may be null) supplies
  /// splice material; the result never exceeds kMaxFrames and never
  /// becomes empty.
  void mutate(util::Rng& rng, std::vector<can::CanFrame>& sequence,
              const std::vector<can::CanFrame>* donor) const;

  /// Fresh random sequence of 1..4 frames.
  std::vector<can::CanFrame> fresh(util::Rng& rng) const;

 private:
  can::CanFrame random_frame(util::Rng& rng) const;
  void mutate_once(util::Rng& rng, std::vector<can::CanFrame>& sequence,
                   const std::vector<can::CanFrame>* donor) const;
};

}  // namespace acf::feedback
