// SecurityAccess (UDS service 0x27) seed/key material.
//
// Real OEM algorithms are secret; what matters for the testing framework is
// the state machine around them (locked/unlocked ECU operating modes,
// invalid-key lockout, time penalties) — the paper highlights exactly these
// states as ones testers must cover.  The algorithm here is a deliberately
// simple keyed transform.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace acf::uds {

using Seed = std::array<std::uint8_t, 4>;
using Key = std::array<std::uint8_t, 4>;

/// Byte-wise xor with a rolling secret plus rotation — representative of the
/// (weak) algorithms found in legacy ECUs.
class XorRotateAlgorithm {
 public:
  explicit XorRotateAlgorithm(std::uint32_t secret = 0x5A3C7E19) : secret_(secret) {}
  Key compute_key(const Seed& seed) const;

 private:
  std::uint32_t secret_;
};

/// True if `candidate` matches the key for `seed` under `algorithm`.
bool verify_key(const XorRotateAlgorithm& algorithm, const Seed& seed,
                std::span<const std::uint8_t> candidate);

}  // namespace acf::uds
