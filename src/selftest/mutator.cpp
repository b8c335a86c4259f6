#include "selftest/mutator.hpp"

#include "fuzzer/mutation_core.hpp"

namespace acf::selftest {

namespace {

// Format keywords from every in-repo text input surface: DBC grammar,
// candump syntax, the ids-eval/1 digest line and the acf-metrics-v1
// snapshot, plus boundary numbers parsers tend to choke on.  Splicing these
// lets a structure-blind mutator cross token-level validation instead of
// dying in the first keyword comparison.  "Rx", "Tx", "d 8" and "r 1" are
// Vector ASC tokens from a log reader since removed; dropping them would
// shift every target's generated inputs.
constexpr std::string_view kDictionary[] = {
    "BO_", "SG_", "BU_:", "BA_", "\"GenMsgCycleTime\"", "Vector__XXX", ":",
    "@1+", "@0-", "(1,0)", "[0|255]", "8|16",
    "Rx", "Tx", "d 8", "r 1", "can0", "#", "##1", "#R",
    "ids-eval/1", "totals", "det", "name=", "thr=", "ab=", "lb=",
    "\"schema\"", "acf-metrics-v1", "\"counters\"", "\"timers\"",
    "(0.000000)", "0", "1", "-1", "4095", "65535", "4294967295",
    "18446744073709551615", "99999999999999999999", "nan", "inf", "1e308", "-",
};

constexpr std::string_view kPrintable =
    "0123456789ABCDEFabcdef BO_SG_#R()[]|@+-.,:\"\n\t_xXDEFS ";

}  // namespace

ByteMutator::ByteMutator(std::uint64_t seed) : rng_(util::SplitMix64(seed).next()) {}

std::vector<std::uint8_t> ByteMutator::fresh(std::size_t max_len) {
  return fuzzer::mutcore::fresh(rng_, max_len, kPrintable);
}

void ByteMutator::mutate(std::vector<std::uint8_t>& data, std::size_t max_len) {
  fuzzer::mutcore::mutate(rng_, data, max_len, kDictionary);
}

}  // namespace acf::selftest
