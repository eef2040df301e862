#pragma once
// The benchmark's output checks. They compare what the program served with
// results computed apart from the serving path. They use none of the
// program's headers, so the benchmark's tests can hand them wrong answers.

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace perfbench::checks {

/// True when both rows hold the same doubles bit for bit.
[[nodiscard]] inline bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// What one request should have returned: the direct surrogate prediction
/// of its row, or, when the QoI predicate rejects that prediction, the
/// direct run of the exact region.
struct Expected {
  std::span<const double> surrogate;
  std::span<const double> region;  ///< unused unless `rejected`
  bool rejected = false;
};

/// Empty when `served` is what `e` says request `index` should return;
/// otherwise what is wrong with it.
[[nodiscard]] inline std::string check_row(std::size_t index, std::span<const double> served,
                                           const Expected& e) {
  const std::span<const double> want = e.rejected ? e.region : e.surrogate;
  if (same_bits(served, want)) return {};
  std::string what = "request " + std::to_string(index) + ": ";
  if (e.rejected && same_bits(served, e.surrogate)) {
    return what + "the QoI check rejects its prediction but the surrogate row was served";
  }
  if (!e.rejected && same_bits(served, e.region)) {
    return what + "served by the fallback though its prediction passes the QoI check";
  }
  return what + "served row differs from the " +
         (e.rejected ? std::string("exact region run") : std::string("direct prediction"));
}

/// Checks the served rows of a batch of requests, in request order, and
/// that every request came back. Empty when all are right.
[[nodiscard]] inline std::string check_rows(const std::vector<std::span<const double>>& served,
                                            const std::vector<Expected>& expected) {
  if (served.size() != expected.size()) {
    return std::to_string(expected.size()) + " requests sent but " +
           std::to_string(served.size()) + " rows returned";
  }
  for (std::size_t i = 0; i < served.size(); ++i) {
    std::string err = check_row(i, served[i], expected[i]);
    if (!err.empty()) return err;
  }
  return {};
}

/// Empty when the program's own tally agrees with the client's.
[[nodiscard]] inline std::string check_count(const char* what, std::uint64_t client,
                                             std::uint64_t program) {
  if (client == program) return {};
  return std::string(what) + ": client counted " + std::to_string(client) +
         ", program reports " + std::to_string(program);
}

}  // namespace perfbench::checks
