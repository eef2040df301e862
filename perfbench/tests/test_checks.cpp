// Shows that each output check of the benchmark rejects a wrong answer:
// a perturbed output row, a swapped row, a dropped request, and a row the
// QoI check rejects served by the surrogate anyway. Exits non-zero on the
// first check that lets a wrong answer through (or rejects a right one).

#include <cmath>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "checks.hpp"

namespace {

using perfbench::checks::check_count;
using perfbench::checks::check_row;
using perfbench::checks::check_rows;
using perfbench::checks::Expected;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

struct Window {
  std::vector<std::vector<double>> surrogate{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  std::vector<std::vector<double>> region{{1.5, 2.5}, {3.5, 4.5}, {5.5, 6.5}};
  std::vector<bool> rejected{false, true, false};

  [[nodiscard]] std::vector<Expected> expected() const {
    std::vector<Expected> e;
    for (std::size_t i = 0; i < surrogate.size(); ++i) {
      e.push_back({surrogate[i], region[i], rejected[i]});
    }
    return e;
  }
  /// The right answer: surrogate rows, except the rejected row's region run.
  [[nodiscard]] std::vector<std::vector<double>> served() const {
    std::vector<std::vector<double>> s;
    for (std::size_t i = 0; i < surrogate.size(); ++i) {
      s.push_back(rejected[i] ? region[i] : surrogate[i]);
    }
    return s;
  }
};

std::vector<std::span<const double>> views(const std::vector<std::vector<double>>& rows) {
  return {rows.begin(), rows.end()};
}

}  // namespace

int main() {
  const Window w;
  const std::vector<Expected> expected = w.expected();

  // The right answer passes.
  const std::vector<std::vector<double>> right = w.served();
  expect(check_rows(views(right), expected).empty(), "correct window rejected");
  expect(check_count("requests_served", 3, 3).empty(), "equal counts rejected");

  // A perturbed output row: one ulp off in one value.
  std::vector<std::vector<double>> perturbed = right;
  perturbed[2][1] = std::nextafter(perturbed[2][1], 1e9);
  expect(!check_rows(views(perturbed), expected).empty(), "perturbed row accepted");
  expect(!check_row(2, perturbed[2], expected[2]).empty(), "perturbed row accepted by check_row");

  // Two replies swapped.
  std::vector<std::vector<double>> swapped = right;
  std::swap(swapped[0], swapped[2]);
  expect(!check_rows(views(swapped), expected).empty(), "swapped rows accepted");

  // A dropped request: one reply missing, and the program's tally short.
  std::vector<std::vector<double>> dropped = right;
  dropped.pop_back();
  expect(!check_rows(views(dropped), expected).empty(), "dropped request accepted");
  expect(!check_count("requests_served", 3, 2).empty(), "short served count accepted");

  // A row the QoI check rejects, served by the surrogate instead of the
  // fallback, and the reverse.
  std::vector<std::vector<double>> no_fallback = right;
  no_fallback[1] = w.surrogate[1];
  const std::string err = check_rows(views(no_fallback), expected);
  expect(!err.empty(), "rejected row served by the surrogate accepted");
  expect(err.find("surrogate row was served") != std::string::npos,
         "rejected row served by the surrogate misreported: " + err);
  std::vector<std::vector<double>> extra_fallback = right;
  extra_fallback[0] = w.region[0];
  expect(!check_rows(views(extra_fallback), expected).empty(),
         "accepted row served by the fallback accepted");

  // A NaN in a reply is caught like any other wrong value.
  std::vector<std::vector<double>> nan_row = right;
  nan_row[0][0] = std::nan("");
  expect(!check_rows(views(nan_row), expected).empty(), "NaN row accepted");

  if (failures == 0) std::cout << "perfbench checks: all wrong answers rejected\n";
  return failures == 0 ? 0 : 1;
}
