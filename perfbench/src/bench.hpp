#pragma once
// Shared pieces of the benchmark workloads: wall-clock timing, summaries
// that stay exact in constant memory, the in-memory span log of the traced
// run, and the result a workload hands back to main().
//
// Every time here is std::chrono::steady_clock wall time; nothing reads the
// program's modeled DeviceModel time.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// The instant the process started running static initialisers: the origin
/// of every workload's cold set-up time.
[[nodiscard]] Clock::time_point process_start();

/// Derives the seed of one input stream from the run's --seed (splitmix64),
/// so that seeds 1, 2, 3 give unrelated inputs.
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  ///< where the traced run writes its spans
};

/// Quantile with linear interpolation between order statistics.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
[[nodiscard]] inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The share of a run's samples that the end-to-end figures come from: its
/// least disturbed tenth. Other processes on the host only ever add time, and
/// on a shared 4-core VM they slowed stretches of seconds within one run by
/// up to 30% (serve_sync's p50 over 3 s stretches of one run: 9.7 to 13.3
/// us). The median over a run followed them; the quiet tenth moved far less.
constexpr double kQuietShare = 0.10;
/// The quiet tenth of a run's durations: their 10th percentile.
[[nodiscard]] inline double quiet_quantile(std::vector<double> v) {
  return quantile(std::move(v), kQuietShare);
}

/// p50 / p99 / throughput of a long stream of timed operations (µs each) in
/// constant memory: exact figures of each block of `block` samples, then,
/// over the blocks, the quiet tenth for p50 and throughput (kQuietShare) and
/// the median for the p99 reference figure. A run's memory therefore does
/// not grow with the program's speed, and stalled blocks cannot move p50.
class BlockQuantiles {
 public:
  explicit BlockQuantiles(std::size_t block) : block_(block) { buf_.reserve(block); }

  void add(double us) {
    buf_.push_back(us);
    ++count_;
    if (buf_.size() == block_) {
      p50s_.push_back(quantile(buf_, 0.50));
      p99s_.push_back(quantile(buf_, 0.99));
      rates_.push_back(rate_of(buf_));
      buf_.clear();
    }
  }
  /// The blocks' p50s at quantile `over_blocks`: the quiet tenth by default,
  /// their median for comparing with a handful of traced samples.
  [[nodiscard]] double p50(double over_blocks = kQuietShare) const {
    return summary(p50s_, 0.50, over_blocks);
  }
  [[nodiscard]] double p99() const { return summary(p99s_, 0.99, 0.50); }
  /// Operations per second of busy time: over the blocks, the quiet tenth
  /// of (operations in the block ÷ their summed wall time).
  [[nodiscard]] double per_second() const {
    return rates_.empty() ? rate_of(buf_) : quantile(rates_, 1.0 - kQuietShare);
  }
  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] std::size_t blocks() const noexcept { return p50s_.size(); }

 private:
  [[nodiscard]] double summary(const std::vector<double>& per_block, double q,
                               double over_blocks) const {
    // Before the first full block the partial one is all there is.
    return per_block.empty() ? quantile(buf_, q) : quantile(per_block, over_blocks);
  }
  [[nodiscard]] static double rate_of(const std::vector<double>& us) {
    double sum = 0.0;
    for (const double x : us) sum += x;
    return sum > 0.0 ? static_cast<double>(us.size()) * 1e6 / sum : 0.0;
  }

  std::size_t block_;
  std::size_t count_ = 0;
  std::vector<double> buf_;
  std::vector<double> p50s_, p99s_, rates_;
};

/// One timed interval of the traced run. Spans of one request (or window,
/// or build) share `request`; `parent` is the span that caused this one.
struct SpanRecord {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  Clock::time_point start{};
  Clock::time_point end{};

  [[nodiscard]] double us() const { return seconds_between(start, end) * 1e6; }
};

/// Spans kept in memory for the whole traced run and written out at its
/// end. Thread-safe: the program invokes the wrapped callbacks from its
/// batching threads. Beyond `capacity` spans are counted, not kept.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity = 1'000'000) : capacity_(capacity) {}

  [[nodiscard]] std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }

  void record(const SpanRecord& s) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() < capacity_) {
      spans_.push_back(s);
    } else {
      ++dropped_;
    }
  }

  /// Durations (µs) of every kept span called `name`.
  [[nodiscard]] std::vector<double> durations_us(std::string_view name) const;
  /// Durations (µs) of the spans called `name` minus the time their child
  /// spans cover.
  [[nodiscard]] std::vector<double> self_us(std::string_view name) const;
  [[nodiscard]] double median_us(std::string_view name) const {
    return median(durations_us(name));
  }
  [[nodiscard]] double mean_us(std::string_view name) const {
    const std::vector<double> d = durations_us(name);
    double sum = 0.0;
    for (const double x : d) sum += x;
    return d.empty() ? 0.0 : sum / static_cast<double>(d.size());
  }

  /// Writes every span as one JSON object per line; false on I/O failure.
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  std::size_t capacity_;
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mu_;  ///< guards spans_ and dropped_
  std::vector<SpanRecord> spans_;
  std::uint64_t dropped_ = 0;
};

/// Records [construction, destruction) into `log`; a no-op when `log` is
/// null, which is how the untraced run skips all of it.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t parent = 0,
             std::uint64_t request = 0)
      : log_(log) {
    if (log_ == nullptr) return;
    rec_.name = name;
    rec_.id = log_->next_id();
    rec_.parent = parent;
    rec_.request = request;
    rec_.start = Clock::now();
  }
  ~ScopedSpan() {
    if (log_ == nullptr) return;
    rec_.end = Clock::now();
    log_->record(rec_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return rec_.id; }

 private:
  SpanLog* log_;
  SpanRecord rec_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload reports. `correct` covers every output check; `errors`
/// says which check failed.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;   ///< reference figures, printed before the result
  std::vector<std::string> errors;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed check; the first few are kept to be printed.
  void check(bool ok, std::string_view what) {
    if (ok) return;
    correct = false;
    if (errors.size() < 8) errors.emplace_back(what);
  }
};

/// Peak resident set of this process so far (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mib();

[[nodiscard]] Report run_serve_sync(const Options& opts);
[[nodiscard]] Report run_serve_batched(const Options& opts);
[[nodiscard]] Report run_build_surrogate(const Options& opts);

}  // namespace perfbench
