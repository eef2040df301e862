// serve_sync: one client drives the Listing-1 loop (put_tensor -> run_model
// -> unpack_tensor), one row per request, closed loop, through a single-node
// Orchestrator on its default options. The served model is a fixed-topology
// MLP for miniQMC (24 inputs, 2 outputs) with no encoder and no QoI check,
// so per-request fixed costs dominate: the keyed store, the registry, the
// stats and monitor sampling, and one OpenMP team start per layer at m = 1.
// Batching, the cluster, the autoencoder and the search do no work here.

#include <algorithm>
#include <numeric>

#include "apps/miniqmc_app.hpp"
#include "bench.hpp"
#include "checks.hpp"
#include "common/flops.hpp"
#include "core/pipeline.hpp"
#include "nn/topology.hpp"
#include "runtime/deployment.hpp"
#include "runtime/orchestrator.hpp"

namespace perfbench {
namespace {

using namespace ahn;

// The served model is trained from fixed seeds, so every run serves the same
// weights; only the request rows come from --seed.
constexpr std::uint64_t kTrainSeed = 20231;
constexpr std::size_t kTrainProblems = 2000;
constexpr std::size_t kHiddenLayers = 2;
constexpr std::size_t kHiddenUnits = 64;
constexpr std::size_t kEpochs = 40;
constexpr double kBuildEvery = 3.0;      ///< seconds of serving between rebuilds
constexpr std::size_t kPoolRows = 1024;  ///< requests in one round
constexpr std::size_t kBlock = 4096;     ///< latency samples per quantile block
constexpr std::size_t kTraceEvery = 64;  ///< traced run: spans on every 64th round
constexpr const char* kModel = "miniqmc";

Tensor as_row(std::span<const double> v) {
  Tensor t({1, v.size()});
  std::copy(v.begin(), v.end(), t.row(0).begin());
  return t;
}

/// The request rows of one round and what each must return.
struct Round {
  std::vector<Tensor> rows;
  std::vector<Tensor> expected;  ///< direct TrainedSurrogate::predict
};

/// Serves one request through the Listing-1 calls, with spans when `log` is
/// set. Returns the request's wall time in µs.
double serve_one(runtime::Client& client, const Tensor& row, Status& st, Tensor& out,
                 SpanLog* log, std::uint64_t request) {
  const Clock::time_point t0 = Clock::now();
  {
    const ScopedSpan req(log, "request", 0, request);
    {
      const ScopedSpan s(log, "runtime.put_tensor", req.id(), request);
      client.put_tensor("in", row);
    }
    {
      const ScopedSpan s(log, "runtime.run_model", req.id(), request);
      st = client.run_model(kModel, "in", "out");
    }
    if (st.is_ok()) {
      const ScopedSpan s(log, "runtime.unpack_tensor", req.id(), request);
      out = client.unpack_tensor("out");
    }
  }
  return seconds_since(t0) * 1e6;
}

}  // namespace

Report run_serve_sync(const Options& opts) {
  Report res;

  // ---- Set-up: problems, exact-region samples, model training, deploy. ----
  apps::MiniQmcApp train_app;
  train_app.generate_problems(kTrainProblems, kTrainSeed);
  std::vector<std::size_t> ids(kTrainProblems);
  std::iota(ids.begin(), ids.end(), 0);
  const core::AutoHPCnet framework{core::Config{}};
  std::vector<double> build_s, acquire_s, train_s;
  // One build of the served model from the fixed seeds: exact-region
  // samples, then training.
  const auto build_model = [&](nn::Dataset& samples) {
    const Clock::time_point t0 = Clock::now();
    samples = framework.acquire_samples(train_app, ids);
    const Clock::time_point t1 = Clock::now();
    Rng init_rng(kTrainSeed);
    nn::TopologySpec spec;
    spec.num_layers = kHiddenLayers;
    spec.hidden_units = kHiddenUnits;
    nn::TrainOptions train;
    train.epochs = kEpochs;
    train.seed = kTrainSeed;
    nn::TrainedSurrogate surrogate = nn::train_surrogate(
        nn::build_surrogate(spec, samples.in_features(), samples.out_features(), init_rng),
        samples, train);
    const Clock::time_point t2 = Clock::now();
    acquire_s.push_back(seconds_between(t0, t1));
    train_s.push_back(seconds_between(t1, t2));
    build_s.push_back(seconds_between(t0, t2));
    return surrogate;
  };
  nn::Dataset data;
  auto model = std::make_shared<runtime::ServableModel>();
  model->surrogate = build_model(data);
  const Tensor probe = as_row(data.x.row(0));
  const Tensor probe_out = model->surrogate.predict(probe);
  // The timed phases rebuild the model every kBuildEvery seconds, between
  // rounds, and build_s is the quiet tenth of those rebuilds (see
  // quiet_quantile): a build is half a second of small OpenMP regions that
  // another busy process on the same cores slowed 6-7x, so the builds of
  // one moment, as in set-up, follow the host's load of that moment. Every
  // rebuild must give the served weights again.
  const auto rebuild = [&] {
    nn::Dataset scratch;
    const nn::TrainedSurrogate again = build_model(scratch);
    res.check(checks::same_bits(again.predict(probe).flat(), probe_out.flat()),
              "two builds from the same seeds differ");
  };
  build_s.clear();  // the cold set-up build is part of setup_s only
  acquire_s.clear();
  train_s.clear();
  model->infer_ops = model->surrogate.net.inference_cost(1);
  runtime::Orchestrator orc;
  orc.deploy(runtime::DeploymentPackage::build(kModel, model, data.x));

  apps::MiniQmcApp pool_app;
  pool_app.generate_problems(kPoolRows, derive_seed(opts.seed, 1));
  Round round;
  for (std::size_t i = 0; i < kPoolRows; ++i) {
    round.rows.push_back(as_row(pool_app.input_features(i)));
    round.expected.push_back(model->surrogate.predict(round.rows.back()));
  }

  runtime::Client client(orc);
  std::uint64_t sent = 0;
  std::uint64_t request_id = 0;
  // Serves one round; every reply is checked against the direct prediction
  // outside the timed interval.
  const auto serve_round = [&](runtime::Client& c, SpanLog* log, BlockQuantiles* lat) {
    for (std::size_t i = 0; i < kPoolRows; ++i) {
      Status st;
      Tensor out;
      const double us = serve_one(c, round.rows[i], st, out, log, ++request_id);
      ++res.attempted;
      if (lat != nullptr) lat->add(us);
      if (!st.is_ok()) {
        ++res.failed;
        res.check(false, "request failed: " + st.to_string());
        continue;
      }
      const checks::Expected e{round.expected[i].flat(), {}, false};
      const std::string err = checks::check_row(i, out.flat(), e);
      if (!err.empty()) res.check(false, err);
    }
  };
  serve_round(client, nullptr, nullptr);  // warm-up: lazy state, caches
  sent += kPoolRows;
  const double setup_s = seconds_since(process_start());

  if (!opts.trace) {
    // ---- Timed phase: whole rounds until --seconds have passed. ----
    BlockQuantiles lat(kBlock);
    const Clock::time_point start = Clock::now();
    Clock::time_point last_build = start;
    while (seconds_since(start) < opts.seconds) {
      serve_round(client, nullptr, &lat);
      sent += kPoolRows;
      if (seconds_since(last_build) >= kBuildEvery) {
        rebuild();
        last_build = Clock::now();
      }
    }
    if (build_s.empty()) rebuild();
    const std::string count_err = checks::check_count(
        "requests_served", sent, orc.stats().snapshot().requests_served);
    res.check(count_err.empty(), count_err);
    res.add("rows_per_s", lat.per_second(), "rows/s");
    res.add("request_p50_us", lat.p50(), "us");
    res.add("build_s", quiet_quantile(build_s), "s");
    res.add("setup_s", setup_s, "s");
    res.add("peak_rss_mib", peak_rss_mib(), "MiB");
    res.notes.push_back("request_p99_us " + std::to_string(lat.p99()) + " over " +
                        std::to_string(lat.count()) + " requests in " +
                        std::to_string(lat.blocks()) + " blocks of " +
                        std::to_string(kBlock));
    res.notes.push_back("rebuilds " + std::to_string(build_s.size()) + ", fastest " +
                        std::to_string(*std::min_element(build_s.begin(), build_s.end())) +
                        " s, median " + std::to_string(median(build_s)) + " s");
    return res;
  }

  // ---- Traced phase: every round runs the untraced loop again (the
  // baseline of the tracing overhead); every kTraceEvery-th round adds
  // three passes over the same rows, with spans:
  //  traced     the loop with a span around each Listing-1 call;
  //  predict    a direct TrainedSurrogate::predict of each row (the m = 1 GEMMs);
  //  obs-off    run_model on a second orchestrator with the monitor off and
  //             head sampling at 0 (what observability costs per request).
  runtime::OrchestratorOptions quiet;
  quiet.monitor.enabled = false;
  quiet.trace_sample_every = 0;
  runtime::Orchestrator orc_quiet(runtime::DeviceModel{}, quiet);
  orc_quiet.deploy(runtime::DeploymentPackage::build(kModel, model, data.x));
  runtime::Client quiet_client(orc_quiet);
  serve_round(quiet_client, nullptr, nullptr);

  SpanLog log;
  BlockQuantiles plain(kBlock);
  OpCounts ops{};
  std::uint64_t ops_rows = 0;
  const Clock::time_point start = Clock::now();
  Clock::time_point last_build = start;
  for (std::uint64_t n = 0; seconds_since(start) < opts.seconds || n % kTraceEvery != 0; ++n) {
    if (seconds_since(last_build) >= kBuildEvery) {
      rebuild();
      last_build = Clock::now();
    }
    const FlopRegion region;
    serve_round(client, nullptr, &plain);
    ops += region.delta();
    ops_rows += kPoolRows;
    sent += kPoolRows;
    if (n % kTraceEvery != 0) continue;
    serve_round(client, &log, nullptr);
    sent += kPoolRows;
    for (std::size_t i = 0; i < kPoolRows; ++i) {
      Tensor out;
      {
        const ScopedSpan s(&log, "nn.predict_row", 0, ++request_id);
        out = model->surrogate.predict(round.rows[i]);
      }
      res.check(checks::same_bits(out.flat(), round.expected[i].flat()),
                "direct predict is not deterministic");
    }
    for (std::size_t i = 0; i < kPoolRows; ++i) {
      quiet_client.put_tensor("in", round.rows[i]);
      Status st;
      {
        const ScopedSpan s(&log, "runtime.run_model_obs_off", 0, ++request_id);
        st = quiet_client.run_model(kModel, "in", "out");
      }
      if (!st.is_ok()) res.check(false, "obs-off run_model failed: " + st.to_string());
    }
  }
  if (build_s.empty()) rebuild();
  const std::string count_err =
      checks::check_count("requests_served", sent, orc.stats().snapshot().requests_served);
  res.check(count_err.empty(), count_err);

  const double run_model_us = log.median_us("runtime.run_model");
  const double predict_us = log.median_us("nn.predict_row");
  res.add("runtime.put_tensor_us", log.median_us("runtime.put_tensor"), "us");
  res.add("runtime.run_model_us", run_model_us, "us");
  res.add("runtime.unpack_tensor_us", log.median_us("runtime.unpack_tensor"), "us");
  res.add("nn.predict_row_us", predict_us, "us");
  res.add("runtime.host_self_us", run_model_us - predict_us, "us");
  res.add("obs.serving_overhead_us",
          run_model_us - log.median_us("runtime.run_model_obs_off"), "us");
  res.add("tensor.flops_per_row",
          static_cast<double>(ops.flops) / static_cast<double>(ops_rows), "flop");
  res.add("tensor.bytes_per_row",
          static_cast<double>(ops.bytes_total()) / static_cast<double>(ops_rows), "B");
  res.add("apps.setup_acquire_s", median(acquire_s), "s");
  res.add("nn.setup_train_s", median(train_s), "s");
  const double traced_us = log.median_us("request");
  // Medians on both sides: the traced samples are too few for a quiet tenth.
  const double plain_us = plain.p50(0.5);
  res.add("bench.trace_overhead_pct", 100.0 * (traced_us - plain_us) / plain_us, "%");
  res.notes.push_back("traced request p50 " + std::to_string(traced_us) +
                      " us against untraced " + std::to_string(plain_us) + " us");
  if (!opts.spans_path.empty()) {
    res.check(log.write_jsonl(opts.spans_path), "cannot write spans to " + opts.spans_path);
  }
  return res;
}

}  // namespace perfbench
