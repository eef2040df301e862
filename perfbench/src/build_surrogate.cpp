// build_surrogate: the whole offline pipeline, AutoHPCnet::run, at a fixed
// small budget with one search worker, on the sparse-input CG app (24
// unknowns, 600 input features). The CSR autoencoder (sparse +
// autoencoder), the training-shape GEMMs, gp and nas do the work; no serving
// code runs, so a serving-side change should read no change here.
//
// Every build uses the same fixed seed: the search's path, and with it the
// build's cost, changes by up to 2x from one problem seed to another (0.93 s
// to 1.92 s over twelve seeds on a 4-core VM), which no run length could
// average out. --seed chooses the held-out problems on which the traced run
// times the exact region and the built surrogate's single-row inference.

#include <cmath>
#include <numeric>
#include <optional>

#include "apps/cg_app.hpp"
#include "bench.hpp"
#include "checks.hpp"
#include "common/flops.hpp"
#include "core/evaluation.hpp"
#include "core/pipeline.hpp"

namespace perfbench {
namespace {

using namespace ahn;

constexpr std::size_t kCgUnknowns = 24;
constexpr std::size_t kHeldOut = 64;  ///< held-out problems from --seed

core::Config build_config() {
  core::Config c;
  c.seed = 4242;
  c.train_problems = 200;
  c.valid_problems = 10;
  c.eval_problems = 20;
  c.outer_iterations = 2;
  c.inner_iterations = 3;
  c.bayesian_init = 2;
  c.k_max = 32;
  c.ae_epochs = 10;
  c.num_epoch = 30;
  c.retrain_epochs = 60;
  c.search_workers = 1;
  return c;
}

/// True when two builds produced the same surrogate and the same report.
bool same_build(const core::PipelineResult& a, const core::PipelineResult& b,
                std::span<const double> probe_row) {
  const std::vector<double> pa = a.model.infer(probe_row);
  const std::vector<double> pb = b.model.infer(probe_row);
  return checks::same_bits(pa, pb) && a.model.spec.describe() == b.model.spec.describe() &&
         a.model.latent_k == b.model.latent_k &&
         a.search.evaluations() == b.search.evaluations() &&
         a.evaluation.mean_qoi_error == b.evaluation.mean_qoi_error &&
         a.evaluation.hit_rate == b.evaluation.hit_rate;
}

/// Recomputes the held-out evaluation from run_region and
/// PipelineModel::infer, and checks the search's own claims.
void check_build(const apps::Application& app, const core::Config& config,
                 const core::PipelineResult& r, Report& res) {
  double err_sum = 0.0;
  std::size_t hits = 0;
  for (const std::size_t p : r.eval_problems) {
    const std::vector<double> exact = app.run_region(p).outputs;
    const std::vector<double> pred = r.model.infer(app.input_features(p));
    const double err = app.qoi_error(p, exact, pred);
    err_sum += err;
    hits += err <= config.mu ? 1 : 0;
  }
  const double n = static_cast<double>(r.eval_problems.size());
  const double mean_err = err_sum / n;
  res.check(std::abs(mean_err - r.evaluation.mean_qoi_error) <=
                1e-9 * std::max(1.0, std::abs(mean_err)),
            "held-out mean QoI error " + std::to_string(r.evaluation.mean_qoi_error) +
                " but recomputed " + std::to_string(mean_err));
  res.check(static_cast<double>(hits) / n == r.evaluation.hit_rate,
            "held-out hit rate " + std::to_string(r.evaluation.hit_rate) +
                " but recomputed " + std::to_string(static_cast<double>(hits) / n));
  for (const nas::SearchStep& step : r.search.steps) {
    nas::PipelineModel candidate;
    candidate.quality_error = step.quality_error;
    candidate.modeled_infer_seconds = step.modeled_infer_seconds;
    res.check(!nas::better_pipeline(candidate, r.search.best, config.quality_loss),
              "a search step beats search.best: " + step.spec.describe());
  }
  res.check(!r.search.found_feasible || r.search.best.quality_error <= config.quality_loss,
            "found_feasible but f_e exceeds the quality bound");
}

/// Per-layer timings of one build, from its spans.
struct StagedBuild {
  core::PipelineResult result;
  double search_s = 0.0;
  double quality_eval_s = 0.0;
  std::size_t quality_evals = 0;
};

/// AutoHPCnet::run's steps called one by one through the program's public
/// functions, with a span around each and around every quality evaluation
/// the search calls back. It mirrors core/pipeline.cpp for one search
/// worker; the traced run fails its output check when the copy no longer
/// rebuilds run()'s model, so its figures always describe run()'s steps.
StagedBuild staged_build(const core::AutoHPCnet& framework, apps::Application& app,
                         SpanLog& log, std::uint64_t build_id) {
  const core::Config& config = framework.config();
  const ScopedSpan root(&log, "build", 0, build_id);
  StagedBuild sb;
  core::PipelineResult& result = sb.result;
  const std::size_t n_train = config.train_problems;
  const std::size_t total = n_train + config.valid_problems + config.eval_problems;
  app.generate_problems(total, config.seed);
  std::vector<std::size_t> all(total);
  std::iota(all.begin(), all.end(), 0);
  const std::span<const std::size_t> train_ids(all.data(), n_train);
  const std::span<const std::size_t> valid_ids(all.data() + n_train, config.valid_problems);
  const std::span<const std::size_t> eval_ids(all.data() + n_train + config.valid_problems,
                                              config.eval_problems);
  result.eval_problems.assign(eval_ids.begin(), eval_ids.end());

  nn::Dataset data;
  {
    const ScopedSpan s(&log, "apps.acquire", root.id(), build_id);
    data = framework.acquire_samples(app, train_ids);
  }
  std::shared_ptr<sparse::Csr> sparse_storage;
  std::optional<nas::SearchTask> task;
  {
    const ScopedSpan s(&log, "core.make_task", root.id(), build_id);
    task.emplace(framework.make_task(app, std::move(data), valid_ids, sparse_storage));
  }
  {
    const ScopedSpan s(&log, "nas.search", root.id(), build_id);
    const std::uint64_t search_span = s.id();
    auto quality = task->evaluate_quality;
    task->evaluate_quality = [&, quality, search_span](const nas::PipelineModel& pm) {
      const Clock::time_point t0 = Clock::now();
      double fe = 0.0;
      {
        const ScopedSpan q(&log, "nas.quality_eval", search_span, build_id);
        fe = quality(pm);
      }
      sb.quality_eval_s += seconds_since(t0);
      ++sb.quality_evals;
      return fe;
    };
    const Clock::time_point t0 = Clock::now();
    result.search = nas::TwoDNas(config.nas_options()).search(*task);
    sb.search_s = seconds_since(t0);
    task->evaluate_quality = quality;
  }
  result.model = result.search.best;
  if (config.retrain_epochs > config.num_epoch &&
      result.model.surrogate.net.layer_count() > 0) {
    const ScopedSpan s(&log, "nn.retrain", root.id(), build_id);
    task->train.epochs = config.retrain_epochs;
    task->train.patience = 30;
    nn::Dataset reduced;
    if (result.model.encoder != nullptr) {
      reduced.x = task->sparse_x != nullptr
                      ? result.model.encoder->encode_sparse(*task->sparse_x)
                      : result.model.encoder->encode(task->data.x);
      reduced.y = task->data.y;
    } else {
      reduced = task->data;
    }
    Rng retrain_rng(config.seed ^ 0x2e72a12ULL);
    nas::PipelineModel retrained = nas::evaluate_candidate(
        *task, result.model.spec, result.model.encoder, reduced, retrain_rng);
    if (retrained.quality_error <= result.model.quality_error) {
      result.model = std::move(retrained);
    }
  }
  {
    const ScopedSpan s(&log, "core.evaluate", root.id(), build_id);
    core::EvalOptions eopts;
    eopts.mu = config.mu;
    result.evaluation =
        core::evaluate_pipeline(app, eval_ids, result.model, task->device, eopts);
  }
  return sb;
}

}  // namespace

Report run_build_surrogate(const Options& opts) {
  Report res;

  // ---- Set-up: the app, one cold build (the reference every timed build
  // must reproduce), and the held-out problems from --seed. ----
  const core::Config config = build_config();
  const core::AutoHPCnet framework(config);
  apps::CgApp app(kCgUnknowns);
  const core::PipelineResult reference = framework.run(app);
  check_build(app, config, reference, res);
  apps::CgApp held_out_app(kCgUnknowns);
  held_out_app.generate_problems(kHeldOut, derive_seed(opts.seed, 3));
  std::vector<std::vector<double>> held_out, held_out_pred;
  for (std::size_t i = 0; i < kHeldOut; ++i) {
    held_out.push_back(held_out_app.input_features(i));
    held_out_pred.push_back(reference.model.infer(held_out.back()));
    res.check(held_out_pred.back().size() == app.output_dim(), "surrogate output width");
  }
  const std::vector<double>& probe_row = held_out.front();
  const double setup_s = seconds_since(process_start());

  const Clock::time_point start = Clock::now();
  if (!opts.trace) {
    // Whole builds until --seconds have passed. A build is this workload's
    // one kind of request, so each is a block of one sample: request_p50_us
    // is the quiet tenth of the builds (see quiet_quantile), and rows_per_s
    // the training rows such a build turns into a surrogate per second.
    std::vector<double> build_s;
    do {
      const Clock::time_point t0 = Clock::now();
      const core::PipelineResult r = framework.run(app);
      build_s.push_back(seconds_since(t0));
      ++res.attempted;
      res.check(same_build(r, reference, probe_row),
                "a build differs from the set-up build of the same inputs");
    } while (seconds_since(start) < opts.seconds);
    const double build_quiet = quiet_quantile(build_s);
    res.add("rows_per_s", static_cast<double>(config.train_problems) / build_quiet, "rows/s");
    res.add("request_p50_us", build_quiet * 1e6, "us");
    res.add("build_s", build_quiet, "s");
    res.add("setup_s", setup_s, "s");
    res.add("peak_rss_mib", peak_rss_mib(), "MiB");
    res.notes.push_back("builds " + std::to_string(build_s.size()) + ", model " +
                        reference.model.spec.describe() + " K=" +
                        std::to_string(reference.model.latent_k) + ", f_e " +
                        std::to_string(reference.model.quality_error) + ", hit rate " +
                        std::to_string(reference.evaluation.hit_rate));
    return res;
  }

  // ---- Traced phase: builds alternate between AutoHPCnet::run (untraced,
  // the baseline of the tracing overhead) and the staged, traced copy; after
  // each pair, the exact region and the built surrogate are timed on every
  // held-out problem (reference figures, same CPU). ----
  SpanLog log;
  std::vector<double> plain_s, staged_s, search_s, ae_s, quality_s, quality_n, candidates,
      rest_s, gflop, region_us, infer_us;
  std::uint64_t build_id = 0;
  do {
    Clock::time_point t0 = Clock::now();
    const core::PipelineResult r = framework.run(app);
    plain_s.push_back(seconds_since(t0));
    res.check(same_build(r, reference, probe_row),
              "a build differs from the set-up build of the same inputs");
    const FlopRegion region;
    t0 = Clock::now();
    StagedBuild sb = staged_build(framework, app, log, ++build_id);
    staged_s.push_back(seconds_since(t0));
    gflop.push_back(static_cast<double>(region.delta().flops) * 1e-9);
    res.attempted += 2;
    res.check(same_build(sb.result, reference, probe_row),
              "staged copy no longer rebuilds AutoHPCnet::run's model");
    check_build(app, config, sb.result, res);
    search_s.push_back(sb.search_s);
    ae_s.push_back(sb.result.search.autoencoder_train_seconds);
    quality_s.push_back(sb.quality_eval_s);
    quality_n.push_back(static_cast<double>(sb.quality_evals));
    candidates.push_back(static_cast<double>(sb.result.search.evaluations()));
    rest_s.push_back(sb.search_s - sb.result.search.autoencoder_train_seconds -
                     sb.quality_eval_s);
    for (std::size_t i = 0; i < kHeldOut; ++i) {
      const ScopedSpan s(&log, "apps.region", 0, 0);
      t0 = Clock::now();
      (void)held_out_app.run_region(i);
      region_us.push_back(seconds_since(t0) * 1e6);
    }
    for (std::size_t i = 0; i < kHeldOut; ++i) {
      std::vector<double> out;
      {
        const ScopedSpan s(&log, "nn.surrogate_infer", 0, 0);
        t0 = Clock::now();
        out = reference.model.infer(held_out[i]);
        infer_us.push_back(seconds_since(t0) * 1e6);
      }
      res.check(checks::same_bits(out, held_out_pred[i]),
                "held-out inference is not deterministic");
    }
    res.attempted += 2 * kHeldOut;
  } while (seconds_since(start) < opts.seconds);

  res.add("apps.acquire_s", median(log.durations_us("apps.acquire")) * 1e-6, "s");
  res.add("core.make_task_s", median(log.durations_us("core.make_task")) * 1e-6, "s");
  res.add("nas.search_s", median(search_s), "s");
  res.add("nas.candidates", median(candidates), "count");
  res.add("nas.quality_eval_s", median(quality_s), "s");
  res.add("nas.quality_evals", median(quality_n), "count");
  res.add("autoencoder.train_s", median(ae_s), "s");
  res.add("nas.search_rest_s", median(rest_s), "s");
  res.add("nn.retrain_s", median(log.durations_us("nn.retrain")) * 1e-6, "s");
  res.add("core.evaluate_s", median(log.durations_us("core.evaluate")) * 1e-6, "s");
  res.add("tensor.build_gflop", median(gflop), "GFLOP");
  res.add("apps.region_us", median(region_us), "us");
  res.add("nn.surrogate_infer_us", median(infer_us), "us");
  res.add("bench.trace_overhead_pct",
          100.0 * (median(staged_s) - median(plain_s)) / median(plain_s), "%");
  res.notes.push_back("measured region speedup " +
                      std::to_string(median(region_us) / median(infer_us)) +
                      "x (exact region over built surrogate, per held-out problem)");
  if (!opts.spans_path.empty()) {
    res.check(log.write_jsonl(opts.spans_path), "cannot write spans to " + opts.spans_path);
  }
  return res;
}

}  // namespace perfbench
