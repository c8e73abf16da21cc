// Serve workloads: LeNet-5 behind an in-process serve::Server and
// ModelRegistry, driven over loopback by one load-generator process with at
// most four client connections. Every hop runs: client encode, wire,
// registry routing, pool queue, replica, engine and reply.
//
//   serve_open  — open-loop Poisson arrivals at a low rate (mostly idle:
//                 shows per-hop wake-ups) and a high one (builds a queue),
//                 then a closed-loop capacity phase.
//   serve_churn — two models under open-loop traffic while a control
//                 connection polls Metrics and hot-swaps one model, so
//                 registry load/swap, multi-model routing and the stats
//                 path run beside inference.
#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "compiler/compile.hpp"
#include "hw/accelerator.hpp"
#include "loadgen.hpp"
#include "quant/qserialize.hpp"
#include "served.hpp"
#include "stats.hpp"

namespace rsnn_bench {

using namespace rsnn;

// ------------------------------------------------------------ shared parts

serve::RegistryOptions registry_options() {
  serve::RegistryOptions options;
  options.pool.replicas = 2;
  options.pool.policy = engine::AdmissionPolicy::kFifo;
  return options;
}

std::unique_ptr<ServedModel> make_served_model(
    const std::string& id, const quant::QuantizedNetwork& qnet,
    const std::vector<std::string>& paths, Inputs inputs,
    const serve::RegistryOptions& options) {
  auto model = std::make_unique<ServedModel>();
  model->id = id;
  model->paths = paths;
  for (const std::string& path : paths) quant::save_quantized(qnet, path);
  model->qnet = quant::load_quantized(paths.front());
  model->inputs = std::move(inputs);
  const compiler::CompiledDesign design =
      compiler::compile(model->qnet, options.compile);
  const hw::Accelerator acc(design.program);
  for (const TensorI& codes : model->inputs.codes) {
    const hw::AccelRunResult r = acc.run_codes(codes);
    model->expected.push_back(Expected{r.logits, r.total_cycles});
  }
  return model;
}

bool Checker::count(bool ok, const std::string& message) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    const std::lock_guard<std::mutex> lock(mu_);
    if (messages_.size() < 8) messages_.push_back(message);
  }
  return ok;
}

void Checker::merge_into(Report& report) {
  report.attempts(attempted_.exchange(0), failed_.exchange(0),
                  refused_.exchange(0));
  const std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& m : messages_) report.error(m);
  messages_.clear();
}

std::string LiveServer::start(const serve::RegistryOptions& options,
                              const std::vector<const ServedModel*>& models) {
  registry_ = std::make_unique<serve::ModelRegistry>(options);
  for (const ServedModel* m : models) {
    const std::string error = registry_->load_model(m->id, m->paths.front());
    if (!error.empty()) return error;
  }
  server_ = std::make_unique<serve::Server>(*registry_);
  return server_->start();
}

void LiveServer::stop() {
  if (server_ != nullptr) server_->stop();
  server_.reset();
  if (registry_ != nullptr) registry_->shutdown();
  registry_.reset();
}

bool infer_checked(serve::Client& client, int port, const ServedModel& model,
                   std::size_t image, std::int64_t request, Tracer& tracer,
                   Checker& checker, bool retry_refused) {
  ScopedSpan root(tracer, "request", -1, request);
  serve::InferRequest frame;
  frame.model_id = model.id;
  {
    ScopedSpan span(tracer, "quant.encode_activations", root.id(), request);
    frame.codes = quant::encode_activations(model.inputs.images[image],
                                            model.qnet.time_bits);
  }
  serve::InferReply reply;
  for (int retries = 0;; ++retries) {
    std::string error;
    {
      ScopedSpan span(tracer, "serve.Client::infer", root.id(), request);
      error = client.infer(frame, &reply);
    }
    if (!error.empty()) {
      client.close();
      client.connect_loopback(port);
      return checker.count(false, model.id + ": " + error);
    }
    if (!retry_refused || retries == kRefusalRetries ||
        reply.status != engine::RequestStatus::kRejected)
      break;
    checker.refused();
  }
  if (reply.status != engine::RequestStatus::kOk)
    return checker.count(false, model.id + ": status " +
                                    engine::status_name(reply.status) + " " +
                                    reply.error);
  const Expected& e = model.expected[image];
  return checker.count(
      reply.logits == e.logits && reply.total_cycles == e.total_cycles,
      model.id + ": image " + std::to_string(image) +
          " reply differs from the in-process result");
}

void record_engine_counters(Report& report,
                            const serve::ModelRegistry& registry) {
  std::int64_t dispatches = 0, rejected = 0, retries = 0;
  double batched = 0.0, imbalance = 1.0;
  for (const serve::ModelInfo& info : registry.snapshot()) {
    const engine::ServingStats& s = info.stats;
    dispatches += s.dispatches;
    rejected += s.rejected;
    retries += s.retries;
    batched += s.mean_batch * static_cast<double>(s.dispatches);
    std::int64_t total = 0, most = 0;
    for (std::int64_t n : s.per_replica) {
      total += n;
      most = std::max(most, n);
    }
    if (total > 0)
      imbalance = std::max(imbalance, static_cast<double>(most) *
                                          s.per_replica.size() / total);
  }
  report.metric("engine.mean_batch",
                dispatches > 0 ? batched / dispatches : 0.0, "count", 0,
                MetricKind::kLayer);
  report.metric("engine.dispatches", static_cast<double>(dispatches), "count",
                0, MetricKind::kLayer);
  report.metric("engine.replica_imbalance", imbalance, "ratio", 0,
                MetricKind::kLayer);
  report.metric("engine.rejected", static_cast<double>(rejected), "count", 0,
                MetricKind::kLayer);
  report.metric("engine.retries", static_cast<double>(retries), "count", 0,
                MetricKind::kLayer);
}

void record_stats_cost(Report& report, const serve::ModelRegistry& registry,
                       Tracer& tracer) {
  std::vector<double> ms;
  for (int i = 0; i < 21; ++i) {
    const double t0 = now_s();
    {
      ScopedSpan span(tracer, "registry.snapshot");
      const auto infos = registry.snapshot();
      (void)infos;
    }
    ms.push_back((now_s() - t0) * 1e3);
  }
  report.metric("engine.stats_ms", median(ms), "ms", ms.size(),
                MetricKind::kLayer);
}

// --------------------------------------------------------------- workloads

namespace {

/// Record the serving configuration in the report.
void record_serving(Report& report, const serve::RegistryOptions& options) {
  report.setting("engine", engine::engine_name(options.kind));
  report.setting("replicas", std::to_string(options.pool.replicas));
  report.setting("policy", engine::policy_name(options.pool.policy));
  report.setting("queue_capacity",
                 std::to_string(options.pool.queue_capacity));
  report.setting("fast_path.threads",
                 std::to_string(options.compile.fast_path_threads));
}

/// Sleep until the steady clock reads `t_s` (now_s() units).
void sleep_until_s(double t_s) {
  const double wait = t_s - now_s();
  if (wait > 0.0)
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

constexpr int kConnections = 4;  // the host's core count; one per thread
/// Closed-loop capacity phases use one connection per replica, so they keep
/// fewer threads runnable than the host has cores: with one per core, a
/// busy shared host cut capacity by more than half in some runs.
constexpr int kCapacityConnections = 2;
constexpr double kSloMs = 10.0;
constexpr double kWindowS = 0.25;

/// Requests per round of an open-loop phase that takes `seconds` of the
/// run: never fewer than p90 needs in every round and p99 over the run
/// (plus a margin for failures).
std::size_t round_requests(double rate, double seconds) {
  const std::size_t floor = std::max(
      samples_needed(90.0), (samples_needed(99.0) + 100) / kRounds + 1);
  return std::max(floor, static_cast<std::size_t>(rate * seconds / kRounds));
}

/// Seconds per round of a closed-loop phase that takes `seconds` of the
/// run: at least one capacity window.
double round_seconds(double seconds) {
  return std::max(kWindowS, seconds / kRounds);
}

std::string model_path(const Options& options, const std::string& name) {
  return options.work_dir + "/" + name + ".qsnn";
}

/// Set-up: from handing the .qsnn files to the registry to the first
/// correct reply of every model, repeated; reports the median and leaves
/// the last server running. False when the server could not start.
bool timed_setup(LiveServer& live, const serve::RegistryOptions& options,
                 const std::vector<const ServedModel*>& models, int reps,
                 Tracer& tracer, Checker& checker, Report& report) {
  std::vector<double> seconds;
  for (int rep = 0; rep < reps; ++rep) {
    live.stop();
    const double t0 = now_s();
    const std::string error = live.start(options, models);
    if (!error.empty()) {
      checker.count(false, "set-up: " + error);
      return false;
    }
    serve::Client client;
    client.connect_loopback(live.port());
    for (const ServedModel* m : models)
      infer_checked(client, live.port(), *m, 0, -1, tracer, checker);
    seconds.push_back(now_s() - t0);
  }
  report.metric("setup_s", median(seconds), "s", seconds.size(),
                MetricKind::kEndToEnd);
  return true;
}

std::vector<std::unique_ptr<serve::Client>> connect_all(int n, int port) {
  std::vector<std::unique_ptr<serve::Client>> clients;
  for (int i = 0; i < n; ++i) {
    clients.push_back(std::make_unique<serve::Client>());
    clients.back()->connect_loopback(port);
  }
  return clients;
}

void report_loadgen(Report& report, const std::vector<RequestRecord>& records) {
  const Lateness late = lateness(records);
  report.metric("loadgen.late_ms.max", late.max_ms, "ms", records.size(),
                MetricKind::kLayer);
  report.metric("loadgen.late_share", late.late_share, "share",
                records.size(), MetricKind::kLayer);
}

/// `send` with request indices offset by `base`, so that every request of a
/// run has its own index across phases.
SendFn offset(const SendFn& send, std::size_t base) {
  return [&send, base](int c, std::size_t i) { return send(c, base + i); };
}

/// Completion rates of a closed-loop phase, per kWindowS window.
std::vector<double> capacity_windows(const ClosedLoopResult& closed) {
  return completion_rates(closed.done_s, 0.0, closed.elapsed_s, kWindowS);
}

}  // namespace

void run_serve_open(const Options& options, Tracer& tracer, Report& report) {
  constexpr double kLowRate = 300.0;
  constexpr double kHighRate = 1500.0;
  const serve::RegistryOptions reg = registry_options();
  record_serving(report, reg);
  report.setting("rates", "low 300/s, high 1500/s (open loop, Poisson)");
  report.setting("connections", std::to_string(kConnections) + " open loop, " +
                                    std::to_string(kCapacityConnections) +
                                    " closed loop");
  report.setting("latency", "from due time to reply, low rate");

  const auto model = make_served_model(
      "lenet8", lenet5_model(kModelSeed, 8),
      {model_path(options, "lenet8")}, digit_inputs(options.seed, 256, 8),
      reg);
  report.metric("input.nonzero_code_share",
                nonzero_code_share(model->inputs.codes), "share",
                model->inputs.codes.size(), MetricKind::kLayer);

  Checker checker;
  LiveServer live;
  if (!timed_setup(live, reg, {model.get()}, setup_repetitions(options, 61),
                   tracer, checker, report))
    return checker.merge_into(report);
  auto clients = connect_all(kConnections, live.port());
  const int port = live.port();
  const SendFn send = [&](int c, std::size_t i) {
    return infer_checked(*clients[static_cast<std::size_t>(c)], port, *model,
                         i % model->inputs.images.size(),
                         static_cast<std::int64_t>(i), tracer, checker);
  };

  // kRounds rounds of low, high and closed-loop phases, so a burst of
  // interference from other tenants of the host spoils a round, not the run
  // (see summarize_rounds).
  const std::size_t n_low = round_requests(kLowRate, 0.45 * options.seconds);
  const std::size_t n_high = round_requests(kHighRate, 0.3 * options.seconds);
  const double closed_s = round_seconds(0.25 * options.seconds);
  run_closed_loop(kConnections, 0.3, send);  // warm-up
  std::vector<std::vector<double>> low_ms, high_ms;
  std::vector<RequestRecord> open;
  std::vector<double> capacity;
  std::size_t served = 0, within_slo = 0, high_sent = 0, base = 0;
  const double cpu0 = process_cpu_s();
  for (std::size_t r = 0; r < kRounds; ++r) {
    const auto low = run_open_loop(
        poisson_schedule(options.seed * 64 + 2 * r, kLowRate, n_low),
        kConnections, offset(send, base));
    base += low.size();
    const auto high = run_open_loop(
        poisson_schedule(options.seed * 64 + 2 * r + 1, kHighRate, n_high),
        kConnections, offset(send, base));
    base += high.size();
    const ClosedLoopResult closed =
        run_closed_loop(kCapacityConnections, closed_s, offset(send, base));
    base += closed.completed + closed.failed;

    low_ms.push_back(ok_latencies_ms(low));
    high_ms.push_back(ok_latencies_ms(high));
    for (const RequestRecord& rec : high)
      if (rec.ok && latency_ms(rec) <= kSloMs) ++within_slo;
    high_sent += high.size();
    open.insert(open.end(), low.begin(), low.end());
    open.insert(open.end(), high.begin(), high.end());
    const std::vector<double> windows = capacity_windows(closed);
    capacity.insert(capacity.end(), windows.begin(), windows.end());
    served += low_ms.back().size() + high_ms.back().size() + closed.completed;
  }
  const double cpu_s = process_cpu_s() - cpu0;

  report_latency(report, "", low_ms, MetricKind::kEndToEnd);
  report.metric("images_per_s", percentile(capacity, kRateQuantile), "1/s",
                capacity.size(), MetricKind::kEndToEnd);
  report.metric("cpu_ms_per_image", cpu_s * 1e3 / served, "ms", served,
                MetricKind::kEndToEnd);
  report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1, MetricKind::kEndToEnd);
  report_latency(report, ".high", high_ms, MetricKind::kNote);
  report.metric("slo_goodput.high",
                static_cast<double>(within_slo) / high_sent, "share",
                high_sent, MetricKind::kNote);

  if (tracer.enabled()) {
    report_loadgen(report, open);
    record_engine_counters(report, live.registry());
    record_stats_cost(report, live.registry(), tracer);
  }
  clients.clear();
  live.stop();
  checker.merge_into(report);
}

void run_serve_churn(const Options& options, Tracer& tracer, Report& report) {
  constexpr double kRate = 600.0;
  constexpr int kLoadConnections = kConnections - 1;  // one is the control
  const serve::RegistryOptions reg = registry_options();
  record_serving(report, reg);
  report.setting("rates", "600/s open loop (Poisson), lenet8:lenet4 = 3:1");
  report.setting("connections",
                 "3 open loop, 2 closed loop, 1 control");
  report.setting("control", "Metrics every 100 ms, LoadModel lenet8 every 1 s");
  report.setting("latency", "from due time to reply, during churn");

  // lenet8 alternates between two files holding the same network, so every
  // reply has one expected result whichever generation served it.
  const auto lenet8 = make_served_model(
      "lenet8", lenet5_model(kModelSeed, 8),
      {model_path(options, "lenet8_a"), model_path(options, "lenet8_b")},
      digit_inputs(options.seed, 256, 8), reg);
  const auto lenet4 = make_served_model(
      "lenet4", lenet5_model(kModelSeed + 1, 4),
      {model_path(options, "lenet4")}, digit_inputs(options.seed + 1, 256, 4),
      reg);
  report.metric("input.nonzero_code_share",
                nonzero_code_share(lenet8->inputs.codes), "share",
                lenet8->inputs.codes.size(), MetricKind::kLayer);

  Checker checker;
  LiveServer live;
  if (!timed_setup(live, reg, {lenet8.get(), lenet4.get()},
                   setup_repetitions(options, 61), tracer, checker, report))
    return checker.merge_into(report);
  const int port = live.port();
  auto clients = connect_all(kLoadConnections, port);
  // Seeded 3:1 model mix, fixed per request index.
  const std::size_t n = round_requests(kRate, 0.65 * options.seconds);
  std::vector<char> to_lenet8(n);
  Rng mix(options.seed * 3 + 1);
  for (char& c : to_lenet8) c = mix.next_below(4) != 0;
  const SendFn send = [&](int c, std::size_t i) {
    const ServedModel& m = to_lenet8[i % n] ? *lenet8 : *lenet4;
    return infer_checked(*clients[static_cast<std::size_t>(c)], port, m,
                         i % m.inputs.images.size(),
                         static_cast<std::int64_t>(i), tracer, checker,
                         /*retry_refused=*/true);
  };
  run_closed_loop(kLoadConnections, 0.3, send);  // warm-up

  std::atomic<bool> stop{false};
  std::vector<double> swap_ms, metrics_ms;
  std::thread control([&] {
    serve::Client client;
    client.connect_loopback(port);
    double next = now_s();
    for (int tick = 1;; ++tick) {
      next += 0.1;
      sleep_until_s(next);
      if (stop.load()) return;
      const double t0 = now_s();
      if (tick % 10 == 0) {
        serve::LoadModelReply reply;
        const std::string& path = lenet8->paths[(tick / 10) % 2];
        std::string error;
        {
          ScopedSpan span(tracer, "serve.Client::load_model");
          error = client.load_model("lenet8", path, &reply);
        }
        swap_ms.push_back((now_s() - t0) * 1e3);
        checker.count(error.empty() && reply.ok && reply.swapped,
                      "load_model: " + error + reply.detail);
      } else {
        serve::MetricsReply reply;
        std::string error;
        {
          ScopedSpan span(tracer, "serve.Client::metrics");
          error = client.metrics("", &reply);
        }
        metrics_ms.push_back((now_s() - t0) * 1e3);
        checker.count(error.empty() && reply.models.size() == 2,
                      "metrics: " + error);
      }
      if (!client.connected()) client.connect_loopback(port);
    }
  });

  // kRounds rounds of an open-loop and a closed-loop phase, as serve_open.
  const double closed_s = round_seconds(0.35 * options.seconds);
  std::vector<std::vector<double>> churn_ms;
  std::vector<RequestRecord> open;
  std::vector<double> capacity;
  std::size_t served = 0, base = 0;
  const double cpu0 = process_cpu_s();
  for (std::size_t r = 0; r < kRounds; ++r) {
    const auto churn = run_open_loop(
        poisson_schedule(options.seed * 64 + 32 + r, kRate, n),
        kLoadConnections, offset(send, base));
    base += churn.size();
    const ClosedLoopResult closed =
        run_closed_loop(kCapacityConnections, closed_s, offset(send, base));
    base += closed.completed + closed.failed;

    churn_ms.push_back(ok_latencies_ms(churn));
    open.insert(open.end(), churn.begin(), churn.end());
    const std::vector<double> windows = capacity_windows(closed);
    capacity.insert(capacity.end(), windows.begin(), windows.end());
    served += churn_ms.back().size() + closed.completed;
  }
  const double cpu_s = process_cpu_s() - cpu0;
  stop.store(true);
  control.join();

  report_latency(report, "", churn_ms, MetricKind::kEndToEnd);
  report.metric("images_per_s", percentile(capacity, kRateQuantile), "1/s",
                capacity.size(), MetricKind::kEndToEnd);
  report.metric("cpu_ms_per_image", cpu_s * 1e3 / served, "ms", served,
                MetricKind::kEndToEnd);
  report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1, MetricKind::kEndToEnd);
  report.metric("swap_ms", median(swap_ms), "ms", swap_ms.size(),
                MetricKind::kNote);
  report.metric("metrics_ms", median(metrics_ms), "ms", metrics_ms.size(),
                MetricKind::kNote);

  if (tracer.enabled()) {
    report_loadgen(report, open);
    record_engine_counters(report, live.registry());
    record_stats_cost(report, live.registry(), tracer);
  }
  clients.clear();
  live.stop();
  checker.merge_into(report);
}

}  // namespace rsnn_bench
