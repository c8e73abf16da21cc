// The traced run's per-layer probes. Each one calls a single layer through
// its public entry points and records a span around every call; the
// per-layer metrics are medians over those spans.
//
//   hw      — per-op host time (run_codes_range over each op, fused
//             conv+pool pairs as one) beside modeled cycles, LeNet-5 T=8
//             and VGG-11 T=3, single-threaded, single image.
//   common  — TaskPool speed-up of the VGG-11 batch at 2 threads over 1.
//   engine  — ModelRegistry::submit().get() in-process at the low rate,
//             against run_codes_into alone; their difference is the self
//             time of queueing and hand-off.
//   serve   — Client::infer over loopback at the same rate; its excess over
//             submit is the wire's self time. Frame encode/decode and sizes.
//   set-up  — load_quantized, compile, prepare_fast_path and a registry
//             load of the workload's model.
#include <algorithm>
#include <string>
#include <vector>

#include "compiler/compile.hpp"
#include "hw/accelerator.hpp"
#include "hw/fast_path.hpp"
#include "loadgen.hpp"
#include "op_groups.hpp"
#include "quant/qserialize.hpp"
#include "serve/wire.hpp"
#include "served.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace rsnn_bench {

using namespace rsnn;

namespace {

constexpr double kProbeRate = 300.0;  // serve_open's low rate
constexpr std::size_t kProbeRequests = 300;

void layer(Report& report, const std::string& name, double value,
           const std::string& unit, std::size_t samples) {
  if (!report.has(name))
    report.metric(name, value, unit, samples, MetricKind::kLayer);
}

void profile_ops(const std::string& model, hw::AcceleratorConfig config,
                 const quant::QuantizedNetwork& qnet, const Inputs& inputs,
                 int reps, Tracer& tracer, Checker& checker, Report& report) {
  config.fast_path.threads = 1;
  const hw::Accelerator acc(config, qnet);
  hw::Accelerator::WorkerState state = acc.make_worker_state();
  const std::vector<OpGroup> groups = group_ops(acc.program().ops());
  const std::size_t images = inputs.codes.size();

  // Each group's input codes per image (the boundary of the ops before it),
  // whole-run results, and a warm-up of every range.
  std::vector<std::vector<TensorI>> group_in(images);
  std::vector<hw::AccelRunResult> whole(images);
  for (std::size_t i = 0; i < images; ++i) {
    acc.run_codes_into(state, inputs.codes[i], whole[i]);
    for (const OpGroup& g : groups) {
      TensorI in = inputs.codes[i];
      if (g.begin > 0)
        acc.run_codes_range(state, inputs.codes[i], 0, g.begin,
                            hw::SimMode::kCycleAccurate, &in);
      const hw::AccelRunResult tail =
          acc.run_codes_range(state, in, g.begin, acc.program().size());
      checker.count(tail.logits == whole[i].logits,
                    model + ": range run from op " + std::to_string(g.begin) +
                        " differs from the whole run");
      group_in[i].push_back(std::move(in));
    }
  }

  std::vector<double> whole_ns;
  std::vector<std::vector<double>> group_ns(groups.size());
  hw::AccelRunResult out;
  for (int rep = 0; rep < reps; ++rep)
    for (std::size_t i = 0; i < images; ++i) {
      const auto request = static_cast<std::int64_t>(i);
      whole_ns.push_back(timed_span(tracer, "hw.run_codes_into", -1, request,
                                    [&] {
        acc.run_codes_into(state, inputs.codes[i], out);
      }));
      for (std::size_t g = 0; g < groups.size(); ++g)
        group_ns[g].push_back(timed_span(tracer, "hw.run_codes_range", -1,
                                          request, [&] {
          const auto r = acc.run_codes_range(state, group_in[i][g],
                                             groups[g].begin, groups[g].end);
          (void)r;
        }));
    }

  const std::string stem = "hw." + model + ".";
  double attributed = 0.0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    double cycles = 0.0;
    for (const hw::AccelRunResult& r : whole)
      for (std::size_t k = groups[g].begin; k < groups[g].end; ++k)
        cycles += static_cast<double>(r.layers[k].cycles);
    const double ns = median(group_ns[g]);
    attributed += ns;
    const std::string label = stem + group_label(groups[g]);
    layer(report, label + ".host_ns", ns, "ns", group_ns[g].size());
    layer(report, label + ".cycles", cycles / images, "cycles", images);
  }
  layer(report, stem + "unattributed_ns", median(whole_ns) - attributed, "ns",
        whole_ns.size());
  double adder_ops = 0.0;
  for (const hw::AccelRunResult& r : whole)
    adder_ops += static_cast<double>(r.total_adder_ops);
  layer(report, stem + "adder_ops_per_image", adder_ops / images, "count",
        images);
}

void probe_taskpool(const quant::QuantizedNetwork& qnet, const Inputs& inputs,
                    Tracer& tracer, Checker& checker, Report& report) {
  hw::AcceleratorConfig one = hw::vgg11_table3_config();
  one.fast_path.threads = 1;
  hw::AcceleratorConfig two = one;
  two.fast_path.threads = 2;
  const hw::Accelerator acc1(one, qnet), acc2(two, qnet);
  auto state1 = acc1.make_worker_state(), state2 = acc2.make_worker_state();
  const std::size_t batch = inputs.codes.size();
  std::vector<hw::AccelRunResult> r1(batch), r2(batch);
  std::vector<double> speedup;
  for (int round = 0; round < 10; ++round) {
    const double ns1 = timed_span(tracer, "hw.run_codes_batched_into", -1, 1,
                                  [&] {
      acc1.run_codes_batched_into(state1, inputs.codes.data(), batch,
                                  r1.data());
    });
    const double ns2 = timed_span(tracer, "hw.run_codes_batched_into", -1, 2,
                                  [&] {
      acc2.run_codes_batched_into(state2, inputs.codes.data(), batch,
                                  r2.data());
    });
    if (round > 0) speedup.push_back(ns1 / ns2);  // round 0 warms up
    for (std::size_t b = 0; b < batch; ++b)
      checker.count(r1[b].logits == r2[b].logits &&
                        r1[b].total_cycles == r2[b].total_cycles,
                    "vgg11: 2-thread batch differs from 1-thread");
  }
  layer(report, "common.taskpool_speedup", median(speedup), "x",
        speedup.size());
}

/// One request's hops: service alone, in-process submit, and the wire.
void probe_request_path(const Options& options, Tracer& tracer,
                        Checker& checker, Report& report) {
  const serve::RegistryOptions reg = registry_options();
  const auto model = make_served_model(
      "lenet8", lenet5_model(kModelSeed, 8),
      {options.work_dir + "/probe_lenet8.qsnn"},
      digit_inputs(options.seed, 256, 8), reg);
  const std::size_t n = model->inputs.codes.size();

  // Service: the replica's work for one request, run inline.
  std::vector<double> service_ms;
  {
    const compiler::CompiledDesign design =
        compiler::compile(model->qnet, reg.compile);
    const hw::Accelerator acc(design.program);
    hw::Accelerator::WorkerState state = acc.make_worker_state();
    hw::AccelRunResult out;
    for (std::size_t i = 0; i < kProbeRequests + 20; ++i) {
      const double ns = timed_span(tracer, "engine.run_codes_into", -1,
                                   static_cast<std::int64_t>(i), [&] {
        acc.run_codes_into(state, model->inputs.codes[i % n], out);
      });
      if (i >= 20) service_ms.push_back(ns * 1e-6);
    }
  }

  LiveServer live;
  const std::string error = live.start(reg, {model.get()});
  if (!checker.count(error.empty(), "probe server: " + error)) return;

  // In-process submit at the low rate, open loop, one caller.
  std::vector<double> submit_ms(kProbeRequests);
  run_open_loop(
      poisson_schedule(options.seed * 5 + 1, kProbeRate, kProbeRequests), 1,
      [&](int, std::size_t i) {
        engine::Request request;
        request.model_id = model->id;
        request.codes = model->inputs.codes[i % n];
        engine::ServingResult result;
        submit_ms[i] = 1e-6 * timed_span(
            tracer, "registry.submit", -1, static_cast<std::int64_t>(i), [&] {
              result = live.registry().submit(std::move(request)).get();
            });
        return checker.count(result.status == engine::RequestStatus::kOk &&
                                 matches(result.result,
                                         model->expected[i % n]),
                             "probe submit: wrong or failed result");
      });

  // The same requests over the wire, one connection.
  serve::Client client;
  client.connect_loopback(live.port());
  const std::size_t mark = tracer.size();
  const auto records = run_open_loop(
      poisson_schedule(options.seed * 5 + 2, kProbeRate, kProbeRequests), 1,
      [&](int, std::size_t i) {
        return infer_checked(client, live.port(), *model, i % n,
                             static_cast<std::int64_t>(i), tracer, checker);
      });
  const std::vector<Span> spans = tracer.spans(mark);
  std::vector<double> rtt_ms = span_durations_ns(spans, "serve.Client::infer");
  std::vector<double> encode_us =
      span_durations_ns(spans, "quant.encode_activations");
  for (double& v : rtt_ms) v *= 1e-6;
  for (double& v : encode_us) v *= 1e-3;

  // Frame encode/decode cost and sizes, on a real request and reply.
  serve::InferRequest frame;
  frame.model_id = model->id;
  frame.codes = model->inputs.codes[0];
  serve::InferReply reply;
  client.infer(frame, &reply);
  const std::vector<std::uint8_t> reply_payload = serve::encode(reply);
  std::vector<double> enc_us, dec_us;
  std::size_t request_bytes = 0;
  for (int i = 0; i < 200; ++i) {
    enc_us.push_back(1e-3 * timed_span(tracer, "serve.encode", -1, i, [&] {
      request_bytes = serve::encode(frame).size();
    }));
    serve::InferReply decoded;
    dec_us.push_back(1e-3 * timed_span(tracer, "serve.decode", -1, i, [&] {
      serve::decode(reply_payload, &decoded);
    }));
  }

  const double service = median(service_ms);
  const double submit = median(submit_ms);
  const double rtt = median(rtt_ms);
  layer(report, "engine.service_ms", service, "ms", service_ms.size());
  layer(report, "engine.submit_ms", submit, "ms", submit_ms.size());
  layer(report, "engine.queue_ms", submit - service, "ms", submit_ms.size());
  layer(report, "serve.rtt_ms", rtt, "ms", rtt_ms.size());
  layer(report, "serve.wire_ms", rtt - submit, "ms", rtt_ms.size());
  layer(report, "serve.encode_us", median(enc_us), "us", enc_us.size());
  layer(report, "serve.decode_us", median(dec_us), "us", dec_us.size());
  layer(report, "serve.request_bytes",
        static_cast<double>(serve::kHeaderBytes + request_bytes), "bytes", 0);
  layer(report, "serve.reply_bytes",
        static_cast<double>(serve::kHeaderBytes + reply_payload.size()),
        "bytes", 0);
  layer(report, "quant.encode_us", median(encode_us), "us", encode_us.size());
  layer(report, "serve.errors",
        static_cast<double>(std::count_if(
            records.begin(), records.end(),
            [](const RequestRecord& r) { return !r.ok; })),
        "count", 0);
  if (!report.has("loadgen.late_share")) {
    const Lateness late = lateness(records);
    layer(report, "loadgen.late_ms.max", late.max_ms, "ms", records.size());
    layer(report, "loadgen.late_share", late.late_share, "share",
          records.size());
  }
  if (!report.has("engine.dispatches"))
    record_engine_counters(report, live.registry());
  if (!report.has("engine.stats_ms"))
    record_stats_cost(report, live.registry(), tracer);
}

/// The set-up path of the workload's model, step by step.
void probe_setup_path(const std::string& id,
                      const quant::QuantizedNetwork& qnet,
                      const hw::AcceleratorConfig& config,
                      const std::string& path, int reps, Tracer& tracer,
                      Checker& checker, Report& report) {
  quant::save_quantized(qnet, path);
  const serve::RegistryOptions reg = registry_options();
  std::vector<double> load_ms, compile_ms, prepare_ms, registry_ms;
  for (int rep = 0; rep < reps; ++rep) {
    quant::QuantizedNetwork loaded;
    load_ms.push_back(1e-6 * timed_span(tracer, "quant.load_quantized", -1,
                                        rep, [&] {
      loaded = quant::load_quantized(path);
    }));
    compile_ms.push_back(1e-6 * timed_span(tracer, "compiler.compile", -1, rep,
                                           [&] {
      const auto design = compiler::compile(loaded, reg.compile);
      (void)design;
    }));
    const ir::LayerProgram program = ir::lower(loaded, config);
    prepare_ms.push_back(1e-6 * timed_span(tracer, "hw.prepare_fast_path", -1,
                                           rep, [&] {
      const hw::FastPrepared prep = hw::prepare_fast_path(program);
      (void)prep;
    }));
    serve::ModelRegistry registry(reg);
    std::string error;
    registry_ms.push_back(1e-6 * timed_span(tracer, "registry.load_model", -1,
                                            rep, [&] {
      error = registry.load_model(id, path);
    }));
    checker.count(error.empty(), "registry load: " + error);
  }
  layer(report, "quant.load_ms", median(load_ms), "ms", load_ms.size());
  layer(report, "compiler.compile_ms", median(compile_ms), "ms",
        compile_ms.size());
  layer(report, "hw.prepare_ms", median(prepare_ms), "ms", prepare_ms.size());
  layer(report, "registry.load_ms", median(registry_ms), "ms",
        registry_ms.size());
}

}  // namespace

void run_layer_probes(const Options& options, Tracer& tracer, Report& report) {
  Checker checker;
  const quant::QuantizedNetwork lenet = lenet5_model(kModelSeed, 8);
  profile_ops("lenet5", hw::lenet_reference_config(), lenet,
              digit_inputs(options.seed, 16, 8), 5, tracer, checker, report);
  probe_request_path(options, tracer, checker, report);
  {
    const quant::QuantizedNetwork vgg = vgg11_model(kModelSeed);
    const Inputs objects = object_inputs(options.seed, 8, 3);
    profile_ops("vgg11", hw::vgg11_table3_config(), vgg,
                Inputs{{objects.images.begin(), objects.images.begin() + 4},
                       {objects.codes.begin(), objects.codes.begin() + 4}},
                3, tracer, checker, report);
    probe_taskpool(vgg, objects, tracer, checker, report);
    if (options.workload == "vgg11_t3_batch")
      probe_setup_path("vgg11", vgg, hw::vgg11_table3_config(),
                       options.work_dir + "/probe_vgg11.qsnn", 3, tracer,
                       checker, report);
  }
  if (options.workload != "vgg11_t3_batch")
    probe_setup_path("lenet8", lenet, hw::lenet_reference_config(),
                     options.work_dir + "/probe_setup_lenet8.qsnn", 5, tracer,
                     checker, report);
  checker.merge_into(report);
}

}  // namespace rsnn_bench
