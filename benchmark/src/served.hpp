// Pieces shared by the serve workloads and the traced run's path probe: a
// model saved to .qsnn with its expected results, a live in-process
// Server + ModelRegistry on a kernel-assigned loopback port, and checked
// client requests.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"
#include "serve/client.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace rsnn_bench {

/// One served model: its .qsnn file(s), the network as loaded from the
/// first file, its inputs, and the result each input must produce.
struct ServedModel {
  std::string id;
  std::vector<std::string> paths;
  rsnn::quant::QuantizedNetwork qnet;
  Inputs inputs;
  std::vector<Expected> expected;
};

/// The serving shape every serve workload uses: 2 replicas behind FIFO
/// admission on the daemon's default engine (the CI serve-smoke shape).
rsnn::serve::RegistryOptions registry_options();

/// Save `qnet` to each of `paths`, load it back from the first, and compute
/// the expected result of every input with the in-process accelerator on
/// the design the registry derives (compiler::compile with `options`).
std::unique_ptr<ServedModel> make_served_model(
    const std::string& id, const rsnn::quant::QuantizedNetwork& qnet,
    const std::vector<std::string>& paths, Inputs inputs,
    const rsnn::serve::RegistryOptions& options);

/// Failure accounting shared by client threads.
class Checker {
 public:
  /// Count one attempt; returns `ok`. On failure keeps the message.
  bool count(bool ok, const std::string& message);
  /// Count one refusal that was retried (see infer_checked).
  void refused() { ++refused_; }
  void merge_into(Report& report);

 private:
  std::atomic<std::int64_t> attempted_{0};
  std::atomic<std::int64_t> failed_{0};
  std::atomic<std::int64_t> refused_{0};
  std::mutex mu_;
  std::vector<std::string> messages_;
};

/// Registry + server, started and torn down in the right order.
class LiveServer {
 public:
  LiveServer() = default;
  ~LiveServer() { stop(); }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  /// Create the registry, load every model from its first path and start
  /// the server. Diagnostic, empty on success.
  std::string start(const rsnn::serve::RegistryOptions& options,
                    const std::vector<const ServedModel*>& models);
  void stop();

  rsnn::serve::ModelRegistry& registry() { return *registry_; }
  int port() const { return server_->port(); }

 private:
  std::unique_ptr<rsnn::serve::ModelRegistry> registry_;
  std::unique_ptr<rsnn::serve::Server> server_;
};

/// One user request over the wire: encode image `image` of `model` on the
/// client side, send it, and check the reply against the expected result.
/// A failed call reconnects the client, since the server closes the
/// connection after a protocol error.
///
/// With `retry_refused`, a kRejected reply is sent again, at most
/// kRefusalRetries times, and counted as refused: in error_rate, not as a
/// failure. The registry refuses a request that races a hot swap (it reached
/// the old generation after that pool stopped admitting), and a client
/// resubmits it. The request's latency includes the retries. Without
/// `retry_refused`, or past the limit, a refusal fails the request.
inline constexpr int kRefusalRetries = 2;
bool infer_checked(rsnn::serve::Client& client, int port,
                   const ServedModel& model, std::size_t image,
                   std::int64_t request, Tracer& tracer, Checker& checker,
                   bool retry_refused = false);

/// Sum of the engine counters over every served model, as snapshot()
/// reports them, recorded as the engine.* layer metrics.
void record_engine_counters(Report& report,
                            const rsnn::serve::ModelRegistry& registry);

/// Median cost of ModelRegistry::snapshot() (engine.stats_ms).
void record_stats_cost(Report& report,
                       const rsnn::serve::ModelRegistry& registry,
                       Tracer& tracer);

}  // namespace rsnn_bench
