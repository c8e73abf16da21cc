// Tests of the benchmark's own logic: the percentile and sample-count rule,
// percentiles over rounds, the seeded Poisson schedule, latency measured
// from the due time with lateness accounting, span self time, and grouping
// of fused conv+pool pairs. Run with `python3 benchmark/run.py --test`, or
// ctest in the benchmark's build directory.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "loadgen.hpp"
#include "op_groups.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

using namespace rsnn_bench;

int failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                   __LINE__, #cond);                                 \
      ++failures;                                                    \
    }                                                                \
  } while (0)

bool near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

void test_percentiles_and_sample_rule() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  CHECK(percentile(v, 50) == 50);
  CHECK(percentile(v, 99) == 99);
  CHECK(percentile(v, 100) == 100);
  CHECK(median({3, 1, 2}) == 2);
  CHECK(percentile({}, 50) == 0);

  // p99 needs ten samples beyond it: 1000 samples leave exactly ten.
  CHECK(samples_beyond(1000, 99) == 10);
  CHECK(percentile_supported(1000, 99));
  CHECK(!percentile_supported(999, 99));
  CHECK(samples_needed(99) == 1000);
  CHECK(samples_needed(95) == 200);
  CHECK(samples_needed(50) == 20);

  // The highest percentile reported is the highest with ten beyond it.
  CHECK(highest_supported_percentile(10000) == 99.9);
  CHECK(highest_supported_percentile(9999) == 99);
  CHECK(highest_supported_percentile(1000) == 99);
  CHECK(highest_supported_percentile(199) == 90);
  CHECK(highest_supported_percentile(20) == 50);
  CHECK(highest_supported_percentile(19) == 0);

  const Timing t = summarize(v);
  CHECK(t.samples == 100);
  CHECK(t.p50 == 50 && t.p90 == 90);
  CHECK(t.p90_supported);  // exactly 10 beyond
  CHECK(t.top_pct == 90 && t.top == 90);  // p95 has only 5 beyond
  v.pop_back();
  CHECK(!summarize(v).p90_supported);
}

void test_rounds() {
  std::vector<double> v(1000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  const auto rounds = split_rounds(v, 5, 100);
  CHECK(rounds.size() == 5);
  CHECK(rounds[0].size() == 200 && rounds[0].front() == 0 &&
        rounds[4].back() == 999);
  CHECK(split_rounds(v, 5, 300).size() == 3);  // 333 each
  CHECK(split_rounds(v, 5, 2000).size() == 1);  // too few for two

  // Rounds spoiled by interference do not move the least disturbed tenth
  // (the 2nd best of 20 rounds); the pooled tail still shows them.
  std::vector<std::vector<double>> timed(20, std::vector<double>(100, 1.0));
  for (std::size_t i = 0; i < timed.size(); ++i) {
    timed[i].back() = 2.0;  // p90 stays 1
    if (i % 5 != 0) timed[i].assign(100, 50.0 + i);  // 16 spoiled rounds
  }
  const Timing t = summarize_rounds(timed);
  CHECK(t.samples == 2000);
  CHECK(t.p50 == 1.0 && t.p90 == 1.0);
  CHECK(t.p90_supported);
  CHECK(t.top_pct == 99 && t.top == 69.0);
  timed[0].assign(100, 0.5);  // a single lucky round does not set it
  CHECK(summarize_rounds(timed).p50 == 1.0);
  timed[0].resize(99);
  CHECK(!summarize_rounds(timed).p90_supported);
}

void test_rates() {
  // Items of 0.2 s completing 4 units each: windows of >= 0.5 s hold 3
  // items, 12 units in 0.6 s.
  const std::vector<double> rates =
      window_rates({0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2}, {4, 4, 4, 4, 4, 4, 4},
                   0.5);
  CHECK(rates.size() == 2);
  CHECK(near(rates[0], 20.0, 1e-9) && near(rates[1], 20.0, 1e-9));

  const std::vector<double> done = {0.1, 0.2, 0.3, 0.6, 0.7, 1.05};
  const std::vector<double> per = completion_rates(done, 0.0, 1.0, 0.5);
  CHECK(per.size() == 2);
  CHECK(near(per[0], 6.0, 1e-9) && near(per[1], 4.0, 1e-9));
}

void test_poisson_schedule() {
  const auto a = poisson_schedule(42, 300.0, 20000);
  const auto b = poisson_schedule(42, 300.0, 20000);
  const auto c = poisson_schedule(43, 300.0, 20000);
  CHECK(a == b);
  CHECK(a != c);
  CHECK(a.size() == 20000);
  bool increasing = a.front() > 0.0;
  for (std::size_t i = 1; i < a.size(); ++i) increasing &= a[i] > a[i - 1];
  CHECK(increasing);
  // Mean gap 1/rate; the standard error at 20000 arrivals is ~0.7%.
  CHECK(near(a.back() / a.size(), 1.0 / 300.0, 0.03 / 300.0));
}

void test_latency_from_due_time() {
  RequestRecord r;
  r.due_s = 1.0;
  r.sent_s = 1.005;
  r.done_s = 1.007;
  CHECK(near(latency_ms(r), 7.0, 1e-9));
  CHECK(near(lateness_ms(r), 5.0, 1e-9));
  r.sent_s = 0.999;  // early never counts as negative lateness
  CHECK(lateness_ms(r) == 0.0);

  std::vector<RequestRecord> records(4);
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].due_s = records[i].sent_s = static_cast<double>(i);
    records[i].done_s = records[i].due_s + 0.001;
    records[i].ok = i != 3;
  }
  records[2].sent_s += 0.004;
  const Lateness late = lateness(records);
  CHECK(near(late.max_ms, 4.0, 1e-6));
  CHECK(near(late.late_share, 0.25, 1e-12));
  CHECK(ok_latencies_ms(records).size() == 3);

  // A stall on one connection is charged to the requests due behind it.
  const std::vector<double> due = {0.0, 0.001, 0.002};
  const auto run = run_open_loop(due, 1, [](int, std::size_t i) {
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return true;
  });
  CHECK(run.size() == 3);
  CHECK(run[1].due_s == 0.001);
  CHECK(run[1].sent_s >= 0.030);
  CHECK(latency_ms(run[1]) >= 29.0);
  CHECK(lateness_ms(run[2]) >= 28.0);
  CHECK(lateness(run).late_share >= 2.0 / 3.0 - 1e-12);
}

Span span(std::int32_t id, std::int32_t parent, std::int64_t start,
          std::int64_t end) {
  Span s;
  s.name = "s";
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void test_self_time() {
  const std::vector<Span> spans = {
      span(0, -1, 0, 100),   // root
      span(1, 0, 10, 30),    // child
      span(2, 0, 20, 50),    // overlaps child 1: covered once
      span(3, 0, 90, 120),   // runs past the parent: clipped to 90..100
      span(4, 1, 12, 18),    // grandchild: counts against 1, not 0
      span(5, -1, 200, 210), // another root, no children
      span(6, 5, 205, -1),   // still open: ignored
  };
  const std::vector<double> self = self_times_ns(spans);
  CHECK(self[0] == 100 - 40 - 10);
  CHECK(self[1] == 20 - 6);
  CHECK(self[2] == 30);
  CHECK(self[3] == 30);
  CHECK(self[4] == 6);
  CHECK(self[5] == 10);
  CHECK(self[6] == 0);

  Tracer off(false);
  CHECK(off.open("x") == -1);
  CHECK(off.size() == 0);
  Tracer on(true);
  {
    ScopedSpan outer(on, "outer", -1, 7);
    ScopedSpan inner(on, "inner", outer.id(), 7);
  }
  const auto recorded = on.spans();
  CHECK(recorded.size() == 2);
  CHECK(recorded[1].parent == recorded[0].id && recorded[1].request == 7);
  CHECK(span_durations_ns(recorded, "inner").size() == 1);
  CHECK(self_times_ns(recorded)[0] >= 0.0);
}

rsnn::ir::LayerOp op(rsnn::ir::OpKind kind, bool fuse) {
  rsnn::ir::LayerOp o;
  o.kind = kind;
  o.fuse_with_next = fuse;
  return o;
}

void test_fused_grouping() {
  using rsnn::ir::OpKind;
  const std::vector<rsnn::ir::LayerOp> ops = {
      op(OpKind::kConv, true),  op(OpKind::kPool, false),
      op(OpKind::kConv, false), op(OpKind::kConv, true),
      op(OpKind::kPool, false), op(OpKind::kFlatten, false),
      op(OpKind::kLinear, false), op(OpKind::kConv, true),  // nothing to fuse
  };
  const std::vector<OpGroup> groups = group_ops(ops);
  CHECK(groups.size() == 6);
  CHECK(groups[0].begin == 0 && groups[0].end == 2 &&
        groups[0].kind == "conv_pool");
  CHECK(groups[1].begin == 2 && groups[1].end == 3 && groups[1].kind == "conv");
  CHECK(groups[2].begin == 3 && groups[2].end == 5 &&
        groups[2].kind == "conv_pool");
  CHECK(groups[3].kind == "flatten" && groups[4].kind == "linear");
  CHECK(groups[5].begin == 7 && groups[5].end == 8 && groups[5].kind == "conv");
  CHECK(group_label(groups[2]) == "op03.conv_pool");
}

}  // namespace

int main() {
  test_percentiles_and_sample_rule();
  test_rounds();
  test_rates();
  test_poisson_schedule();
  test_latency_from_due_time();
  test_self_time();
  test_fused_grouping();
  if (failures == 0) std::printf("benchmark_logic: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
