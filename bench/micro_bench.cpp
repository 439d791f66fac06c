// Micro-benchmarks (google-benchmark) for the performance-critical pieces:
// event queue operations, qdisc enqueue/dequeue, TSO splitting through the
// NIC, Stob policy hooks, k-FP feature extraction, and random-forest
// training/prediction. These bound the simulator's throughput and the
// attack pipeline's cost.
#include <benchmark/benchmark.h>

#include <memory>

#include "core/cca_guard.hpp"
#include "core/policies.hpp"
#include "net/pipe.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/trace_recorder.hpp"
#include "sim/simulator.hpp"
#include "stack/nic.hpp"
#include "stack/qdisc.hpp"
#include "wf/features.hpp"
#include "wf/kfp.hpp"
#include "wf/random_forest.hpp"

namespace {

using namespace stob;

void BM_SimulatorScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    for (std::size_t i = 0; i < n; ++i) {
      sim.schedule_at(TimePoint(static_cast<std::int64_t>(i * 7919 % 100000)), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(1000)->Arg(10000);

net::Packet micro_packet(std::int64_t payload, net::Port src_port = 1000) {
  net::Packet p;
  p.id = net::next_packet_id();
  p.flow = {1, 2, src_port, 443, net::Proto::Tcp};
  p.header = Bytes(net::kEthIpTcpHeader);
  p.payload = Bytes(payload);
  return p;
}

void BM_FqQdiscEnqueueDequeue(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  stack::FqQdisc q;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      q.enqueue(micro_packet(1448, static_cast<net::Port>(1000 + i % flows)));
    }
    while (auto p = q.dequeue(TimePoint::zero())) benchmark::DoNotOptimize(p->id);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_FqQdiscEnqueueDequeue)->Arg(1)->Arg(16);

void BM_NicTsoSplit(benchmark::State& state) {
  sim::Simulator sim;
  net::Pipe pipe(sim, {DataRate::gbps(400), Duration::micros(1), Bytes(0), 0.0});
  stack::Nic nic(sim, std::make_unique<stack::FifoQdisc>());
  nic.attach_egress(pipe);
  pipe.set_sink([](net::Packet) {});
  for (auto _ : state) {
    auto p = micro_packet(65160);
    p.tso_mss = 1448;
    nic.transmit(std::move(p));
    sim.run();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 65160);
}
BENCHMARK(BM_NicTsoSplit);

// The observability hook with no recorder installed: must be a pointer load
// and branch, nothing else (this is the "tracing disabled" tax every packet
// pays at every layer).
void BM_ObsHookDisabled(benchmark::State& state) {
  const net::Packet p = micro_packet(1448);
  for (auto _ : state) {
    obs::record_packet(obs::Layer::Nic, obs::Direction::Tx, obs::EventKind::Send, p,
                       TimePoint(1000));
    obs::count("nic.wire_packets");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsHookDisabled);

void BM_TraceRecorderRecord(benchmark::State& state) {
  obs::TraceRecorder rec(1 << 16);
  obs::ScopedRecorder guard(rec);
  const net::Packet p = micro_packet(1448);
  std::int64_t t = 0;
  for (auto _ : state) {
    obs::record_packet(obs::Layer::Nic, obs::Direction::Tx, obs::EventKind::Send, p,
                       TimePoint(t += 1000));
  }
  benchmark::DoNotOptimize(rec.total_recorded());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceRecorderRecord);

void BM_MetricsObserve(benchmark::State& state) {
  obs::MetricsRegistry m;
  obs::ScopedMetrics guard(m);
  double v = 0.0;
  for (auto _ : state) {
    obs::count("tcp.segments_sent");
    obs::sample("tcp.cwnd_bytes", v += 1.0);
  }
  benchmark::DoNotOptimize(m.counter("tcp.segments_sent"));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsObserve);

// The span profiler's disabled path: constructing + destroying a ProfSpan
// with no Profiler installed must be one TLS load and a branch at each end,
// same contract as the packet/metrics hooks above (~1-2 ns).
void BM_ProfSpanDisabled(benchmark::State& state) {
  for (auto _ : state) {
    obs::ProfSpan span("bench.disabled");
    benchmark::DoNotOptimize(&span);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ProfSpanDisabled);

// Enabled path: open + close with clock reads and pool-counter snapshots.
void BM_ProfSpanEnabled(benchmark::State& state) {
  obs::Profiler prof;
  obs::ScopedProfiler guard(prof);
  for (auto _ : state) {
    {
      obs::ProfSpan span("bench.enabled");
      benchmark::DoNotOptimize(&span);
    }
    // Span closed: safe to trim the record buffer between iterations.
    if (prof.records().size() > (1u << 20)) {
      state.PauseTiming();
      prof.clear();
      state.ResumeTiming();
    }
  }
  benchmark::DoNotOptimize(prof.records().size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ProfSpanEnabled);

void BM_PolicyHook(benchmark::State& state) {
  core::SplitPolicy split;
  core::DelayPolicy delay;
  core::CompositePolicy combo({&split, &delay});
  core::CcaGuard guard(combo);
  core::SegmentContext ctx;
  ctx.flow = {1, 2, 1000, 443, net::Proto::Tcp};
  ctx.cca_segment = Bytes(65160);
  ctx.mss = Bytes(1448);
  ctx.cca_pacing_rate = DataRate::gbps(10);
  std::int64_t t = 0;
  for (auto _ : state) {
    ctx.now = TimePoint(t += 1000);
    ctx.cca_departure = ctx.now;
    benchmark::DoNotOptimize(guard.on_segment(ctx));
  }
}
BENCHMARK(BM_PolicyHook);

wf::Trace micro_trace(std::size_t packets) {
  Rng rng(3);
  wf::Trace t;
  double time = 0;
  for (std::size_t i = 0; i < packets; ++i) {
    t.add(time, rng.chance(0.3) ? +1 : -1, rng.uniform_int(66, 1514));
    time += rng.uniform(0.0001, 0.01);
  }
  return t;
}

void BM_KfpFeatureExtraction(benchmark::State& state) {
  const wf::Trace t = micro_trace(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(wf::kfp_features(t));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_KfpFeatureExtraction)->Arg(100)->Arg(1000)->Arg(5000);

struct ForestFixture {
  wf::FeatureMatrix x{9 * 60, 120};
  std::vector<int> labels;

  ForestFixture() {
    Rng rng(4);
    std::size_t r = 0;
    for (int c = 0; c < 9; ++c) {
      for (int i = 0; i < 60; ++i, ++r) {
        for (double& v : x.row(r)) v = rng.normal(c, 2.0);
        labels.push_back(c);
      }
    }
  }
};

void BM_RandomForestFit(benchmark::State& state) {
  static const ForestFixture fx;
  wf::RandomForest::Config cfg;
  cfg.num_trees = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    wf::RandomForest forest(cfg);
    forest.fit({&fx.x, fx.labels, 9});
    benchmark::DoNotOptimize(forest.tree_count());
  }
}
BENCHMARK(BM_RandomForestFit)->Arg(10)->Arg(50)->Unit(benchmark::kMillisecond);

void BM_RandomForestPredict(benchmark::State& state) {
  static const ForestFixture fx;
  wf::RandomForest::Config cfg;
  cfg.num_trees = 100;
  wf::RandomForest forest(cfg);
  forest.fit({&fx.x, fx.labels, 9});
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.predict(fx.x.row(i++ % fx.x.rows())));
  }
}
BENCHMARK(BM_RandomForestPredict);

}  // namespace

BENCHMARK_MAIN();
