// Tests for the observability subsystem: flight-recorder ring buffer,
// exporter round-trips, metrics determinism across identical runs, and the
// per-layer enforcement-gap (layer-diff) report on a defended page load.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/policies.hpp"
#include "obs/layer_diff.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/trace_recorder.hpp"
#include "stack/host_pair.hpp"
#include "tcp/tcp_connection.hpp"
#include "util/csv.hpp"
#include "workload/page_load.hpp"
#include "workload/website.hpp"

namespace stob::obs {
namespace {

PacketEvent make_event(std::int64_t t_ns, std::uint64_t seq, std::int64_t bytes,
                       Layer layer = Layer::Tcp) {
  PacketEvent ev;
  ev.time = TimePoint(t_ns);
  ev.flow = {1, 2, 40000, 443, net::Proto::Tcp};
  ev.layer = layer;
  ev.dir = Direction::Tx;
  ev.kind = EventKind::Send;
  ev.bytes = bytes;
  ev.seq = seq;
  ev.packet_id = seq + 100;
  return ev;
}

std::filesystem::path temp_path(const std::string& name) {
  return std::filesystem::temp_directory_path() / name;
}

// ------------------------------------------------------------- ring buffer

TEST(TraceRecorder, RecordsUpToCapacity) {
  TraceRecorder rec(8);
  EXPECT_EQ(rec.capacity(), 8u);
  EXPECT_EQ(rec.size(), 0u);
  for (int i = 0; i < 5; ++i) rec.record(make_event(i, static_cast<std::uint64_t>(i), 100));
  EXPECT_EQ(rec.size(), 5u);
  EXPECT_EQ(rec.total_recorded(), 5u);
  EXPECT_EQ(rec.overwritten(), 0u);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(events[static_cast<std::size_t>(i)].time.ns(), i);
}

TEST(TraceRecorder, WraparoundKeepsNewestOldestFirst) {
  TraceRecorder rec(8);
  for (int i = 0; i < 20; ++i) rec.record(make_event(i, static_cast<std::uint64_t>(i), 100));
  EXPECT_EQ(rec.size(), 8u);
  EXPECT_EQ(rec.total_recorded(), 20u);
  EXPECT_EQ(rec.overwritten(), 12u);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 8u);
  // Flight-recorder semantics: the 8 newest (12..19), oldest first.
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(events[i].time.ns(), static_cast<std::int64_t>(12 + i));
  }
}

TEST(TraceRecorder, ClearResets) {
  TraceRecorder rec(4);
  for (int i = 0; i < 10; ++i) rec.record(make_event(i, 0, 1));
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.total_recorded(), 0u);
  EXPECT_TRUE(rec.events().empty());
}

TEST(TraceRecorder, ScopedInstallRestoresPrevious) {
  EXPECT_EQ(recorder(), nullptr);
  TraceRecorder outer(4);
  {
    ScopedRecorder a(outer);
    EXPECT_EQ(recorder(), &outer);
    TraceRecorder inner(4);
    {
      ScopedRecorder b(inner);
      EXPECT_EQ(recorder(), &inner);
    }
    EXPECT_EQ(recorder(), &outer);
  }
  EXPECT_EQ(recorder(), nullptr);
}

// --------------------------------------------------------------- exporters

TEST(TraceRecorder, CsvRowRoundTrip) {
  const PacketEvent ev = make_event(123456789, 4242, 1448, Layer::Qdisc);
  const auto parsed = TraceRecorder::from_csv_row(TraceRecorder::to_csv_row(ev));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, ev);
}

TEST(TraceRecorder, CsvFileRoundTrip) {
  TraceRecorder rec(64);
  rec.record(make_event(10, 0, 100, Layer::Tls));
  rec.record(make_event(20, 100, 1448, Layer::Tcp));
  rec.record(make_event(30, 100, 1448, Layer::Wire));
  const auto path = temp_path("obs_trace_roundtrip.csv");
  rec.write_csv(path);

  const auto rows = csv::read_file(path);
  ASSERT_EQ(rows.size(), 4u);  // header + 3 events
  EXPECT_EQ(rows[0], TraceRecorder::csv_header());
  const auto original = rec.events();
  for (std::size_t i = 0; i < original.size(); ++i) {
    const auto parsed = TraceRecorder::from_csv_row(rows[i + 1]);
    ASSERT_TRUE(parsed.has_value()) << "row " << i;
    EXPECT_EQ(*parsed, original[i]);
  }
  std::filesystem::remove(path);
}

TEST(TraceRecorder, FromCsvRowRejectsMalformed) {
  EXPECT_FALSE(TraceRecorder::from_csv_row({}).has_value());
  EXPECT_FALSE(TraceRecorder::from_csv_row({"1", "2", "3"}).has_value());
  csv::Row row = TraceRecorder::to_csv_row(make_event(1, 2, 3));
  row[1] = "warp";  // not a layer
  EXPECT_FALSE(TraceRecorder::from_csv_row(row).has_value());
  row = TraceRecorder::to_csv_row(make_event(1, 2, 3));
  row[0] = "soon";  // not a time
  EXPECT_FALSE(TraceRecorder::from_csv_row(row).has_value());
}

TEST(TraceRecorder, JsonlExport) {
  TraceRecorder rec(16);
  rec.record(make_event(1000, 0, 517, Layer::Tls));
  rec.record(make_event(2000, 0, 517, Layer::Tcp));
  const auto path = temp_path("obs_trace.jsonl");
  rec.write_jsonl(path);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"flow\":\"1:40000>2:443/tcp\""), std::string::npos);
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
  std::filesystem::remove(path);
}

// ----------------------------------------------------------------- metrics

TEST(Metrics, CountersGaugesDistributions) {
  MetricsRegistry m;
  EXPECT_TRUE(m.empty());
  m.add("tcp.segments_sent");
  m.add("tcp.segments_sent", 4);
  m.set("sim.events_pending", 17.0);
  m.observe("qdisc.sojourn_us", 10.0);
  m.observe("qdisc.sojourn_us", 30.0);

  EXPECT_EQ(m.counter("tcp.segments_sent"), 5u);
  EXPECT_EQ(m.counter("absent"), 0u);
  EXPECT_DOUBLE_EQ(m.gauge("sim.events_pending"), 17.0);
  const auto* d = m.distribution("qdisc.sojourn_us");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->count(), 2u);
  EXPECT_DOUBLE_EQ(d->mean(), 20.0);
  EXPECT_DOUBLE_EQ(d->min, 10.0);
  EXPECT_DOUBLE_EQ(d->max, 30.0);

  EXPECT_EQ(d->reservoir, (std::vector<double>{10.0, 30.0}));
}

TEST(Metrics, SnapshotIsSortedAndCsvParses) {
  MetricsRegistry m;
  m.add("zzz.last");
  m.add("aaa.first");
  m.observe("mid.dist", 1.0);
  const std::string snap = m.snapshot();
  EXPECT_LT(snap.find("aaa.first"), snap.find("zzz.last"));

  const auto path = temp_path("obs_metrics.csv");
  m.write_csv(path);
  const auto rows = csv::read_file(path);
  ASSERT_EQ(rows.size(), 4u);  // header + 2 counters + 1 dist
  EXPECT_EQ(rows[0][0], "kind");
  std::filesystem::remove(path);
}

/// One deterministic bulk transfer with tracing + metrics installed.
std::string run_traced_transfer(TraceRecorder* rec) {
  MetricsRegistry m;
  ScopedMetrics sm(m);
  TraceRecorder unused(1);
  ScopedRecorder sr(rec != nullptr ? *rec : unused);
  stack::HostPair hp;
  tcp::TcpListener listener(hp.server(), 443, tcp::TcpConnection::Config{});
  tcp::TcpConnection sender(hp.client(), tcp::TcpConnection::Config{});
  sender.on_connected = [&] { sender.send(Bytes::kibi(512)); };
  sender.connect(hp.server().id(), 443);
  hp.run(TimePoint(Duration::seconds(30).ns()));
  scrape_simulator(hp.sim(), m);
  return m.snapshot();
}

TEST(Metrics, DeterministicAcrossIdenticalRuns) {
  const std::string a = run_traced_transfer(nullptr);
  const std::string b = run_traced_transfer(nullptr);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // The scrape and the transport/qdisc/nic/wire hooks all contributed.
  EXPECT_NE(a.find("counter tcp.segments_sent"), std::string::npos);
  EXPECT_NE(a.find("counter qdisc.dequeued"), std::string::npos);
  EXPECT_NE(a.find("counter nic.wire_packets"), std::string::npos);
  EXPECT_NE(a.find("counter wire.packets"), std::string::npos);
  EXPECT_NE(a.find("gauge sim.events_executed"), std::string::npos);
  EXPECT_NE(a.find("dist tcp.cwnd_bytes"), std::string::npos);
}

TEST(Metrics, DisabledHooksRecordNothing) {
  EXPECT_EQ(metrics(), nullptr);
  EXPECT_EQ(recorder(), nullptr);
  stack::HostPair hp;
  tcp::TcpListener listener(hp.server(), 443, tcp::TcpConnection::Config{});
  tcp::TcpConnection sender(hp.client(), tcp::TcpConnection::Config{});
  sender.on_connected = [&] { sender.send(Bytes::kibi(64)); };
  sender.connect(hp.server().id(), 443);
  hp.run(TimePoint(Duration::seconds(30).ns()));
  // Nothing to assert beyond "no crash, no install": the hooks were inert.
  EXPECT_EQ(metrics(), nullptr);
  EXPECT_EQ(recorder(), nullptr);
}

// -------------------------------------------------------------- layer diff

TEST(LayerDiff, TraceEventsCoverAllLayersOfATransfer) {
  TraceRecorder rec(1 << 16);
  run_traced_transfer(&rec);
  const auto events = rec.events();
  ASSERT_FALSE(events.empty());
  const auto flows = flows_by_activity(events);
  ASSERT_FALSE(flows.empty());
  const net::FlowKey flow = flows.front().first;  // the sender's data flow

  const LayerDiffReport report = layer_diff(events, flow);
  // TCP, qdisc, NIC and wire must all have seen the data.
  EXPECT_NE(report.layer(Layer::Tcp), nullptr);
  EXPECT_NE(report.layer(Layer::Qdisc), nullptr);
  EXPECT_NE(report.layer(Layer::Nic), nullptr);
  EXPECT_NE(report.layer(Layer::Wire), nullptr);
  EXPECT_GE(report.layers.size(), 4u);
  EXPECT_EQ(report.transitions.size(), report.layers.size() - 1);
  // Wire payload bytes can't exceed what TCP emitted... but both carry the
  // same stream, so totals match up to retransmissions.
  EXPECT_GE(report.layer(Layer::Wire)->bytes, report.layer(Layer::Tcp)->bytes);
}

TEST(LayerDiff, DefendedPageLoadShowsDistortionAtQdiscAndNic) {
  core::SplitPolicy split;          // halve wire packets > 1200 B
  core::DelayPolicy delay;          // inflate departure gaps 10-30%
  core::CompositePolicy combined({&split, &delay});

  workload::PageLoadOptions opt;
  opt.server_conn.policy = &combined;
  opt.tls_records = true;
  opt.tls.pad_to = 512;             // RFC 8446 record padding

  TraceRecorder rec(1 << 18);
  ScopedRecorder guard(rec);
  Rng rng(7);
  const auto& site = workload::nine_sites()[0];
  const workload::PageLoadResult res = workload::run_page_load(site, rng, opt);
  ASSERT_TRUE(res.completed);

  const auto events = rec.events();
  const auto flows = flows_by_activity(events);
  ASSERT_FALSE(flows.empty());
  // Busiest flow = the server's response flow (it carries the page).
  const net::FlowKey flow = flows.front().first;
  EXPECT_EQ(flow.src_port, 443);

  const LayerDiffReport report = layer_diff(events, flow);

  // ISSUE acceptance: events at >= 4 distinct layers for one defended flow.
  EXPECT_GE(report.layers.size(), 4u);
  EXPECT_NE(report.layer(Layer::Tls), nullptr);
  EXPECT_NE(report.layer(Layer::Tcp), nullptr);
  EXPECT_NE(report.layer(Layer::Qdisc), nullptr);
  EXPECT_NE(report.layer(Layer::Nic), nullptr);
  EXPECT_NE(report.layer(Layer::Wire), nullptr);

  // The delay policy pushes departures into the future: the qdisc (EDT
  // enforcement point) must report added delay over TCP's emission times.
  const LayerTransition* tcp_qdisc = report.transition(Layer::Tcp, Layer::Qdisc);
  ASSERT_NE(tcp_qdisc, nullptr);
  EXPECT_GT(tcp_qdisc->delay_p90_us, 0.0);
  EXPECT_TRUE(tcp_qdisc->distorted());

  // The split policy halves the wire MSS below the segment size, so the NIC
  // (TSO) layer must report segments split into multiple wire packets.
  const LayerTransition* qdisc_nic = report.transition(Layer::Qdisc, Layer::Nic);
  ASSERT_NE(qdisc_nic, nullptr);
  EXPECT_GT(qdisc_nic->split_units, 0u);
  EXPECT_GT(qdisc_nic->count_ratio, 1.0);
  EXPECT_GT(qdisc_nic->size_mismatch_pct, 0.0);
  EXPECT_TRUE(qdisc_nic->distorted());

  // Report exporters produce the enforcement-gap artifacts.
  const auto csv_path = temp_path("obs_layer_diff.csv");
  const auto jsonl_path = temp_path("obs_layer_diff.jsonl");
  report.write_csv(csv_path);
  report.write_jsonl(jsonl_path);
  const auto rows = csv::read_file(csv_path);
  EXPECT_EQ(rows.size(), 1 + report.layers.size() + report.transitions.size());
  EXPECT_FALSE(report.to_string().empty());
  std::filesystem::remove(csv_path);
  std::filesystem::remove(jsonl_path);
}

TEST(LayerDiff, UndefendedBulkFlowPreservesSizesAtQdisc) {
  TraceRecorder rec(1 << 16);
  run_traced_transfer(&rec);
  const auto events = rec.events();
  const auto flows = flows_by_activity(events);
  ASSERT_FALSE(flows.empty());
  const LayerDiffReport report = layer_diff(events, flows.front().first);
  // The qdisc releases exactly the segments TCP handed it: same units, no
  // splits or merges (only delay can differ).
  const LayerTransition* t = report.transition(Layer::Tcp, Layer::Qdisc);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->from_units, t->to_units);
  EXPECT_EQ(t->split_units, 0u);
  EXPECT_EQ(t->merged_units, 0u);
  EXPECT_DOUBLE_EQ(t->size_mismatch_pct, 0.0);
}

TEST(LayerDiff, GapsMatchEventTimes) {
  std::vector<PacketEvent> events;
  events.push_back(make_event(1000, 0, 100, Layer::Wire));
  events.push_back(make_event(4000, 100, 100, Layer::Wire));
  events.push_back(make_event(9000, 200, 100, Layer::Wire));
  const auto gaps = layer_gaps_us(events, events[0].flow, Layer::Wire);
  ASSERT_EQ(gaps.size(), 2u);
  EXPECT_DOUBLE_EQ(gaps[0], 3.0);
  EXPECT_DOUBLE_EQ(gaps[1], 5.0);
}


// ------------------------------------------------------------ span profiler

TEST(Profiler, DisabledSpanIsNoop) {
  ASSERT_EQ(profiler(), nullptr);
  {
    ProfSpan span("nothing-listens");
    ProfSpan nested("still-nothing");
  }
  EXPECT_EQ(profiler(), nullptr);
}

TEST(Profiler, NestingParentsAndDepths) {
  Profiler prof;
  ScopedProfiler guard(prof);
  {
    ProfSpan outer("outer");
    {
      ProfSpan inner("inner");
      EXPECT_EQ(prof.open_depth(), 2u);
    }
    ProfSpan sibling("sibling");
  }
  ASSERT_EQ(prof.records().size(), 3u);
  const auto& recs = prof.records();
  EXPECT_EQ(recs[0].name, "outer");
  EXPECT_EQ(recs[0].parent, 0u);
  EXPECT_EQ(recs[0].depth, 0u);
  EXPECT_EQ(recs[1].name, "inner");
  EXPECT_EQ(recs[1].parent, recs[0].id);
  EXPECT_EQ(recs[1].depth, 1u);
  EXPECT_EQ(recs[2].parent, recs[0].id);
  // All closed, with usable timings.
  for (const ProfRecord& r : recs) EXPECT_GE(r.wall_ns, 0);
  EXPECT_EQ(prof.open_depth(), 0u);
}

TEST(Profiler, SpanIdsAreDeterministic) {
  // Same id domain + same open order => identical ids and structure, no
  // matter when or where the spans ran.
  auto capture = [] {
    Profiler prof(42);
    ScopedProfiler guard(prof);
    {
      ProfSpan a("a");
      ProfSpan b("b");
    }
    ProfSpan c("c");
    return prof.structure();
  };
  const std::string first = capture();
  const std::string second = capture();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find(" a\n"), std::string::npos);
  // A different domain yields different ids for the same program.
  auto first_id = [](std::uint64_t domain) {
    Profiler p(domain);
    ScopedProfiler guard(p);
    { ProfSpan a("a"); }
    return p.records()[0].id;
  };
  EXPECT_EQ(first_id(42), first_id(42));
  EXPECT_NE(first_id(42), first_id(43));
}

TEST(Profiler, UnwindOnExceptionClosesSpans) {
  Profiler prof;
  ScopedProfiler guard(prof);
  try {
    ProfSpan outer("outer");
    ProfSpan inner("inner");
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(prof.open_depth(), 0u);
  ASSERT_EQ(prof.records().size(), 2u);
  for (const ProfRecord& r : prof.records()) EXPECT_GE(r.wall_ns, 0);
}

TEST(Profiler, SpliceReparentsShiftsAndRebasesLanes) {
  Profiler child(sub_domain(7, 0));
  {
    ScopedProfiler guard(child);
    ProfSpan root("job");
    ProfSpan nested("work");
  }
  std::vector<ProfRecord> captured = child.take_records();
  ASSERT_EQ(captured.size(), 2u);

  Profiler parent(7);
  ScopedProfiler guard(parent);
  const std::size_t pool_span = parent.open("pool");
  parent.splice(std::move(captured), 1'000'000, /*worker=*/3);
  parent.close(pool_span);

  ASSERT_EQ(parent.records().size(), 3u);
  const auto& recs = parent.records();
  EXPECT_EQ(recs[0].name, "pool");
  EXPECT_EQ(recs[1].name, "job");
  EXPECT_EQ(recs[1].parent, recs[0].id);  // re-parented under the open span
  EXPECT_EQ(recs[1].depth, 1u);
  EXPECT_EQ(recs[1].worker, 3u);
  EXPECT_GE(recs[1].start_ns, 1'000'000);
  EXPECT_EQ(recs[2].name, "work");
  EXPECT_EQ(recs[2].depth, 2u);
  EXPECT_EQ(recs[2].worker, 3u);  // child recorded on lane 0 -> this worker's lane
}

TEST(Profiler, TraceEventGoldenFile) {
  // Fixed records => the writer's output must match the committed golden
  // byte for byte (format stability is what Perfetto/chrome://tracing and
  // the determinism tests rely on).
  std::vector<ProfRecord> recs;
  ProfRecord a;
  a.id = 0x0102030405060708ull;
  a.parent = 0;
  a.depth = 0;
  a.worker = 0;
  a.name = "alpha";
  a.start_ns = 1500;
  a.wall_ns = 250000;
  a.cpu_ns = 125000;
  a.pool_hits = 3;
  a.pool_misses = 1;
  recs.push_back(a);
  ProfRecord b;
  b.id = 0x1112131415161718ull;
  b.parent = a.id;
  b.depth = 1;
  b.worker = 2;
  b.name = "beta \"quoted\"";
  b.start_ns = 2500;
  b.wall_ns = 1000;
  b.cpu_ns = 500;
  recs.push_back(b);
  ProfRecord open_span;
  open_span.id = 0x2122232425262728ull;
  open_span.worker = 1;
  open_span.name = "open";
  open_span.wall_ns = -1;  // still open: lane is announced, event skipped
  recs.push_back(open_span);

  const std::string json = trace_event_json(recs, "golden");
  std::ifstream golden(std::string(STOB_GOLDEN_DIR) + "/trace_event.json");
  ASSERT_TRUE(golden.good()) << "missing tests/golden/trace_event.json";
  std::stringstream ss;
  ss << golden.rdbuf();
  EXPECT_EQ(json, ss.str());
}

TEST(Profiler, TraceEventEscapesNonAsciiSpanNames) {
  // Span names are escaped by the shared obs::json_escape, so a byte that is
  // not valid UTF-8 on its own still exports as valid JSON text.
  ProfRecord rec;
  rec.name = "caf\xe9";
  rec.wall_ns = 1000;
  const std::string json = trace_event_json({rec}, "proc");
  EXPECT_NE(json.find("\"name\":\"caf\\u00e9\""), std::string::npos) << json;
  for (char c : json) EXPECT_LT(static_cast<unsigned char>(c), 0x80);
}

// ------------------------------------------------------------ run manifest

TEST(Manifest, RollupAggregatesByName) {
  Profiler prof;
  ScopedProfiler guard(prof);
  for (int i = 0; i < 3; ++i) ProfSpan span("phase");
  { ProfSpan span("other"); }
  const std::vector<PhaseRollup> phases = rollup_phases(prof.records());
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].name, "other");  // sorted by name
  EXPECT_EQ(phases[0].count, 1u);
  EXPECT_EQ(phases[1].name, "phase");
  EXPECT_EQ(phases[1].count, 3u);
}

TEST(Manifest, DeterministicJsonExcludesHarnessFields) {
  Profiler prof;
  {
    ScopedProfiler guard(prof);
    ProfSpan span("stage");
  }
  MetricsRegistry metrics;
  metrics.add("tcp.segments", 12);
  RunManifest m = build_manifest("tool_x", prof, &metrics, /*jobs=*/4, /*base_seed=*/7);
  m.set_config("samples", "10");

  const std::string full = m.to_json();
  const std::string det = m.deterministic_json();
  // Harness-only fields appear in the full form only.
  EXPECT_NE(full.find("\"jobs\""), std::string::npos);
  EXPECT_NE(full.find("\"harness\""), std::string::npos);
  EXPECT_NE(full.find("\"wall_ms\""), std::string::npos);
  EXPECT_EQ(det.find("\"jobs\""), std::string::npos);
  EXPECT_EQ(det.find("\"harness\""), std::string::npos);
  EXPECT_EQ(det.find("\"wall_ms\""), std::string::npos);
  EXPECT_EQ(det.find("\"git_rev\""), std::string::npos);
  // Deterministic fields appear in both.
  for (const std::string& form : {full, det}) {
    EXPECT_NE(form.find("\"tool\": \"tool_x\""), std::string::npos);
    EXPECT_NE(form.find("\"cell_spec_digest\""), std::string::npos);
    EXPECT_NE(form.find("\"metrics_sha256\""), std::string::npos);
    EXPECT_NE(form.find("\"name\": \"stage\", \"count\": 1"), std::string::npos);
  }
  EXPECT_EQ(m.metrics_lines, 1u);
  EXPECT_EQ(m.metrics_sha256.size(), 64u);
}

// Golden test for the JSON string escaper with hostile config values:
// quotes, backslashes, every flavour of control character, and non-ASCII
// bytes. Control characters AND bytes >= 0x7f must come out as \u00XX
// (with an unsigned value — a sign-extended char would emit \uffXX...),
// so the manifest is pure ASCII regardless of input encoding.
TEST(Manifest, JsonEscapesControlAndNonAsciiBytes) {
  RunManifest m;
  m.tool = "esc";
  m.set_config("quotes", "say \"hi\" \\ done");
  // Split literals: "\x01e" would parse as the single byte 0x1e.
  m.set_config("ctl", std::string("a\nb\rc\td\x01") + "e\x1f" + "f");
  m.set_config("high", "caf\xc3\xa9 \xff\x80");  // UTF-8 é, then raw bytes
  m.set_config("del", "x\x7fy");
  const std::string json = m.to_json();

  EXPECT_NE(json.find(R"(say \"hi\" \\ done)"), std::string::npos);
  EXPECT_NE(json.find("a\\nb\\rc\\td\\u0001e\\u001ff"), std::string::npos);
  EXPECT_NE(json.find("caf\\u00c3\\u00a9 \\u00ff\\u0080"), std::string::npos);
  EXPECT_NE(json.find("x\\u007fy"), std::string::npos);
  // The whole manifest is 7-bit ASCII with no raw control characters
  // outside the structural newlines.
  for (char c : json) {
    const auto u = static_cast<unsigned char>(c);
    EXPECT_TRUE(u == '\n' || (u >= 0x20 && u < 0x7f)) << "raw byte " << static_cast<int>(u);
  }
}

TEST(Manifest, CellSpecDigestIgnoresJobsAndTimings) {
  RunManifest a;
  a.tool = "t";
  a.base_seed = 5;
  a.set_config("k", "v");
  RunManifest b = a;
  b.jobs = 16;
  b.total_wall_ms = 123.0;
  b.git_rev = "deadbee";
  EXPECT_EQ(a.cell_spec_digest(), b.cell_spec_digest());
  b.set_config("k", "other");
  EXPECT_NE(a.cell_spec_digest(), b.cell_spec_digest());
  RunManifest c = a;
  c.base_seed = 6;
  EXPECT_NE(a.cell_spec_digest(), c.cell_spec_digest());
}

// ---------------------------------------------------------- metrics merge

TEST(MetricsRegistry, MergeCountersGaugesDistributions) {
  MetricsRegistry a;
  a.add("c", 2);
  a.set("g", 1.0);
  a.observe("d", 1.0);
  a.observe("d", 3.0);
  MetricsRegistry b;
  b.add("c", 3);
  b.add("only_b", 1);
  b.set("g", 7.0);
  b.observe("d", 5.0);
  b.observe("e", 2.0);

  a.merge(b);
  EXPECT_EQ(a.counter("c"), 5u);
  EXPECT_EQ(a.counter("only_b"), 1u);
  EXPECT_DOUBLE_EQ(a.gauge("g"), 7.0);  // last write (the merged-in) wins
  const MetricsRegistry::Distribution* d = a.distribution("d");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->count(), 3u);
  EXPECT_DOUBLE_EQ(d->mean(), 3.0);
  EXPECT_DOUBLE_EQ(d->min, 1.0);
  EXPECT_DOUBLE_EQ(d->max, 5.0);
  EXPECT_EQ(d->reservoir.size(), 3u);
  ASSERT_NE(a.distribution("e"), nullptr);
  EXPECT_EQ(a.distribution("e")->count(), 1u);
}

TEST(MetricsRegistry, MergeOrderIndependentSnapshot) {
  // Merging per-job registries in job order must give one deterministic
  // snapshot: same inputs => byte-identical text, regardless of which run
  // produced them.
  auto job_registry = [](double base) {
    MetricsRegistry m;
    m.add("jobs", 1);
    m.observe("plt", base);
    m.observe("plt", base * 2);
    return m;
  };
  MetricsRegistry run1;
  for (int i = 1; i <= 4; ++i) run1.merge(job_registry(i));
  MetricsRegistry run2;
  for (int i = 1; i <= 4; ++i) run2.merge(job_registry(i));
  EXPECT_EQ(run1.snapshot(), run2.snapshot());
  EXPECT_EQ(run1.counter("jobs"), 4u);
}

}  // namespace
}  // namespace stob::obs
