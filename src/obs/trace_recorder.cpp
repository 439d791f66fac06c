#include "obs/trace_recorder.hpp"

#include <charconv>
#include <fstream>
#include <stdexcept>

namespace stob::obs {

namespace detail {
constinit thread_local TraceRecorder* g_recorder = nullptr;
constinit thread_local StackListener* g_listener = nullptr;
}  // namespace detail

void install_recorder(TraceRecorder* r) noexcept { detail::g_recorder = r; }

void install_listener(StackListener* l) noexcept { detail::g_listener = l; }

std::string_view to_string(Layer layer) {
  switch (layer) {
    case Layer::App: return "app";
    case Layer::Tls: return "tls";
    case Layer::Tcp: return "tcp";
    case Layer::Quic: return "quic";
    case Layer::Qdisc: return "qdisc";
    case Layer::Nic: return "nic";
    case Layer::Wire: return "wire";
  }
  return "?";
}

std::string_view to_string(Direction dir) { return dir == Direction::Tx ? "tx" : "rx"; }

std::string_view to_string(EventKind kind) {
  switch (kind) {
    case EventKind::Send: return "send";
    case EventKind::Receive: return "recv";
    case EventKind::Retransmit: return "retx";
    case EventKind::Enqueue: return "enq";
    case EventKind::Dequeue: return "deq";
    case EventKind::Drop: return "drop";
  }
  return "?";
}

namespace {

template <typename Enum>
std::optional<Enum> parse_enum(std::string_view s, std::initializer_list<Enum> values) {
  for (Enum v : values) {
    if (to_string(v) == s) return v;
  }
  return std::nullopt;
}

template <typename Int>
std::optional<Int> parse_int(std::string_view s) {
  Int v{};
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

}  // namespace

TraceRecorder::TraceRecorder(std::size_t capacity) { buf_.resize(capacity == 0 ? 1 : capacity); }

void TraceRecorder::record(const PacketEvent& ev) {
  buf_[head_] = ev;
  head_ = (head_ + 1) % buf_.size();
  ++total_;
}

std::size_t TraceRecorder::size() const {
  return total_ < buf_.size() ? static_cast<std::size_t>(total_) : buf_.size();
}

std::uint64_t TraceRecorder::overwritten() const {
  return total_ < buf_.size() ? 0 : total_ - buf_.size();
}

void TraceRecorder::clear() {
  head_ = 0;
  total_ = 0;
}

std::vector<PacketEvent> TraceRecorder::events() const {
  std::vector<PacketEvent> out;
  const std::size_t n = size();
  out.reserve(n);
  // Oldest event: head_ when wrapped, index 0 otherwise.
  const std::size_t start = total_ < buf_.size() ? 0 : head_;
  for (std::size_t i = 0; i < n; ++i) out.push_back(buf_[(start + i) % buf_.size()]);
  return out;
}

csv::Row TraceRecorder::csv_header() {
  return {"time_ns", "layer",    "dir",      "kind",  "src_host", "dst_host",
          "src_port", "dst_port", "proto",    "bytes", "seq",      "packet_id"};
}

csv::Row TraceRecorder::to_csv_row(const PacketEvent& ev) {
  return {std::to_string(ev.time.ns()),
          std::string(to_string(ev.layer)),
          std::string(to_string(ev.dir)),
          std::string(to_string(ev.kind)),
          std::to_string(ev.flow.src_host),
          std::to_string(ev.flow.dst_host),
          std::to_string(ev.flow.src_port),
          std::to_string(ev.flow.dst_port),
          ev.flow.proto == net::Proto::Tcp ? "tcp" : "udp",
          std::to_string(ev.bytes),
          std::to_string(ev.seq),
          std::to_string(ev.packet_id)};
}

std::optional<PacketEvent> TraceRecorder::from_csv_row(const csv::Row& row) {
  if (row.size() != csv_header().size()) return std::nullopt;
  PacketEvent ev;
  const auto time = parse_int<std::int64_t>(row[0]);
  const auto layer = parse_enum<Layer>(
      row[1], {Layer::App, Layer::Tls, Layer::Tcp, Layer::Quic, Layer::Qdisc, Layer::Nic,
               Layer::Wire});
  const auto dir = parse_enum<Direction>(row[2], {Direction::Tx, Direction::Rx});
  const auto kind = parse_enum<EventKind>(
      row[3], {EventKind::Send, EventKind::Receive, EventKind::Retransmit, EventKind::Enqueue,
               EventKind::Dequeue, EventKind::Drop});
  const auto src_host = parse_int<net::HostId>(row[4]);
  const auto dst_host = parse_int<net::HostId>(row[5]);
  const auto src_port = parse_int<net::Port>(row[6]);
  const auto dst_port = parse_int<net::Port>(row[7]);
  const auto bytes = parse_int<std::int64_t>(row[9]);
  const auto seq = parse_int<std::uint64_t>(row[10]);
  const auto packet_id = parse_int<std::uint64_t>(row[11]);
  if (!time || !layer || !dir || !kind || !src_host || !dst_host || !src_port || !dst_port ||
      !bytes || !seq || !packet_id || (row[8] != "tcp" && row[8] != "udp")) {
    return std::nullopt;
  }
  ev.time = TimePoint(*time);
  ev.layer = *layer;
  ev.dir = *dir;
  ev.kind = *kind;
  ev.flow = {*src_host, *dst_host, *src_port, *dst_port,
             row[8] == "tcp" ? net::Proto::Tcp : net::Proto::Udp};
  ev.bytes = *bytes;
  ev.seq = *seq;
  ev.packet_id = *packet_id;
  return ev;
}

std::string TraceRecorder::to_json(const PacketEvent& ev) {
  std::string out;
  out.reserve(192);
  out += "{\"t_ns\":" + std::to_string(ev.time.ns());
  out += ",\"layer\":\"" + std::string(to_string(ev.layer)) + "\"";
  out += ",\"dir\":\"" + std::string(to_string(ev.dir)) + "\"";
  out += ",\"kind\":\"" + std::string(to_string(ev.kind)) + "\"";
  out += ",\"flow\":\"" + std::to_string(ev.flow.src_host) + ":" +
         std::to_string(ev.flow.src_port) + ">" + std::to_string(ev.flow.dst_host) + ":" +
         std::to_string(ev.flow.dst_port) +
         (ev.flow.proto == net::Proto::Tcp ? "/tcp" : "/udp") + "\"";
  out += ",\"bytes\":" + std::to_string(ev.bytes);
  out += ",\"seq\":" + std::to_string(ev.seq);
  out += ",\"pkt\":" + std::to_string(ev.packet_id);
  out += "}";
  return out;
}

void TraceRecorder::write_csv(const std::filesystem::path& path) const {
  std::vector<csv::Row> rows;
  rows.reserve(size() + 1);
  rows.push_back(csv_header());
  for (const PacketEvent& ev : events()) rows.push_back(to_csv_row(ev));
  csv::write_file(path, rows);
}

void TraceRecorder::write_jsonl(const std::filesystem::path& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path.string());
  out << to_jsonl();
}

std::string TraceRecorder::to_jsonl() const {
  std::string out;
  out.reserve(size() * 160);
  for (const PacketEvent& ev : events()) {
    out += to_json(ev);
    out += '\n';
  }
  return out;
}

}  // namespace stob::obs
