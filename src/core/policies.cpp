#include "core/policies.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace stob::core {

std::string config_bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(u));
  return buf;
}

// -------------------------------------------------------------- SplitPolicy

SegmentDecision SplitPolicy::on_segment(const SegmentContext& ctx) {
  SegmentDecision d = SegmentDecision::passthrough(ctx);
  if (ctx.mss.count() > cfg_.threshold) {
    const std::int64_t half = (ctx.mss.count() + 1) / 2;
    d.wire_mss = Bytes(std::max(half, cfg_.min_size));
  }
  return d;
}

std::string SplitPolicy::config() const {
  return "split(threshold=" + std::to_string(cfg_.threshold) +
         ",min_size=" + std::to_string(cfg_.min_size) + ")";
}

// -------------------------------------------------------------- DelayPolicy

std::string DelayPolicy::config() const {
  return "delay(lo_frac=" + config_bits(cfg_.lo_frac) + ",hi_frac=" + config_bits(cfg_.hi_frac) +
         ",seed=" + std::to_string(cfg_.seed) + ")";
}

void DelayPolicy::on_flow_start(const net::FlowKey& flow) {
  last_departure_.erase(flow);
}

void DelayPolicy::on_flow_end(const net::FlowKey& flow) { last_departure_.erase(flow); }

SegmentDecision DelayPolicy::on_segment(const SegmentContext& ctx) {
  SegmentDecision d = SegmentDecision::passthrough(ctx);
  auto it = last_departure_.find(ctx.flow);
  if (it == last_departure_.end()) {
    last_departure_[ctx.flow] = d.departure;
    return d;  // first segment of the flow: nothing to inflate yet
  }
  const TimePoint last = it->second;
  const Duration gap = d.departure - last;
  if (gap.ns() > 0) {
    const double frac = rng_.uniform(cfg_.lo_frac, cfg_.hi_frac);
    d.departure = last + gap * (1.0 + frac);
  }
  it->second = d.departure;
  return d;
}

// ---------------------------------------------------------- CompositePolicy

SegmentDecision CompositePolicy::on_segment(const SegmentContext& ctx) {
  SegmentContext cur = ctx;
  SegmentDecision d = SegmentDecision::passthrough(ctx);
  for (Policy* p : chain_) {
    d = p->on_segment(cur);
    // Later policies refine the earlier decision.
    cur.cca_segment = d.segment;
    cur.mss = d.wire_mss;
    cur.cca_departure = d.departure;
  }
  return d;
}

void CompositePolicy::on_flow_start(const net::FlowKey& flow) {
  for (Policy* p : chain_) p->on_flow_start(flow);
}

void CompositePolicy::on_flow_end(const net::FlowKey& flow) {
  for (Policy* p : chain_) p->on_flow_end(flow);
}

std::string CompositePolicy::name() const {
  std::string n = "composite(";
  for (std::size_t i = 0; i < chain_.size(); ++i) {
    if (i) n += "+";
    n += chain_[i]->name();
  }
  return n + ")";
}

std::string CompositePolicy::config() const {
  std::string n = "composite(";
  for (std::size_t i = 0; i < chain_.size(); ++i) {
    if (i) n += "+";
    n += chain_[i]->config();
  }
  return n + ")";
}

// ---------------------------------------------------------- SweepSizePolicy

std::string SweepSizePolicy::config() const {
  return "sweep-size(alpha=" + std::to_string(cfg_.alpha) + ",mtu=" + std::to_string(cfg_.mtu) +
         ",header_overhead=" + std::to_string(cfg_.header_overhead) +
         ",tso_default_segs=" + std::to_string(cfg_.tso_default_segs) +
         ",pkt_steps=" + std::to_string(cfg_.pkt_steps) +
         ",tso_steps=" + std::to_string(cfg_.tso_steps) + ")";
}

SegmentDecision SweepSizePolicy::on_segment(const SegmentContext& ctx) {
  SegmentDecision d = SegmentDecision::passthrough(ctx);
  if (cfg_.alpha <= 0) return d;
  FlowState& st = state_[ctx.flow];

  // Wire packet size: mtu - alpha * step, cycling over pkt_steps.
  const std::int64_t pkt = cfg_.mtu - static_cast<std::int64_t>(cfg_.alpha) * st.pkt_step;
  const std::int64_t payload = std::max<std::int64_t>(pkt - cfg_.header_overhead, 64);
  d.wire_mss = Bytes(std::min(payload, ctx.mss.count()));
  st.pkt_step = (st.pkt_step + 1) % (cfg_.pkt_steps + 1);

  // TSO size in segments: 44 - (alpha/4) * step, floor 1, cycling.
  const int dec = cfg_.alpha / 4;
  const int segs = std::max(1, cfg_.tso_default_segs - dec * st.tso_step);
  st.tso_step = (st.tso_step + 1) % (cfg_.tso_steps + 1);
  const std::int64_t seg_bytes =
      std::min<std::int64_t>(static_cast<std::int64_t>(segs) * d.wire_mss.count(),
                             ctx.cca_segment.count());
  d.segment = Bytes(std::max<std::int64_t>(seg_bytes, 1));
  return d;
}

void SweepSizePolicy::on_flow_start(const net::FlowKey& flow) { state_.erase(flow); }

void SweepSizePolicy::on_flow_end(const net::FlowKey& flow) { state_.erase(flow); }

}  // namespace stob::core
