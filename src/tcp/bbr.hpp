// BBR-style congestion control (v1 semantics, simplified).
//
// Model-based: estimates the bottleneck bandwidth (windowed max of delivery
// rate samples) and the minimum RTT (windowed min), paces at gain * btlbw
// and caps inflight at cwnd_gain * BDP. The bandwidth max is exact over the
// 10 s window and O(1) per query: samples sit in a monotonic max-queue
// (rates strictly decreasing from the front), so btlbw() reads the front.
// The pacing schedule is load-bearing for BBR, which is why the paper
// singles it out as the CCA whose estimation Stob's departure-time control
// could confuse (§5.1).
#pragma once

#include <deque>

#include "tcp/congestion.hpp"

namespace stob::tcp {

class BbrCc final : public CongestionControl {
 public:
  explicit BbrCc(Bytes mss, Bytes initial_window = Bytes(0));

  void on_ack(const AckEvent& ev) override;
  void on_loss(TimePoint now) override;
  void on_rto(TimePoint now) override;
  Bytes cwnd() const override;
  DataRate pacing_rate() const override;
  bool in_slow_start() const override { return mode_ == Mode::Startup; }
  std::string name() const override { return "bbr"; }

  DataRate btlbw() const;
  Duration min_rtt() const { return min_rtt_; }

  enum class Mode { Startup, Drain, ProbeBw, ProbeRtt };
  Mode mode() const { return mode_; }

 private:
  Bytes bdp(double gain) const;
  void update_btlbw(const AckEvent& ev);
  void update_min_rtt(const AckEvent& ev);
  void advance_mode(const AckEvent& ev);

  std::int64_t mss_;
  std::int64_t initial_cwnd_;

  Mode mode_ = Mode::Startup;
  // (time, bps), times increasing and rates strictly decreasing: the front
  // is the window's maximum.
  std::deque<std::pair<TimePoint, std::int64_t>> bw_samples_;
  Duration min_rtt_ = Duration::seconds(10);
  TimePoint min_rtt_stamp_ = TimePoint::zero();
  Duration srtt_;

  // Startup full-pipe detection.
  std::int64_t full_bw_ = 0;
  int full_bw_count_ = 0;
  TimePoint round_start_ = TimePoint::zero();

  // ProbeBW gain cycling.
  int cycle_index_ = 0;
  TimePoint cycle_stamp_ = TimePoint::zero();

  // ProbeRTT.
  TimePoint probe_rtt_done_ = TimePoint::zero();

  Bytes last_inflight_;
};

}  // namespace stob::tcp
