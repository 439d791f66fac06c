// RegulaTor (Holland & Hopper, PETS'22) as a streaming Stob policy.
//
// The full algorithm:
//  * Downloads are re-shaped onto a *surge schedule*: from surge start t0
//    the send rate is R * D^(t - t0) packets/second, each slot carrying a
//    queued real packet when one is available and a dummy otherwise (up to
//    the padding budget).
//  * Surge detection: when the backlog of queued real downloads exceeds
//    `surge_threshold` times the current (decayed) rate, the surge restarts
//    (t0 = now, rate back to R) — a page's object bursts each get a fresh
//    surge, which is what hides their boundaries.
//  * Upload rate-coupling: the client may transmit one upload per
//    `upload_ratio` scheduled downloads; real uploads queue for a token and
//    excess tokens emit dummy uploads while the download schedule is hot.
//  * The schedule goes idle when there is neither payload nor padding
//    budget left; the next real download starts a new surge.
//
// Every real packet is eventually transmitted (finish() drains both queues
// on the decaying schedule, clamped at `min_rate` so draining terminates),
// so the policy never destroys payload — the defense-invariant property
// tests rely on this. The policy is deterministic given its input events;
// it draws nothing from the job Rng.
#pragma once

#include <deque>

#include "defenses/policy.hpp"

namespace stob::defenses {

class RegulatorPolicy final : public Policy {
 public:
  struct Config {
    double initial_rate = 300.0;   ///< R: packets/second at surge start
    double decay = 0.9;            ///< D: per-second rate multiplier
    double surge_threshold = 2.0;  ///< T: backlog / rate ratio restarting a surge
    double upload_ratio = 4.0;     ///< U: scheduled downloads per upload token
    std::int64_t packet_size = 1514;  ///< all emissions padded to this
    int padding_budget = 120;      ///< N: max dummy downloads per trace
    double min_rate = 5.0;         ///< decay floor, keeps draining finite
  };

  RegulatorPolicy() : RegulatorPolicy(Config{}) {}
  explicit RegulatorPolicy(Config cfg) : cfg_(cfg) {}

  std::string name() const override { return "regulator"; }
  void begin(Rng& rng) override;
  void on_packet(const PacketEvent& ev, std::vector<PacketOut>& out) override;
  void finish(double end_time, std::vector<PacketOut>& out) override;

 private:
  /// Run the surge schedule up to (and including) slots at time <= `until`.
  /// `draining` allows the schedule to keep emitting with an empty download
  /// queue only while dummies remain in budget.
  void run_schedule(double until, bool draining, std::vector<PacketOut>& out);
  void emit_upload(double t, std::vector<PacketOut>& out);
  double rate_at(double t) const;

  Config cfg_;
  std::deque<std::int64_t> down_queue_;  // real download sizes awaiting a slot
  std::deque<std::int64_t> up_queue_;    // real upload sizes awaiting a token
  double surge_start_ = 0.0;
  double next_slot_ = 0.0;
  bool idle_ = true;
  std::uint64_t scheduled_downloads_ = 0;  // slots emitted (real + dummy)
  double upload_credit_ = 0.0;             // fractional upload tokens earned
  int dummies_sent_ = 0;
};

}  // namespace stob::defenses
