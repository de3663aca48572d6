#pragma once
/// \file progress.hpp
/// \brief Live campaign heartbeat behind `routesim_bench --progress`: a
///        `ResultSink` that counts finished cells and a background thread
///        that prints a rate-limited status line to stderr — cells
///        done/total, worker utilization (from the engine's gauges in the
///        global metrics registry), and an ETA extrapolated from the wall
///        time of the cells completed so far.
///
/// The meter is presentation only: it reads atomics the sink updates and
/// the engine's published gauges, and never touches scheduling, RNG, or
/// results.  A heartbeat line comes every 0.5 s.  By default the meter
/// activates only when stderr is a TTY (so piped or CI runs stay clean);
/// `force` overrides that, switching from in-place `\r` rewriting to one
/// full line per heartbeat so logs stay readable.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <string>
#include <thread>

#include "core/campaign.hpp"

namespace routesim::obs {

class ProgressMeter final : public ResultSink {
 public:
  /// `force`: heartbeat even when stderr is not a TTY.
  explicit ProgressMeter(bool force = false);
  ~ProgressMeter() override;

  /// False when stderr is not a TTY and force is off — callers then skip
  /// registering the sink entirely (the on_* hooks are no-ops anyway).
  [[nodiscard]] bool active() const noexcept { return active_; }

  void on_begin(const Campaign& campaign) override;
  void on_cell(const CellResult& cell) override;
  void on_end(const Campaign& campaign) override;

 private:
  [[nodiscard]] std::string render_line() const;
  void print_heartbeat(bool final_line);
  void stop_thread();

  bool active_ = false;
  bool tty_ = false;
  std::string name_ = "campaign";
  std::size_t total_ = 0;
  std::chrono::steady_clock::time_point start_{};
  std::atomic<std::size_t> done_{0};
  std::atomic<std::size_t> computed_{0};      ///< cells that actually ran
  std::atomic<double> computed_wall_s_{0.0};  ///< their summed wall time

  std::jthread heartbeat_;
  std::mutex wake_mutex_;
  std::condition_variable_any wake_;
};

}  // namespace routesim::obs
