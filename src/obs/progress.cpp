#include "obs/progress.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "obs/metrics.hpp"

namespace routesim::obs {

ProgressMeter::ProgressMeter(bool force) {
  tty_ = ::isatty(::fileno(stderr)) == 1;
  active_ = tty_ || force;
}

ProgressMeter::~ProgressMeter() { stop_thread(); }

void ProgressMeter::on_begin(const Campaign& campaign) {
  if (!active_) return;
  stop_thread();  // a reused sink restarts its heartbeat per campaign
  name_ = campaign.name();
  total_ = campaign.size();
  done_.store(0, std::memory_order_relaxed);
  computed_.store(0, std::memory_order_relaxed);
  computed_wall_s_.store(0.0, std::memory_order_relaxed);
  start_ = std::chrono::steady_clock::now();
  heartbeat_ = std::jthread([this](std::stop_token token) {
    constexpr auto period = std::chrono::duration<double>(0.5);
    std::unique_lock<std::mutex> lock(wake_mutex_);
    while (!wake_.wait_for(lock, token, period, [&] {
      return token.stop_requested();
    })) {
      print_heartbeat(false);
    }
  });
}

void ProgressMeter::on_cell(const CellResult& cell) {
  if (!active_) return;
  done_.fetch_add(1, std::memory_order_relaxed);
  if (!cell.from_cache && !cell.from_store) {
    computed_.fetch_add(1, std::memory_order_relaxed);
    atomic_add(computed_wall_s_, cell.wall_time_s);
  }
}

void ProgressMeter::on_end(const Campaign& campaign) {
  (void)campaign;
  if (!active_) return;
  stop_thread();
  print_heartbeat(true);
}

void ProgressMeter::stop_thread() {
  if (!heartbeat_.joinable()) return;
  heartbeat_.request_stop();
  wake_.notify_all();
  heartbeat_.join();
}

std::string ProgressMeter::render_line() const {
  const std::size_t done = done_.load(std::memory_order_relaxed);
  const std::size_t computed = computed_.load(std::memory_order_relaxed);
  const double wall = computed_wall_s_.load(std::memory_order_relaxed);
  const double busy =
      global_metrics().gauge("routesim_engine_busy_workers").value();
  const double pool =
      global_metrics().gauge("routesim_engine_pool_workers").value();
  const double percent =
      total_ == 0 ? 100.0 : 100.0 * static_cast<double>(done) /
                                static_cast<double>(total_);

  char piece[128];
  std::snprintf(piece, sizeof piece, "%zu/%zu cells (%.0f%%)", done, total_,
                percent);
  std::string line = "[" + name_ + "] " + piece;
  if (pool > 0.0) {
    std::snprintf(piece, sizeof piece, " | util %.1f/%.0f", busy, pool);
    line += piece;
  }
  // ETA from the mean wall time of cells already computed, spread over
  // the pool.  Cache/store hits resolve instantly, so only computed cells
  // inform the estimate; with none finished yet there is nothing to
  // extrapolate from.
  if (computed > 0 && done < total_) {
    const double mean_wall = wall / static_cast<double>(computed);
    const double eta_s = mean_wall * static_cast<double>(total_ - done) /
                         std::max(pool, 1.0);
    std::snprintf(piece, sizeof piece, " | eta %.1fs", eta_s);
    line += piece;
  }
  return line;
}

void ProgressMeter::print_heartbeat(bool final_line) {
  const std::string line = render_line();
  if (tty_) {
    // In-place rewrite; pad so a shorter line fully covers the previous.
    std::fprintf(stderr, "\r%-100s", line.c_str());
    if (final_line) std::fputc('\n', stderr);
  } else {
    std::fprintf(stderr, "%s\n", line.c_str());
  }
  std::fflush(stderr);
}

}  // namespace routesim::obs
