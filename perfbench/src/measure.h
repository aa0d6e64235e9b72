// Measurement rules shared by every workload, kept free of library
// dependencies so the self-tests can pin them with hand-computed cases.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Percentiles.
//
// A tail percentile is only reported where at least ten samples lie beyond
// it: with n samples the highest supported percentile is 100 (1 - 10/n).
// The tail metric asks for p99 and reports min(99, that bound), so a short
// sample states a lower percentile rather than quoting its maximum.

/// Highest percentile (<= want) with >= 10 samples beyond it, or a negative
/// value when n < 20 (not even the median has ten samples beyond it).
double supported_percentile(std::size_t n, double want = 99.0);

/// Nearest-rank percentile: the value at rank ceil(p/100 * n) of the sorted
/// sample (1-based). Reorders `values`. Requires a non-empty sample.
double nearest_rank(std::vector<double>& values, double p);

struct Quantiles {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;       ///< value at tail_pct
  double tail_pct = 0.0;   ///< the percentile actually reported (<= 99)
};

/// Median plus the supported tail percentile (at most `want`). Reorders
/// `values`; with fewer than 20 samples tail_pct is 50 and tail == p50.
Quantiles quantiles(std::vector<double>& values, double want = 99.0);

double median(std::vector<double> values);

/// Split `values` (in arrival order) into `parts` consecutive windows and
/// append each window's p50 and supported tail (<= want), times `scale`,
/// to the outputs. A median over windows keeps one stall from setting a
/// run's figure.
void window_quantiles(const std::vector<double>& values, int parts,
                      double want, double scale, std::vector<double>& p50s,
                      std::vector<double>& tails);

// ---------------------------------------------------------------------------
// Reference seconds.
//
// The speed of a shared host drifts over seconds to minutes: back-to-back
// runs of one fixed loop differ by up to 30%, and every window of a run
// moves with it. So each timed interval is paired with a fixed calibration
// loop (integer hashing, square roots and random reads and writes over
// 512 KiB) run just before it, and reported in reference seconds: wall
// time times kReferenceLoopS over the loop's wall time, the time the
// interval would take on a host that runs the loop in kReferenceLoopS. A
// change to the program moves the interval and not the loop; a change in
// the host's speed moves both.

constexpr double kReferenceLoopS = 1e-3;

/// Run the calibration loop once: reference seconds per wall second on the
/// host right now.
double reference_scale();

// ---------------------------------------------------------------------------
// Realized cost against hindsight OPT (ski rental, break-even B).
//
// A vehicle's threshold x issued at its event k is priced by the stop y its
// event k+1 reveals: online cost y when y < x (the stop ended while
// idling), else x + B (idled x, then paid the restart); OPT is min(y, B).
// A vehicle's last threshold in the accounting window has no revealing
// stop and is left out.
class RealizedCost {
 public:
  RealizedCost(std::size_t vehicles, double break_even);

  /// Account one event of `vehicle` (dense index): `stop_s` is the stop the
  /// event reports, `threshold` the one it was answered with (NaN when the
  /// event produced no threshold, which leaves nothing pending).
  void observe(std::size_t vehicle, double stop_s, double threshold);

  double online() const { return online_; }
  double opt() const { return opt_; }
  std::size_t priced() const { return priced_; }
  /// online / opt; 0 when nothing was priced.
  double ratio() const;

 private:
  double break_even_;
  std::vector<double> pending_;  ///< NaN = no threshold outstanding
  double online_ = 0.0;
  double opt_ = 0.0;
  std::size_t priced_ = 0;
};

// ---------------------------------------------------------------------------

/// Keep the calling thread, and every thread it starts from now on, on the
/// CPU it runs on. A caller that hands work to a pool worker and waits for
/// it then pays a context switch per hand-off, where across vCPUs it waits
/// for the other vCPU to be scheduled, which on a shared host varies from
/// run to run.
void pin_to_current_cpu();

/// Write back the dirty pages of the file system holding `path`.
void sync_filesystem(const std::string& path);

/// Resident set size of this process in MiB (VmRSS), 0 if unknown.
double rss_mb();

/// Peak resident set size of this process in MiB (VmHWM), 0 if unknown.
double peak_rss_mb();

/// Hand free heap pages back to the kernel and restart the peak-RSS count
/// from the current RSS: peak_rss_mb() then covers only what is held now
/// and what is allocated from here on.
void restart_peak_rss();

}  // namespace perfbench
