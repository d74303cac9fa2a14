//===- Bench.h - Shared pieces of the mcsafe benchmark harness --*- C++ -*-===//
//
// Part of mcsafe, a reproduction of "Safety Checking of Machine Code"
// (Xu, Miller, Reps; PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The harness runs one workload per process and measures the checker
/// from outside: it times calls into the layers' public functions, the
/// `mcsafe-check` and `mcsafe-serve` binaries, and the daemon protocol.
/// It adds no tracing inside the program.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "checker/SafetyChecker.h"
#include "corpus/Corpus.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include <sched.h>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}
inline double secondsSince(Clock::time_point A) {
  return secondsBetween(A, Clock::now());
}

/// One run's settings, from the command line.
struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  unsigned Seconds = 1;
  bool Trace = false;
  /// When the launcher spawned this process; set-up time counts from it.
  Clock::time_point Spawned;
  std::string CheckBin;
  std::string ServeBin;
  std::string ProbeBin;
  /// Scratch directory of this run (sockets, stores, metrics files).
  std::string RunDir;
  /// Where the traced run writes its Chrome trace.
  std::string TracePath;
  /// Self-test only: the name of one fault to plant (see run.py).
  std::string Plant;
};

/// What a workload run produced.
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Correctness failures; any entry makes the run incorrect.
  std::vector<std::string> Errors;
  /// Metric name -> value, for every metric the run reports.
  std::map<std::string, double> Metrics;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> Lines;

  void error(std::string Msg) { Errors.push_back(std::move(Msg)); }
  void line(std::string L) { Lines.push_back(std::move(L)); }
};

/// Deterministic generator for everything a seed decides.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t next();
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[next() % I]);
  }

private:
  uint64_t State;
};

double median(std::vector<double> V);
/// The Q-quantile (0 <= Q <= 1) by the nearest-rank rule.
double quantile(std::vector<double> V, double Q);

/// Checks a verdict and the violation counts by kind against the
/// corpus's hand-written expectation. Empty when they agree.
std::string expectationError(const mcsafe::corpus::CorpusProgram &P,
                             bool Safe,
                             const std::map<mcsafe::SafetyKind, unsigned>
                                 &ViolationsByKind);
std::string expectationError(const mcsafe::corpus::CorpusProgram &P,
                             const mcsafe::checker::CheckReport &R);

/// Adds one check's or replay's work counts to per-layer totals.
void addCheckerCounts(std::map<std::string, double> &Sum,
                      const std::string &Program, uint64_t Visits,
                      uint64_t Obligations,
                      const mcsafe::checker::GlobalVerifyStats &G);
void addConstraintCounts(std::map<std::string, double> &Sum,
                         const mcsafe::Prover::Stats &S,
                         const mcsafe::OmegaTest::Stats &Omega);

/// The corpus in a seed-shuffled order.
std::vector<const mcsafe::corpus::CorpusProgram *> shuffledCorpus(Rng &R);

/// Flattens a JSON document's numeric leaves to "a/b/c" -> value.
/// Returns false on malformed input.
bool flattenJson(std::string_view Text, std::map<std::string, double> &Out);

struct ProcessResult {
  int ExitCode = -1; ///< -1 when the process did not exit normally.
  double Seconds = 0;
  long MaxRssKb = 0;
  std::string Stdout;
};

/// Runs \p Argv to completion, capturing stdout (stderr is discarded).
ProcessResult runProcess(const std::vector<std::string> &Argv);

/// Peak resident set of this process, in MB.
double selfPeakRssMb();

/// The host's speed, from the probe program (harness/Probe.cpp) run
/// between passes. A workload's wall times are scaled by it to what they
/// would be at the reference speed, so that the host's drift, which moves
/// the probe and the checker alike, does not show in the figures.
class HostProbe {
public:
  /// The probe's median time on the reference host: a shared 4-vCPU
  /// Intel Xeon Linux container when it was not slowed.
  static constexpr double ReferenceSeconds = 0.024;

  explicit HostProbe(std::string Bin) : Bin(std::move(Bin)) {}
  /// Runs the probe once on the calling thread's CPUs; false if it failed.
  bool sample();
  double medianSeconds() const { return median(Samples); }
  /// \p Seconds measured now, at the reference speed; unscaled if the
  /// probe never ran (the run is then reported incorrect).
  double toReference(double Seconds) const {
    return Samples.empty() ? Seconds
                           : Seconds * ReferenceSeconds / medianSeconds();
  }

private:
  std::string Bin;
  std::vector<double> Samples;
};

/// Moves the calling thread, and the processes it starts, from one
/// allowed CPU to the next, pass by pass. On a shared host each CPU's
/// speed drifts on its own over minutes, and the scheduler tends to keep
/// a single thread on one CPU for a whole run; spreading a run's passes
/// over every CPU makes its median a figure of the host, not of one CPU.
/// The destructor restores the thread's original CPU set.
class CpuRotation {
public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation &) = delete;
  CpuRotation &operator=(const CpuRotation &) = delete;
  /// Pins the thread to the (\p I mod N)-th of its N allowed CPUs.
  void pin(unsigned I);

private:
  cpu_set_t Allowed;
  std::vector<int> Cpus;
};

/// Spans the traced runs record around each layer call, kept in memory
/// and written as Chrome trace JSON when the run ends.
class SpanLog {
public:
  struct Span {
    std::string Name;
    uint64_t Id = 0, Parent = 0;
    uint32_t Tid = 1;
    double StartUs = 0, EndUs = 0;
  };
  /// \p Tid names the thread in the Chrome trace.
  explicit SpanLog(bool Enabled, uint32_t Tid = 1)
      : Enabled(Enabled), Tid(Tid) {}

  /// RAII span; a disabled log records nothing.
  class Scope {
  public:
    Scope(SpanLog &Log, const char *Name);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog &Log;
    size_t Index = SIZE_MAX;
  };

  /// Per span name: self time (duration minus direct children) in ms
  /// and the number of spans.
  std::map<std::string, std::pair<double, uint64_t>> selfTimes() const;
  bool writeChromeTrace(const std::string &Path) const;
  /// Adds another thread's closed spans to this log.
  void append(const SpanLog &Other);

private:
  bool Enabled;
  uint32_t Tid;
  std::vector<Span> Spans;
  std::vector<size_t> Open;
};

Outcome runCorpusCold(const RunConfig &C);
Outcome runProverReplay(const RunConfig &C);
Outcome runServeMixed(const RunConfig &C);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
