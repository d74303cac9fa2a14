//===- ProverReplay.cpp - The prover_replay workload -----------------------===//
//
// Set-up checks the corpus in-process once and captures every program's
// distinct sat queries through SafetyChecker::Options::TranscriptSink.
// Each pass replays them through a fresh Prover per program, as
// certificate revalidation does, and compares each outcome with the
// recorded one: an outcome is a pure function of formula and budget.
// After the timed passes, every definite outcome is also compared with
// an Omega-only prover (tiers, congruence and slicing off).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "constraints/Var.h"

#include <cstdio>

using namespace mcsafe;
using namespace mcsafe::checker;
using namespace perfbench;

namespace {

/// Passes per second of --seconds: one replay pass takes ~45 ms here.
constexpr unsigned PassesPerSecond = 16;

struct Transcript {
  const corpus::CorpusProgram *P = nullptr;
  std::vector<QueryRecord> Queries;
};

const char *resultName(SatResult R) {
  switch (R) {
  case SatResult::Unsat:
    return "unsat";
  case SatResult::Sat:
    return "sat";
  case SatResult::Unknown:
    return "unknown";
  }
  return "?";
}

SatResult flipped(SatResult R) {
  return R == SatResult::Sat ? SatResult::Unsat : SatResult::Sat;
}

/// Per-pass totals and per-query samples of one replay pass.
struct ReplayPass {
  double Seconds = 0;
  std::vector<double> QueryUs, OmegaQueryUs, TierQueryUs;
  std::map<std::string, double> Counts;
};

ReplayPass replayPass(std::vector<Transcript> &Ts, Rng &R, bool Traced,
                      SpanLog &Log, Outcome &O) {
  ReplayPass Out;
  R.shuffle(Ts);
  uint64_t NodesBefore = Formula::internStats().Nodes;
  Clock::time_point Start = Clock::now();
  for (const Transcript &T : Ts) {
    SpanLog::Scope Span(Log, "constraints.replay_program");
    Prover P{Prover::Options()};
    for (const QueryRecord &Q : T.Queries) {
      ++O.Attempted;
      uint64_t OmegaBefore = Traced ? P.omegaStats().Calls : 0;
      Clock::time_point T0 = Clock::now();
      SatResult Got = P.checkSat(Q.F);
      double Us =
          std::chrono::duration<double, std::micro>(Clock::now() - T0).count();
      Out.QueryUs.push_back(Us);
      if (Traced)
        (P.omegaStats().Calls > OmegaBefore ? Out.OmegaQueryUs
                                            : Out.TierQueryUs)
            .push_back(Us);
      if (Got != Q.Outcome.Result) {
        ++O.Failed;
        O.error(T.P->Name + ": replayed " + resultName(Got) + ", recorded " +
                resultName(Q.Outcome.Result));
      }
    }
    auto &C = Out.Counts;
    addConstraintCounts(C, P.stats(), P.omegaStats());
    C["constraints.cache_entries"] +=
        double(P.cacheHandle()->stats().Entries);
  }
  Out.Seconds = secondsSince(Start);
  Out.Counts["constraints.intern_nodes_added"] =
      double(Formula::internStats().Nodes - NodesBefore);
  return Out;
}

} // namespace

Outcome perfbench::runProverReplay(const RunConfig &C) {
  Outcome O;
  Rng R(C.Seed);

  // Set-up: one in-process corpus check, capturing the transcripts.
  std::vector<Transcript> Ts;
  size_t Queries = 0;
  const QueryBudget Budget = Prover(Prover::Options()).budget();
  for (const corpus::CorpusProgram &P : corpus::corpus()) {
    Transcript T;
    T.P = &P;
    SafetyChecker::Options Opts;
    Opts.TranscriptSink = &T.Queries;
    CheckReport Rep;
    {
      VarNamespace NS;
      Rep = SafetyChecker(Opts).checkSource(P.Asm, P.Policy);
    }
    if (std::string Err = expectationError(P, Rep); !Err.empty())
      O.error("capture: " + Err);
    for (const QueryRecord &Q : T.Queries)
      if (!(Q.Budget == Budget))
        O.error(P.Name + ": a query was recorded under another budget");
    Queries += T.Queries.size();
    if (!T.Queries.empty())
      Ts.push_back(std::move(T));
  }
  if (C.Plant == "flip-replay" && !Ts.empty())
    // Self-test: one recorded outcome no longer matches its formula.
    Ts[0].Queries[0].Outcome.Result =
        flipped(Ts[0].Queries[0].Outcome.Result);
  double SetupS = secondsSince(C.Spawned);
  // The capture runs a whole SafetyChecker and sets this process's peak
  // memory; the replay raises it only if it needs more.
  double CapturePeakMb = selfPeakRssMb();

  SpanLog Log(C.Trace);
  SpanLog Off(false);
  std::vector<double> PassS, TracedS, QueryUs, OmegaUs, TierUs;
  std::map<std::string, double> Counts;
  unsigned Passes = PassesPerSecond * C.Seconds;
  CpuRotation Cpus;
  HostProbe Probe(C.ProbeBin);
  for (unsigned I = 0; I < Passes; ++I) {
    Cpus.pin(I / 2); // A traced pass runs on its untraced twin's CPU.
    if (!C.Trace && I % 2 == 0 && !Probe.sample())
      O.error("the host-speed probe failed");
    // A traced run alternates untraced and traced passes, so the
    // tracing overhead is measured under the same host conditions.
    bool Traced = C.Trace && I % 2 == 1;
    ReplayPass P = replayPass(Ts, R, Traced, Traced ? Log : Off, O);
    (Traced ? TracedS : PassS).push_back(P.Seconds);
    QueryUs.insert(QueryUs.end(), P.QueryUs.begin(), P.QueryUs.end());
    OmegaUs.insert(OmegaUs.end(), P.OmegaQueryUs.begin(),
                   P.OmegaQueryUs.end());
    TierUs.insert(TierUs.end(), P.TierQueryUs.begin(), P.TierQueryUs.end());
    if (I == 0)
      Counts = P.Counts;
    else if (P.Counts["constraints.omega_calls"] !=
             Counts["constraints.omega_calls"])
      O.error("pass " + std::to_string(I) + " made a different number of "
                                            "Omega calls");
  }

  // Every definite outcome must agree with an Omega-only prover.
  Prover::Options OmegaOnly;
  OmegaOnly.EnableTiers = false;
  OmegaOnly.EnableCongruence = false;
  OmegaOnly.EnableSlicing = false;
  uint64_t Compared = 0;
  for (const Transcript &T : Ts) {
    Prover P(OmegaOnly);
    for (const QueryRecord &Q : T.Queries) {
      if (Q.Outcome.Result == SatResult::Unknown)
        continue;
      SatResult Got = P.checkSat(Q.F);
      if (Got == SatResult::Unknown)
        continue;
      if (C.Plant == "flip-omega" && Compared == 0)
        Got = flipped(Got); // Self-test: the two provers disagree.
      ++Compared;
      if (Got != Q.Outcome.Result)
        O.error(T.P->Name + ": tiered prover says " +
                resultName(Q.Outcome.Result) + ", Omega-only says " +
                resultName(Got));
    }
  }
  if (Compared == 0)
    O.error("no query could be compared with the Omega-only prover");

  double Pass = median(PassS);
  double QueryP50 = quantile(QueryUs, 0.5);
  double OmegaCalls = Counts["constraints.omega_calls"];
  char Buf[320];
  std::snprintf(Buf, sizeof(Buf),
                "prover_replay: %zu queries from %zu programs, %u passes; "
                "pass median %.4f s, replay_queries_per_s %.0f",
                Queries, Ts.size(), Passes, Pass, double(Queries) / Pass);
  O.line(Buf);
  std::snprintf(Buf, sizeof(Buf),
                "  per query p50 %.2f us, p99 %.1f us; omega_calls %.0f/pass; "
                "%llu definite outcomes agree with an Omega-only prover; "
                "setup_s %.4f",
                QueryP50, quantile(QueryUs, 0.99), OmegaCalls,
                static_cast<unsigned long long>(Compared), SetupS);
  O.line(Buf);
  std::snprintf(Buf, sizeof(Buf),
                "  peak_rss_mb %.1f after capture, %.1f after replay",
                CapturePeakMb, selfPeakRssMb());
  O.line(Buf);

  if (!C.Trace) {
    std::snprintf(Buf, sizeof(Buf),
                  "  host probe median %.2f ms (reference %.2f ms): pass_s "
                  "%.4f, request_p50_us %.2f at the reference speed",
                  Probe.medianSeconds() * 1e3,
                  HostProbe::ReferenceSeconds * 1e3,
                  Probe.toReference(Pass), Probe.toReference(QueryP50));
    O.line(Buf);
    O.Metrics["setup_s"] = SetupS;
    O.Metrics["pass_s"] = Probe.toReference(Pass);
    O.Metrics["request_p50_us"] = Probe.toReference(QueryP50);
    O.Metrics["omega_calls"] = OmegaCalls;
    O.Metrics["peak_rss_mb"] = selfPeakRssMb();
    return O;
  }

  O.Metrics = Counts;
  O.Metrics["constraints.omega_query_us"] = median(OmegaUs);
  O.Metrics["constraints.tier_query_us"] = median(TierUs);
  double Overhead = (median(TracedS) / Pass - 1) * 100;
  O.Metrics["trace.overhead_pct"] = Overhead;
  std::snprintf(Buf, sizeof(Buf),
                "  traced: %zu Omega-answered queries (p50 %.1f us), %zu "
                "tier-answered (p50 %.2f us); tracing overhead %.1f%%",
                OmegaUs.size(), median(OmegaUs), TierUs.size(),
                median(TierUs), Overhead);
  O.line(Buf);
  if (!C.TracePath.empty() && !Log.writeChromeTrace(C.TracePath))
    O.error("cannot write " + C.TracePath);
  return O;
}
