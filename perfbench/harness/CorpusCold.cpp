//===- CorpusCold.cpp - The corpus_cold workload ---------------------------===//
//
// Untraced: every pass is one fresh `mcsafe-check --corpus all --jobs 1`
// process, as a host checking untrusted code pays it. The harness reads
// the verdicts, violations and typestate visits from the report text and
// the Omega calls from the process's --metrics-json file.
//
// Traced: the same 20 programs in-process, each checked twice: once by
// SafetyChecker::checkSource (the reference) and once by the harness's
// own composition of the layer calls, with a span around each call. The
// two must agree on verdict, visits, obligations and Omega calls.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analysis/Lint.h"
#include "checker/Annotation.h"
#include "checker/Automata.h"
#include "checker/CheckContext.h"
#include "checker/Propagation.h"
#include "constraints/Var.h"
#include "policy/PolicyParser.h"
#include "sparc/AsmParser.h"
#include "support/Io.h"

#include <sstream>

using namespace mcsafe;
using namespace mcsafe::checker;
using namespace perfbench;

namespace {

/// Passes per second of --seconds: one cold pass takes 0.3-0.5 s here.
constexpr unsigned PassesPerSecond = 2;

struct ParsedProgram {
  std::string Verdict;
  std::map<std::string, unsigned> ViolationsByKind;
  uint64_t Visits = 0;
};

/// Splits the `--corpus all` report into its "== Name ==" sections.
std::map<std::string, ParsedProgram> parseReport(const std::string &Text) {
  std::map<std::string, ParsedProgram> Out;
  ParsedProgram *Cur = nullptr;
  std::istringstream In(Text);
  std::string L;
  while (std::getline(In, L)) {
    if (L.size() > 6 && L.rfind("== ", 0) == 0 &&
        L.compare(L.size() - 3, 3, " ==") == 0) {
      Cur = &Out[L.substr(3, L.size() - 6)];
    } else if (!Cur) {
      continue;
    } else if (L.rfind("verdict: ", 0) == 0) {
      Cur->Verdict = L.substr(9);
    } else if (L.rfind("violation[", 0) == 0) {
      size_t End = L.find(']');
      if (End != std::string::npos)
        ++Cur->ViolationsByKind[L.substr(10, End - 10)];
    } else if (L.rfind("typestate visits: ", 0) == 0) {
      Cur->Visits = std::strtoull(L.c_str() + 18, nullptr, 10);
    }
  }
  return Out;
}

/// Sums "program/<name>/<Leaf>" over all programs of a metrics file.
uint64_t sumProgramMetric(const std::map<std::string, double> &M,
                          const std::string &Leaf) {
  uint64_t Sum = 0;
  for (const auto &[Key, V] : M)
    if (Key.rfind("program/", 0) == 0 && Key.size() > Leaf.size() &&
        Key.compare(Key.size() - Leaf.size(), Leaf.size(), Leaf) == 0)
      Sum += static_cast<uint64_t>(V);
  return Sum;
}

struct PassResult {
  double Seconds = 0;
  long MaxRssKb = 0;
  uint64_t Visits = 0, OmegaCalls = 0;
  std::string Report;
};

/// One cold process over the corpus. A measured program whose verdict
/// misses its expectation is a failed operation; every problem found is
/// also recorded as an error.
PassResult coldPass(const RunConfig &C, Outcome &O, bool Measured) {
  PassResult P;
  const std::string MetricsPath = C.RunDir + "/corpus-metrics.json";
  ProcessResult R = runProcess({C.CheckBin, "--corpus", "all", "--jobs", "1",
                                "--metrics-json", MetricsPath});
  P.Seconds = R.Seconds;
  P.MaxRssKb = R.MaxRssKb;
  P.Report = R.Stdout;

  std::map<std::string, ParsedProgram> Parsed = parseReport(P.Report);
  bool AnyUnsafe = false;
  for (corpus::CorpusProgram Prog : corpus::corpus()) {
    AnyUnsafe |= !Prog.ExpectSafe;
    if (C.Plant == "wrong-expectation" && Prog.Name == "Sum")
      Prog.ExpectSafe = false; // Self-test: a wrong expected verdict.
    if (Measured)
      ++O.Attempted;
    auto It = Parsed.find(Prog.Name);
    std::string Err;
    if (It == Parsed.end()) {
      Err = Prog.Name + ": missing from the report";
    } else {
      const ParsedProgram &PP = It->second;
      std::map<SafetyKind, unsigned> ByKind;
      for (const auto &[Kind, Min] : Prog.ExpectedViolations) {
        auto K = PP.ViolationsByKind.find(safetyKindName(Kind));
        ByKind[Kind] = K == PP.ViolationsByKind.end() ? 0 : K->second;
      }
      if (PP.Verdict != "SAFE" && PP.Verdict != "UNSAFE")
        Err = Prog.Name + ": verdict '" + PP.Verdict + "'";
      else
        Err = expectationError(Prog, PP.Verdict == "SAFE", ByKind);
      P.Visits += PP.Visits;
    }
    if (!Err.empty()) {
      if (Measured)
        ++O.Failed;
      O.error("cold pass: " + Err);
    }
  }
  // Correct UNSAFE verdicts make exit code 1 the expected one.
  int Expected = AnyUnsafe ? 1 : 0;
  if (R.ExitCode != Expected)
    O.error("mcsafe-check exited " + std::to_string(R.ExitCode) +
            ", expected " + std::to_string(Expected));

  std::string Err;
  std::optional<std::string> Json = support::readWholeFile(MetricsPath, Err);
  std::map<std::string, double> M;
  if (!Json || !flattenJson(*Json, M)) {
    O.error("cannot read " + MetricsPath + ": " + Err);
    return P;
  }
  P.OmegaCalls = sumProgramMetric(M, "/omega/calls");
  if (sumProgramMetric(M, "/typestate/node_visits") != P.Visits)
    O.error("typestate visits in the report and the metrics disagree");
  return P;
}

Outcome untracedCorpus(const RunConfig &C) {
  Outcome O;
  // Set-up: one warm-up pass, so page cache and binary are warm.
  PassResult First = coldPass(C, O, /*Measured=*/false);
  double SetupS = secondsSince(C.Spawned);

  std::vector<double> Seconds;
  long MaxRssKb = First.MaxRssKb;
  unsigned Passes = PassesPerSecond * C.Seconds;
  CpuRotation Cpus;
  HostProbe Probe(C.ProbeBin);
  for (unsigned I = 0; I < Passes; ++I) {
    Cpus.pin(I); // The pass's process and the probe inherit the CPU.
    PassResult P = coldPass(C, O, /*Measured=*/true);
    Seconds.push_back(P.Seconds);
    if (!Probe.sample())
      O.error("the host-speed probe failed");
    MaxRssKb = std::max(MaxRssKb, P.MaxRssKb);
    // Verdicts, diagnostics and work counters are pure functions of
    // the inputs: every pass must print the same bytes and counts.
    if (P.Report != First.Report)
      O.error("pass " + std::to_string(I) + " report differs from the first");
    if (P.Visits != First.Visits || P.OmegaCalls != First.OmegaCalls)
      O.error("pass " + std::to_string(I) + " work counts differ");
  }

  double RawPassS = median(Seconds);
  double PassS = Probe.toReference(RawPassS);
  O.Metrics["setup_s"] = SetupS;
  O.Metrics["pass_s"] = PassS;
  O.Metrics["request_p50_us"] = PassS * 1e6;
  O.Metrics["omega_calls"] = double(First.OmegaCalls);
  O.Metrics["peak_rss_mb"] = double(MaxRssKb) / 1024.0;

  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "corpus_cold: %u cold passes of %zu programs; corpus_pass_s "
                "median %.4f (min %.4f, max %.4f)",
                Passes, corpus::corpus().size(), RawPassS,
                quantile(Seconds, 0), quantile(Seconds, 1));
  O.line(Buf);
  std::snprintf(Buf, sizeof(Buf),
                "  host probe median %.2f ms (reference %.2f ms): pass_s "
                "%.4f at the reference speed",
                Probe.medianSeconds() * 1e3,
                HostProbe::ReferenceSeconds * 1e3, PassS);
  O.line(Buf);
  std::snprintf(Buf, sizeof(Buf),
                "  typestate_visits %llu/pass, omega_calls %llu/pass, "
                "peak_rss_mb %.1f, setup_s %.4f",
                static_cast<unsigned long long>(First.Visits),
                static_cast<unsigned long long>(First.OmegaCalls),
                double(MaxRssKb) / 1024.0, SetupS);
  O.line(Buf);
  return O;
}

//===----------------------------------------------------------------------===//
// Traced run
//===----------------------------------------------------------------------===//

/// What the composed pipeline produced for one program.
struct Composed {
  CheckVerdict Verdict = CheckVerdict::InternalError;
  DiagnosticEngine Diags;
  uint64_t Visits = 0, Obligations = 0;
  GlobalVerifyStats Global;
  Prover::Stats Stats;
  OmegaTest::Stats Omega;
  uint64_t CacheEntries = 0;
};

/// SafetyChecker::check's phases, called one by one with a span around
/// each. Mirrors the default options: lint with rejection and dead-
/// register pruning, known bits, private prover cache, no governor.
Composed composeCheck(const corpus::CorpusProgram &P, SpanLog &Log) {
  Composed Out;
  SpanLog::Scope Check(Log, "check");
  std::optional<sparc::Module> M;
  {
    SpanLog::Scope S(Log, "sparc.assemble");
    M = sparc::assemble(P.Asm);
  }
  std::optional<policy::Policy> Pol;
  {
    SpanLog::Scope S(Log, "policy.parse");
    Pol = policy::parsePolicy(P.Policy);
  }
  if (!M || !Pol) {
    Out.Verdict = CheckVerdict::MalformedInput;
    return Out;
  }
  std::optional<CheckContext> Ctx;
  {
    SpanLog::Scope S(Log, "checker.prepare");
    Ctx = prepare(*M, *Pol, Out.Diags);
  }
  if (!Ctx) {
    Out.Verdict = CheckVerdict::MalformedInput;
    return Out;
  }
  std::vector<CheckFailure> Failures;
  Ctx->Failures = &Failures;
  std::optional<analysis::LintResult> Lint;
  {
    SpanLog::Scope S(Log, "analysis.lint");
    Lint.emplace(analysis::runLint(Ctx->Graph, *Pol, Ctx->EntryStore,
                                   Out.Diags, &Ctx->Locs, Ctx->KnownBits));
  }
  if (Lint->Rejected) {
    Out.Verdict = CheckVerdict::Unsafe;
    return Out;
  }
  PropagationResult Prop;
  {
    SpanLog::Scope S(Log, "checker.typestate");
    Prop = propagate(*Ctx, &Lint->Live);
  }
  Out.Visits = Prop.NodeVisits;
  AnnotationResult Annot;
  {
    SpanLog::Scope S(Log, "checker.annotation");
    Annot = annotateAndVerifyLocal(*Ctx, Prop);
    Annot.LocalViolations += checkAutomata(*Ctx);
  }
  Out.Obligations = Annot.Obligations.size();
  {
    SpanLog::Scope S(Log, "checker.global");
    Prover TheProver{Prover::Options()};
    Out.Global = verifyGlobal(*Ctx, Prop, Annot, TheProver);
    Out.Stats = TheProver.stats();
    Out.Omega = TheProver.omegaStats();
    Out.CacheEntries = TheProver.cacheHandle()->stats().Entries;
  }
  Out.Verdict = Out.Diags.hasViolations() ? CheckVerdict::Unsafe
                : Out.Diags.hasFatal()    ? CheckVerdict::MalformedInput
                                          : CheckVerdict::Safe;
  return Out;
}

Outcome tracedCorpus(const RunConfig &C) {
  Outcome O;
  Rng R(C.Seed);
  SpanLog Log(true);
  double SetupS = secondsSince(C.Spawned);
  std::map<std::string, double> Sum; // Per-layer counts over all passes.
  std::vector<double> Untraced, Traced;
  unsigned Passes = std::max(1u, C.Seconds / 2);
  for (unsigned Pass = 0; Pass < Passes; ++Pass) {
    double UntracedS = 0, TracedS = 0;
    for (const corpus::CorpusProgram *P : shuffledCorpus(R)) {
      ++O.Attempted;
      CheckReport Ref;
      Clock::time_point T0 = Clock::now();
      {
        VarNamespace NS;
        Ref = SafetyChecker().checkSource(P->Asm, P->Policy);
      }
      Clock::time_point T1 = Clock::now();
      uint64_t NodesBefore = Formula::internStats().Nodes;
      Composed Got;
      {
        VarNamespace NS;
        Got = composeCheck(*P, Log);
      }
      UntracedS += secondsBetween(T0, T1);
      TracedS += secondsSince(T1);
      Sum["constraints.intern_nodes_added"] +=
          double(Formula::internStats().Nodes - NodesBefore);

      uint64_t GotOmega = Got.Omega.Calls;
      if (C.Plant == "composition-drift")
        ++GotOmega; // Self-test: the composition loses step with check().
      std::string Err = expectationError(*P, Ref);
      if (Err.empty() &&
          (Got.Verdict != Ref.Verdict || Got.Visits != Ref.TypestateNodeVisits ||
           Got.Obligations != Ref.Chars.GlobalConditions ||
           GotOmega != Ref.OmegaStats.Calls))
        Err = P->Name + ": layer composition disagrees with check()";
      if (!Err.empty()) {
        ++O.Failed;
        O.error("traced pass: " + Err);
      }
      addCheckerCounts(Sum, P->Name, Got.Visits, Got.Obligations, Got.Global);
      addConstraintCounts(Sum, Got.Stats, Got.Omega);
      Sum["constraints.cache_entries"] += double(Got.CacheEntries);
    }
    Untraced.push_back(UntracedS);
    Traced.push_back(TracedS);
  }

  for (const auto &[Name, V] : Sum)
    O.Metrics[Name] = V / Passes;
  const std::pair<const char *, const char *> Layers[] = {
      {"sparc.assemble", "sparc.assemble_ms"},
      {"policy.parse", "policy.parse_ms"},
      {"checker.prepare", "checker.prepare_ms"},
      {"analysis.lint", "analysis.lint_ms"},
      {"checker.typestate", "checker.typestate_ms"},
      {"checker.annotation", "checker.annotation_ms"},
      {"checker.global", "checker.global_ms"}};
  auto Self = Log.selfTimes();
  O.line("corpus_cold traced: " + std::to_string(Passes) +
         " in-process passes; per-layer self time per pass:");
  char Buf[256];
  for (const auto &[Span, Metric] : Layers) {
    const auto &[Ms, N] = Self[Span];
    O.Metrics[Metric] = Ms / Passes;
    std::snprintf(Buf, sizeof(Buf), "  %-20s %9.3f ms  %6llu spans", Span,
                  Ms / Passes, static_cast<unsigned long long>(N));
    O.line(Buf);
  }
  std::snprintf(Buf, sizeof(Buf), "  %-20s %9.3f ms  (composition glue)",
                "check", Self["check"].first / Passes);
  O.line(Buf);
  double Overhead = (median(Traced) / median(Untraced) - 1) * 100;
  O.Metrics["trace.overhead_pct"] = Overhead;
  std::snprintf(Buf, sizeof(Buf),
                "  visits %.0f/pass, omega calls %.0f/pass, tracing overhead "
                "%.1f%% against untraced in-process checks, setup_s %.4f",
                O.Metrics["checker.typestate_visits"],
                O.Metrics["constraints.omega_calls"], Overhead, SetupS);
  O.line(Buf);
  if (!C.TracePath.empty() && !Log.writeChromeTrace(C.TracePath))
    O.error("cannot write " + C.TracePath);
  return O;
}

} // namespace

Outcome perfbench::runCorpusCold(const RunConfig &C) {
  return C.Trace ? tracedCorpus(C) : untracedCorpus(C);
}
