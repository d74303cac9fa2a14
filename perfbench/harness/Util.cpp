//===- Util.cpp - Statistics, processes, JSON and spans for the harness ---===//

#include "Bench.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace mcsafe;

namespace perfbench {

uint64_t Rng::next() {
  // splitmix64.
  uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * double(V.size())));
  return V[std::min(V.size() - 1, Rank ? Rank - 1 : 0)];
}

std::string
expectationError(const corpus::CorpusProgram &P, bool Safe,
                 const std::map<SafetyKind, unsigned> &ViolationsByKind) {
  if (Safe != P.ExpectSafe)
    return P.Name + ": verdict " + (Safe ? "SAFE" : "not SAFE") +
           ", expected " + (P.ExpectSafe ? "SAFE" : "UNSAFE");
  for (const auto &[Kind, Min] : P.ExpectedViolations) {
    auto It = ViolationsByKind.find(Kind);
    unsigned Got = It == ViolationsByKind.end() ? 0 : It->second;
    if (Got < Min)
      return P.Name + ": " + std::to_string(Got) + " " +
             safetyKindName(Kind) + " violations, expected at least " +
             std::to_string(Min);
  }
  return {};
}

std::string expectationError(const corpus::CorpusProgram &P,
                             const checker::CheckReport &R) {
  if (!R.InputsOk || (R.Verdict != checker::CheckVerdict::Safe &&
                      R.Verdict != checker::CheckVerdict::Unsafe))
    return P.Name + ": no definite verdict";
  std::map<SafetyKind, unsigned> ByKind;
  for (const auto &[Kind, Min] : P.ExpectedViolations)
    ByKind[Kind] = R.Diags.countOfKind(Kind);
  return expectationError(P, R.Verdict == checker::CheckVerdict::Safe,
                          ByKind);
}

void addCheckerCounts(std::map<std::string, double> &Sum,
                      const std::string &Program, uint64_t Visits,
                      uint64_t Obligations,
                      const checker::GlobalVerifyStats &G) {
  Sum["checker.typestate_visits"] += double(Visits);
  Sum["checker.typestate_visits." + Program] += double(Visits);
  Sum["checker.obligations"] += double(Obligations);
  Sum["checker.quick_discharges"] += double(G.QuickDischarges);
  Sum["checker.invariants_synthesized"] += double(G.InvariantsSynthesized);
  Sum["checker.induction_iterations"] += double(G.IterationsRun);
}

void addConstraintCounts(std::map<std::string, double> &Sum,
                         const Prover::Stats &S,
                         const OmegaTest::Stats &Omega) {
  Sum["constraints.sat_queries"] += double(S.SatQueries);
  Sum["constraints.cache_hits"] += double(S.CacheHits);
  Sum["constraints.tier_interval_hits"] += double(S.Tiers.IntervalHits);
  Sum["constraints.tier_dbm_hits"] += double(S.Tiers.DbmHits);
  Sum["constraints.tier_congruence_hits"] += double(S.Tiers.CongruenceHits);
  Sum["constraints.slice_components"] += double(S.Slice.Components);
  Sum["constraints.slice_cache_hits"] += double(S.Slice.CacheHits);
  Sum["constraints.omega_calls"] += double(Omega.Calls);
  Sum["constraints.omega_splinters"] += double(Omega.Splinters);
}

std::vector<const corpus::CorpusProgram *> shuffledCorpus(Rng &R) {
  std::vector<const corpus::CorpusProgram *> Ps;
  for (const corpus::CorpusProgram &P : corpus::corpus())
    Ps.push_back(&P);
  R.shuffle(Ps);
  return Ps;
}

//===----------------------------------------------------------------------===//
// JSON
//===----------------------------------------------------------------------===//

namespace {

class JsonFlattener {
public:
  JsonFlattener(std::string_view T, std::map<std::string, double> &Out)
      : T(T), Out(Out) {}

  bool run() {
    if (!value(""))
      return false;
    ws();
    return Pos == T.size();
  }

private:
  void ws() {
    while (Pos < T.size() && std::isspace(static_cast<unsigned char>(T[Pos])))
      ++Pos;
  }
  bool eat(char C) {
    ws();
    if (Pos < T.size() && T[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }
  bool string(std::string &S) {
    if (!eat('"'))
      return false;
    while (Pos < T.size() && T[Pos] != '"') {
      if (T[Pos] == '\\' && Pos + 1 < T.size())
        ++Pos;
      S += T[Pos++];
    }
    return eat('"');
  }
  bool value(const std::string &Path) {
    ws();
    if (Pos >= T.size())
      return false;
    char C = T[Pos];
    if (C == '{') {
      ++Pos;
      if (eat('}'))
        return true;
      do {
        std::string Key;
        if (!string(Key) || !eat(':') ||
            !value(Path.empty() ? Key : Path + "/" + Key))
          return false;
      } while (eat(','));
      return eat('}');
    }
    if (C == '[') {
      ++Pos;
      if (eat(']'))
        return true;
      do {
        if (!value(Path + "/[]"))
          return false;
      } while (eat(','));
      return eat(']');
    }
    if (C == '"') {
      std::string Ignored;
      return string(Ignored);
    }
    size_t Start = Pos;
    while (Pos < T.size() && std::string_view("+-0123456789.eEtruefalsn")
                                     .find(T[Pos]) != std::string_view::npos)
      ++Pos;
    std::string Tok(T.substr(Start, Pos - Start));
    if (Tok.empty())
      return false;
    if (Tok == "true" || Tok == "false" || Tok == "null")
      return true;
    char *End = nullptr;
    double V = std::strtod(Tok.c_str(), &End);
    if (*End != '\0')
      return false;
    Out[Path] = V;
    return true;
  }

  std::string_view T;
  std::map<std::string, double> &Out;
  size_t Pos = 0;
};

} // namespace

bool flattenJson(std::string_view Text, std::map<std::string, double> &Out) {
  return JsonFlattener(Text, Out).run();
}

//===----------------------------------------------------------------------===//
// Processes
//===----------------------------------------------------------------------===//

ProcessResult runProcess(const std::vector<std::string> &Argv) {
  ProcessResult R;
  int Pipe[2];
  if (::pipe2(Pipe, O_CLOEXEC) != 0)
    return R;
  std::vector<char *> Args;
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);

  Clock::time_point T0 = Clock::now();
  pid_t Pid = ::fork();
  if (Pid < 0) {
    ::close(Pipe[0]);
    ::close(Pipe[1]);
    return R;
  }
  if (Pid == 0) {
    ::dup2(Pipe[1], STDOUT_FILENO);
    int Null = ::open("/dev/null", O_WRONLY);
    if (Null >= 0)
      ::dup2(Null, STDERR_FILENO);
    ::execv(Args[0], Args.data());
    ::_exit(127);
  }
  ::close(Pipe[1]);
  char Buf[1 << 14];
  while (true) {
    ssize_t N = ::read(Pipe[0], Buf, sizeof(Buf));
    if (N > 0) {
      R.Stdout.append(Buf, static_cast<size_t>(N));
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    break;
  }
  ::close(Pipe[0]);
  int Status = 0;
  rusage Usage{};
  while (::wait4(Pid, &Status, 0, &Usage) < 0 && errno == EINTR) {
  }
  R.Seconds = secondsSince(T0);
  R.MaxRssKb = Usage.ru_maxrss;
  R.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  return R;
}

double selfPeakRssMb() {
  rusage Usage{};
  ::getrusage(RUSAGE_SELF, &Usage);
  return double(Usage.ru_maxrss) / 1024.0;
}

bool HostProbe::sample() {
  ProcessResult R = runProcess({Bin});
  char *End = nullptr;
  double Seconds = std::strtod(R.Stdout.c_str(), &End);
  if (R.ExitCode != 0 || End == R.Stdout.c_str() || !(Seconds > 0))
    return false;
  Samples.push_back(Seconds);
  return true;
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&Allowed);
  if (::sched_getaffinity(0, sizeof(Allowed), &Allowed) != 0)
    return; // Cpus stays empty: pin() leaves placement to the scheduler.
  for (int Cpu = 0; Cpu < CPU_SETSIZE; ++Cpu)
    if (CPU_ISSET(Cpu, &Allowed))
      Cpus.push_back(Cpu);
}

CpuRotation::~CpuRotation() {
  if (!Cpus.empty())
    ::sched_setaffinity(0, sizeof(Allowed), &Allowed);
}

void CpuRotation::pin(unsigned I) {
  if (Cpus.empty())
    return;
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(Cpus[I % Cpus.size()], &One);
  ::sched_setaffinity(0, sizeof(One), &One);
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

namespace {
/// One time base for every log, so merged threads line up.
const Clock::time_point TraceEpoch = Clock::now();

double nowUs() {
  return std::chrono::duration<double, std::micro>(Clock::now() - TraceEpoch)
      .count();
}
} // namespace

SpanLog::Scope::Scope(SpanLog &Log, const char *Name) : Log(Log) {
  if (!Log.Enabled)
    return;
  Span S;
  S.Name = Name;
  S.Id = Log.Spans.size() + 1;
  S.Parent = Log.Open.empty() ? 0 : Log.Spans[Log.Open.back()].Id;
  S.Tid = Log.Tid;
  S.StartUs = nowUs();
  Index = Log.Spans.size();
  Log.Spans.push_back(std::move(S));
  Log.Open.push_back(Index);
}

SpanLog::Scope::~Scope() {
  if (Index == SIZE_MAX)
    return;
  Log.Spans[Index].EndUs = nowUs();
  Log.Open.pop_back();
}

std::map<std::string, std::pair<double, uint64_t>> SpanLog::selfTimes() const {
  // Ids are 1-based positions in Spans.
  std::vector<double> ChildUs(Spans.size() + 1, 0.0);
  for (const Span &S : Spans)
    if (S.Parent)
      ChildUs[S.Parent] += S.EndUs - S.StartUs;
  std::map<std::string, std::pair<double, uint64_t>> Out;
  for (const Span &S : Spans) {
    auto &[Ms, N] = Out[S.Name];
    Ms += (S.EndUs - S.StartUs - ChildUs[S.Id]) / 1000.0;
    ++N;
  }
  return Out;
}

bool SpanLog::writeChromeTrace(const std::string &Path) const {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  OS << "{\"traceEvents\":[";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    char Buf[320];
    std::snprintf(Buf, sizeof(Buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu}}",
                  I ? "," : "", S.Name.c_str(), S.Tid, S.StartUs,
                  S.EndUs - S.StartUs, static_cast<unsigned long long>(S.Id),
                  static_cast<unsigned long long>(S.Parent));
    OS << Buf;
  }
  OS << "\n]}\n";
  return static_cast<bool>(OS);
}

void SpanLog::append(const SpanLog &Other) {
  uint64_t Offset = Spans.size();
  for (Span S : Other.Spans) {
    S.Id += Offset;
    if (S.Parent)
      S.Parent += Offset;
    Spans.push_back(std::move(S));
  }
}

} // namespace perfbench
