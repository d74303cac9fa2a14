//===- ServeMixed.cpp - The serve_mixed workload ---------------------------===//
//
// An `mcsafe-serve` subprocess with a certificate store and 2 jobs, fed
// by 2 closed-loop client connections. Set-up starts the daemon and
// certifies the 20 corpus programs. Each round of the seeded plan then
// sends 1000 requests in a shuffled order: 49 repeats of every program
// (certificate-store hits, revalidated) and one fresh variant of every
// program (a unique trailing `!` comment: a new digest, a full cold
// check through the shared prover cache, and a certificate write).
//
// The clients hold their connections until the daemon has stopped: a
// connection that closes while the daemon runs can deadlock its
// connection reaper (see CHANGES.md).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "checker/CertStore.h"
#include "checker/ParallelCheck.h"
#include "constraints/Var.h"
#include "serve/Client.h"
#include "serve/WorkerPool.h"
#include "support/Digest.h"
#include "support/Io.h"

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <thread>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace mcsafe;
using namespace mcsafe::checker;
using namespace mcsafe::serve;
using namespace perfbench;

namespace {

/// Rounds per second of --seconds: one round takes ~0.5-0.7 s here.
/// Every round's fresh checks grow the daemon by ~9 MB (see CHANGES.md),
/// so the plan is kept to about 1000 requests a second.
constexpr unsigned RoundsPerSecond = 1;
/// Repeats of each program per round, beside its one fresh variant.
constexpr unsigned RepeatsPerProgram = 49;
constexpr unsigned Clients = 2;
constexpr const char *DaemonJobs = "2";

/// The daemon subprocess. The destructor stops it if the run ends early.
class Daemon {
public:
  Daemon() = default;
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      stop();
    }
  }

  bool start(const std::vector<std::string> &Argv, const std::string &Log) {
    std::vector<char *> Args;
    for (const std::string &A : Argv)
      Args.push_back(const_cast<char *>(A.c_str()));
    Args.push_back(nullptr);
    Pid = ::fork();
    if (Pid == 0) {
      int Fd = ::open(Log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (Fd >= 0) {
        ::dup2(Fd, STDOUT_FILENO);
        ::dup2(Fd, STDERR_FILENO);
      }
      ::execv(Args[0], Args.data());
      ::_exit(127);
    }
    return Pid > 0;
  }

  /// SIGTERM (a clean drain that writes --metrics-json), then waits.
  /// Returns the exit code, or -1; \p MaxRssKb gets the peak RSS.
  int stop(long *MaxRssKb = nullptr) {
    if (Pid <= 0)
      return -1;
    ::kill(Pid, SIGTERM);
    int Status = 0;
    rusage Usage{};
    while (::wait4(Pid, &Status, 0, &Usage) < 0 && errno == EINTR) {
    }
    Pid = -1;
    if (MaxRssKb)
      *MaxRssKb = Usage.ru_maxrss;
    return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  }

private:
  pid_t Pid = -1;
};

struct Request {
  uint32_t Prog = 0; ///< Index into the corpus.
  uint32_t Round = 0;
  bool Fresh = false;
  std::string Asm; ///< Set for fresh variants only.
};

struct Response {
  double LatencyUs = 0;
  Clock::time_point Done;
  uint64_t TextDigest = 0; ///< Of the rendered report.
  bool Received = false, Shed = false, WrongId = false;
  uint64_t Visits = 0;
  Prover::Stats Stats;
  OmegaTest::Stats Omega;
  GlobalVerifyStats Global;
  uint64_t Obligations = 0;
};

std::string renderReport(const std::string &Name, const CheckReport &R) {
  ParallelCheckResult Batch;
  Batch.Programs.push_back({Name, R});
  Batch.JobsUsed = 1;
  return renderParallelReport(Batch);
}

uint64_t digestText(std::string_view Text) {
  return support::Digest().addBytes(Text).value();
}

CheckRequestMsg makeRequest(uint64_t Id, const corpus::CorpusProgram &P,
                            std::string Asm) {
  CheckRequestMsg Req;
  Req.ReqId = Id;
  Req.Name = P.Name;
  Req.Asm = std::move(Asm);
  Req.Policy = P.Policy;
  return Req;
}

/// The seeded plan: per round, every program's fresh variant and its
/// repeats, shuffled.
std::vector<Request> makePlan(Rng &R, unsigned Rounds, uint64_t Seed) {
  const auto &Corpus = corpus::corpus();
  std::vector<Request> Plan;
  for (unsigned Round = 0; Round < Rounds; ++Round) {
    std::vector<Request> Batch;
    for (uint32_t I = 0; I < Corpus.size(); ++I) {
      Request Fresh{I, Round, true, {}};
      char Tag[96];
      std::snprintf(Tag, sizeof(Tag), "\n! fresh seed %llu round %u %016llx\n",
                    static_cast<unsigned long long>(Seed), Round,
                    static_cast<unsigned long long>(R.next()));
      Fresh.Asm = Corpus[I].Asm + Tag;
      Batch.push_back(std::move(Fresh));
      for (unsigned K = 0; K < RepeatsPerProgram; ++K)
        Batch.push_back({I, Round, false, {}});
    }
    R.shuffle(Batch);
    for (Request &Q : Batch)
      Plan.push_back(std::move(Q));
  }
  return Plan;
}

bool connectRetrying(Client &Cl, const std::string &Sock, std::string &Err) {
  Cl.setTimeoutMs(60000);
  Clock::time_point Start = Clock::now();
  while (!Cl.connect(Sock, Err)) {
    if (secondsSince(Start) > 10)
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

/// In-process certificate load + revalidation of each corpus program,
/// from the store the daemon wrote: the daemon's hit path minus its
/// protocol and scheduling. Like the daemon's, the revalidating provers
/// share one warm prover cache; the first load of each program warms it
/// and is not timed.
struct CertTimes {
  std::vector<double> LoadUs, RevalidateUs, BothUs;
  uint64_t Bytes = 0;
};

CertTimes timeCertificates(const std::string &Dir, unsigned Reps,
                           SpanLog &Log, Outcome &O) {
  CertTimes T;
  CertStore Store(Dir);
  SafetyChecker::Options Opts = requestCheckerOptions(CheckRequestMsg(), 0,
                                                      0, 0);
  Opts.SharedProverCache = std::make_shared<ProverCache>();
  const std::string Config = canonicalCheckConfig(Opts);
  for (const corpus::CorpusProgram &P : corpus::corpus()) {
    uint64_t Key = CertStore::procedureKey(P.Asm, P.Policy, Config);
    std::error_code Ec;
    T.Bytes += std::filesystem::file_size(Store.pathFor(Key), Ec);
    for (unsigned I = 0; I <= Reps; ++I) {
      VarNamespace NS;
      Certificate Cert;
      SpanLog::Scope Span(Log, "checker.cert_hit");
      Clock::time_point T0 = Clock::now();
      bool Hit;
      {
        SpanLog::Scope S(Log, "checker.cert_load");
        Hit = Store.load(Key, P.Asm, P.Policy, Config, Cert) ==
              CertStore::LoadOutcome::Hit;
      }
      Clock::time_point T1 = Clock::now();
      bool Valid;
      {
        SpanLog::Scope S(Log, "checker.cert_revalidate");
        Valid = Hit && revalidateCertificate(Cert, Opts);
      }
      Clock::time_point T2 = Clock::now();
      if (!Valid) {
        O.error(P.Name + ": the daemon's certificate does not load and "
                         "revalidate in-process");
        break;
      }
      if (I == 0)
        continue;
      T.LoadUs.push_back(secondsBetween(T0, T1) * 1e6);
      T.RevalidateUs.push_back(secondsBetween(T1, T2) * 1e6);
      T.BothUs.push_back(secondsBetween(T0, T2) * 1e6);
    }
  }
  return T;
}

} // namespace

Outcome perfbench::runServeMixed(const RunConfig &C) {
  Outcome O;
  Rng R(C.Seed);
  const auto &Corpus = corpus::corpus();
  const std::string Sock = C.RunDir + "/serve.sock";
  const std::string CertDir = C.RunDir + "/certs";
  const std::string MetricsPath = C.RunDir + "/serve-metrics.json";
  const std::string LogPath = C.RunDir + "/serve.log";

  // Set-up: start the daemon, connect, certify the corpus.
  Daemon D;
  if (!D.start({C.ServeBin, "--socket", Sock, "--jobs", DaemonJobs,
                "--cert-store", CertDir, "--metrics-json", MetricsPath},
               LogPath)) {
    O.error("cannot start mcsafe-serve");
    return O;
  }
  std::vector<std::unique_ptr<Client>> Conns;
  std::string Err;
  for (unsigned I = 0; I < Clients; ++I) {
    Conns.push_back(std::make_unique<Client>());
    if (!connectRetrying(*Conns.back(), Sock, Err)) {
      O.error("cannot connect to mcsafe-serve: " + Err);
      return O;
    }
  }
  uint64_t Sent = 0;
  for (uint32_t I = 0; I < Corpus.size(); ++I) {
    CheckResponseMsg Resp;
    ++Sent;
    if (!Conns[0]->check(makeRequest(I, Corpus[I], Corpus[I].Asm), Resp,
                         Err) ||
        Resp.Shed) {
      O.error("priming " + Corpus[I].Name + ": " +
              (Resp.Shed ? std::string("shed") : Err));
      return O;
    }
  }
  double SetupS = secondsSince(C.Spawned);

  // The timed rounds: both clients pull the next request of the plan.
  unsigned Rounds = RoundsPerSecond * C.Seconds;
  std::vector<Request> Plan = makePlan(R, Rounds, C.Seed);
  std::vector<Response> Resps(Plan.size());
  std::atomic<size_t> Next{0};
  std::vector<SpanLog> ClientLogs;
  for (unsigned I = 0; I < Clients; ++I)
    ClientLogs.emplace_back(C.Trace, I + 2);
  auto ClientLoop = [&](unsigned Id) {
    Client &Cl = *Conns[Id];
    std::string E;
    for (size_t Ix; (Ix = Next.fetch_add(1)) < Plan.size();) {
      const Request &Q = Plan[Ix];
      const corpus::CorpusProgram &P = Corpus[Q.Prog];
      // A traced run records client spans on odd rounds only, so its
      // overhead is the odd rounds' time against the even ones'.
      SpanLog Off(false);
      SpanLog::Scope Span(Q.Round % 2 ? ClientLogs[Id] : Off,
                          Q.Fresh ? "serve.fresh_request" : "serve.hit_request");
      CheckRequestMsg Req = makeRequest(Q.Prog, P, Q.Fresh ? Q.Asm : P.Asm);
      CheckResponseMsg Resp;
      Clock::time_point T0 = Clock::now();
      bool Ok = Cl.check(Req, Resp, E);
      Response &Out = Resps[Ix];
      Out.Done = Clock::now();
      Out.LatencyUs = secondsBetween(T0, Out.Done) * 1e6;
      if (!Ok)
        break; // Counted below as a missing response.
      Out.Received = true;
      Out.Shed = Resp.Shed;
      Out.WrongId = Resp.ReqId != Q.Prog;
      const CheckReport &Rep = Resp.Report;
      std::string Text = renderReport(P.Name, Rep);
      if (C.Plant == "alter-response" && Ix == 0)
        Text += "!"; // Self-test: one response's bytes changed.
      Out.TextDigest = digestText(Text);
      Out.Omega = Rep.OmegaStats;
      Out.Visits = Rep.TypestateNodeVisits;
      Out.Stats = Rep.ProverStats;
      Out.Global = Rep.Global;
      Out.Obligations = Rep.Chars.GlobalConditions;
    }
  };
  Clock::time_point Start = Clock::now();
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < Clients; ++I)
    Threads.emplace_back(ClientLoop, I);
  for (std::thread &T : Threads)
    T.join();
  double WallS = secondsSince(Start);
  Sent += Plan.size();
  if (C.Plant == "drop-response" && !Resps.empty())
    Resps.back().Received = false; // Self-test: one response lost.

  // Stop the daemon before the connections close.
  long DaemonRssKb = 0;
  int DaemonExit = D.stop(&DaemonRssKb);
  Conns.clear();
  if (DaemonExit != 0)
    O.error("mcsafe-serve exited " + std::to_string(DaemonExit));

  // The standard: in-process checks of the same inputs, rendered.
  std::vector<uint64_t> Expected(Corpus.size());
  for (uint32_t I = 0; I < Corpus.size(); ++I) {
    SafetyChecker::Options Opts =
        requestCheckerOptions(CheckRequestMsg(), 0, 0, 0);
    CheckReport Ref = runRequestCheck(makeRequest(I, Corpus[I], Corpus[I].Asm),
                                      Opts);
    if (std::string E = expectationError(Corpus[I], Ref); !E.empty())
      O.error("in-process: " + E);
    Expected[I] = digestText(renderReport(Corpus[I].Name, Ref));
    // A fresh variant differs only in a trailing comment, so its report
    // must be the base program's: check that on round 0's variant.
    for (const Request &Q : Plan)
      if (Q.Fresh && Q.Prog == I && Q.Round == 0 &&
          digestText(renderReport(
              Corpus[I].Name,
              runRequestCheck(makeRequest(I, Corpus[I], Q.Asm), Opts))) !=
              Expected[I])
        O.error(Corpus[I].Name + ": a fresh variant's in-process report "
                                 "differs from the program's");
  }

  std::vector<double> All, Hits, Misses, RoundOmega(Rounds, 0.0);
  std::vector<Clock::time_point> RoundDone(Rounds, Start);
  std::map<std::string, double> FreshWork;
  uint64_t Repeats = 0, FreshCount = 0;
  for (size_t I = 0; I < Plan.size(); ++I) {
    const Request &Q = Plan[I];
    const Response &Rs = Resps[I];
    ++O.Attempted;
    (Q.Fresh ? FreshCount : Repeats) += 1;
    std::string Why = !Rs.Received ? "no response"
                      : Rs.Shed    ? "shed"
                      : Rs.WrongId ? "answer to another request"
                      : Rs.TextDigest != Expected[Q.Prog]
                          ? "report differs from the in-process check"
                          : "";
    if (!Why.empty()) {
      ++O.Failed;
      if (O.Failed <= 5)
        O.error("request " + std::to_string(I) + " (" + Corpus[Q.Prog].Name +
                (Q.Fresh ? ", fresh" : "") + "): " + Why);
      continue;
    }
    All.push_back(Rs.LatencyUs);
    (Q.Fresh ? Misses : Hits).push_back(Rs.LatencyUs);
    RoundDone[Q.Round] = std::max(RoundDone[Q.Round], Rs.Done);
    if (!Q.Fresh)
      continue;
    RoundOmega[Q.Round] += double(Rs.Omega.Calls);
    addCheckerCounts(FreshWork, Corpus[Q.Prog].Name, Rs.Visits,
                     Rs.Obligations, Rs.Global);
    addConstraintCounts(FreshWork, Rs.Stats, Rs.Omega);
  }

  // The daemon's own counts must match the plan exactly.
  std::map<std::string, double> DM;
  std::optional<std::string> Json = support::readWholeFile(MetricsPath, Err);
  if (!Json || !flattenJson(*Json, DM)) {
    O.error("cannot read the daemon's metrics: " + Err);
  } else {
    const uint64_t Primed = Corpus.size();
    const std::pair<const char *, uint64_t> Want[] = {
        {"serve/requests", Sent},
        {"serve/responses", Sent},
        {"serve/shed", 0},
        {"cert/store/hits", Repeats},
        {"cert/store/writes", Primed + FreshCount},
        {"cert/store/revalidate_failed", 0}};
    for (const auto &[Name, V] : Want)
      if (uint64_t(DM[Name]) != V)
        O.error(std::string("daemon ") + Name + " = " +
                std::to_string(uint64_t(DM[Name])) + ", the plan says " +
                std::to_string(V));
  }

  std::vector<double> RoundS;
  for (unsigned I = 0; I < Rounds; ++I)
    RoundS.push_back(
        secondsBetween(I ? RoundDone[I - 1] : Start, RoundDone[I]));
  double Rps = double(Plan.size()) / WallS;
  double OmegaPerRound = FreshWork["constraints.omega_calls"] / Rounds;
  char Buf[400];
  std::snprintf(Buf, sizeof(Buf),
                "serve_mixed: %u rounds of %zu requests (%llu fresh), %u "
                "clients, %s jobs; serve_rps %.0f, round median %.4f s",
                Rounds, Plan.size() / Rounds,
                static_cast<unsigned long long>(FreshCount / Rounds), Clients,
                DaemonJobs, Rps, median(RoundS));
  O.line(Buf);
  std::snprintf(Buf, sizeof(Buf),
                "  serve_hit_p50_us %.1f, serve_hit_p99_us %.1f, "
                "serve_miss_p50_ms %.3f, omega_calls %.0f/round (%.0f-%.0f), "
                "daemon peak_rss_mb %.1f, setup_s %.4f",
                quantile(Hits, 0.5), quantile(Hits, 0.99),
                quantile(Misses, 0.5) / 1000, OmegaPerRound,
                quantile(RoundOmega, 0), quantile(RoundOmega, 1),
                double(DaemonRssKb) / 1024, SetupS);
  O.line(Buf);
  std::snprintf(Buf, sizeof(Buf),
                "  daemon: %.0f requests, %.0f shed, %.0f certificate hits, "
                "%.0f certificate writes",
                DM["serve/requests"], DM["serve/shed"], DM["cert/store/hits"],
                DM["cert/store/writes"]);
  O.line(Buf);

  if (!C.Trace) {
    O.Metrics["setup_s"] = SetupS;
    O.Metrics["pass_s"] = median(RoundS);
    O.Metrics["request_p50_us"] = quantile(All, 0.5);
    O.Metrics["omega_calls"] = OmegaPerRound;
    O.Metrics["peak_rss_mb"] = double(DaemonRssKb) / 1024;
    return O;
  }

  for (const auto &[Name, V] : FreshWork)
    O.Metrics[Name] = V / Rounds;
  O.Metrics["serve.hit_p50_us"] = quantile(Hits, 0.5);
  O.Metrics["serve.hit_p99_us"] = quantile(Hits, 0.99);
  O.Metrics["serve.miss_p50_ms"] = quantile(Misses, 0.5) / 1000;
  O.Metrics["serve.rps"] = Rps;
  O.Metrics["serve.requests"] = DM["serve/requests"];
  O.Metrics["serve.shed"] = DM["serve/shed"];
  O.Metrics["serve.cert_hits"] = DM["cert/store/hits"];
  O.Metrics["serve.cert_writes"] = DM["cert/store/writes"];
  std::vector<double> Even, Odd;
  for (unsigned I = 0; I < Rounds; ++I)
    (I % 2 ? Odd : Even).push_back(RoundS[I]);
  O.Metrics["trace.overhead_pct"] =
      Odd.empty() ? 0 : (median(Odd) / median(Even) - 1) * 100;

  // The hit path in-process, from the store the daemon left behind.
  SpanLog Log(true);
  CertTimes CT = timeCertificates(CertDir, 20, Log, O);
  O.Metrics["checker.cert_load_us"] = median(CT.LoadUs);
  O.Metrics["checker.cert_revalidate_us"] = median(CT.RevalidateUs);
  O.Metrics["checker.cert_bytes"] = double(CT.Bytes);
  O.Metrics["serve.overhead_us"] = quantile(Hits, 0.5) - median(CT.BothUs);

  // What one fresh request leaves behind in a daemon's shared prover
  // cache and formula interner, in-process: one fresh variant of every
  // program through one shared cache, as the daemon runs them.
  auto Shared = std::make_shared<ProverCache>();
  uint64_t NodesBefore = Formula::internStats().Nodes;
  for (const Request &Q : Plan) {
    if (!Q.Fresh || Q.Round != 0)
      continue;
    SafetyChecker::Options Opts =
        requestCheckerOptions(CheckRequestMsg(), 0, 0, 0);
    Opts.SharedProverCache = Shared;
    SpanLog::Scope Span(Log, "checker.fresh_check");
    runRequestCheck(makeRequest(Q.Prog, Corpus[Q.Prog], Q.Asm), Opts);
  }
  O.Metrics["constraints.intern_nodes_added"] =
      double(Formula::internStats().Nodes - NodesBefore) / Corpus.size();
  O.Metrics["constraints.cache_entries"] =
      double(Shared->stats().Entries) / Corpus.size();

  std::snprintf(Buf, sizeof(Buf),
                "  traced: certificate load %.1f us + revalidate %.1f us "
                "in-process (%llu bytes for the corpus); serve.overhead_us "
                "%.1f; per fresh request %.0f interned nodes, %.0f cache "
                "entries; tracing overhead %.1f%%",
                O.Metrics["checker.cert_load_us"],
                O.Metrics["checker.cert_revalidate_us"],
                static_cast<unsigned long long>(CT.Bytes),
                O.Metrics["serve.overhead_us"],
                O.Metrics["constraints.intern_nodes_added"],
                O.Metrics["constraints.cache_entries"],
                O.Metrics["trace.overhead_pct"]);
  O.line(Buf);
  for (const SpanLog &L : ClientLogs)
    Log.append(L);
  if (!C.TracePath.empty() && !Log.writeChromeTrace(C.TracePath))
    O.error("cannot write " + C.TracePath);
  return O;
}
