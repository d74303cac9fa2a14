//===- main.cpp - The mcsafe benchmark harness -----------------------------===//
//
// Part of mcsafe, a reproduction of "Safety Checking of Machine Code"
// (Xu, Miller, Reps; PLDI 2000).
//
// Runs one workload and prints its figures, then one JSON line with the
// run's correctness, operation counts and every metric it measured:
//
//   perfbench-harness --workload corpus_cold|prover_replay|serve_mixed
//                     --seed N --seconds S --trace 0|1
//                     --check-bin PATH --serve-bin PATH --probe-bin PATH
//                     --run-dir DIR
//                     [--spawn-ns NS] [--trace-out FILE] [--plant FAULT]
//
// perfbench/run.py builds the checker and calls this; see
// perfbench/README.md for the workloads and the metrics.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>

using namespace perfbench;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench-harness --workload NAME --seed N "
               "--seconds S --trace 0|1 --check-bin PATH --serve-bin PATH "
               "--probe-bin PATH --run-dir DIR [--spawn-ns NS] "
               "[--trace-out FILE] "
               "[--plant FAULT]\n");
}

bool parseUnsigned(const char *S, uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (!*S || *End || errno)
    return false;
  Out = V;
  return true;
}

} // namespace

int main(int argc, char **argv) {
  RunConfig C;
  C.Spawned = Clock::now();
  uint64_t SpawnNs = 0, Seconds = 0, Trace = 2;
  bool HaveSeed = false;
  for (int I = 1; I + 1 < argc; I += 2) {
    const char *Flag = argv[I], *Val = argv[I + 1];
    bool Ok = true;
    if (!std::strcmp(Flag, "--workload"))
      C.Workload = Val;
    else if (!std::strcmp(Flag, "--seed"))
      Ok = HaveSeed = parseUnsigned(Val, C.Seed);
    else if (!std::strcmp(Flag, "--seconds"))
      Ok = parseUnsigned(Val, Seconds) && Seconds >= 1 && Seconds <= 600;
    else if (!std::strcmp(Flag, "--trace"))
      Ok = parseUnsigned(Val, Trace) && Trace <= 1;
    else if (!std::strcmp(Flag, "--spawn-ns"))
      Ok = parseUnsigned(Val, SpawnNs);
    else if (!std::strcmp(Flag, "--check-bin"))
      C.CheckBin = Val;
    else if (!std::strcmp(Flag, "--serve-bin"))
      C.ServeBin = Val;
    else if (!std::strcmp(Flag, "--probe-bin"))
      C.ProbeBin = Val;
    else if (!std::strcmp(Flag, "--run-dir"))
      C.RunDir = Val;
    else if (!std::strcmp(Flag, "--trace-out"))
      C.TracePath = Val;
    else if (!std::strcmp(Flag, "--plant"))
      C.Plant = Val;
    else
      Ok = false;
    if (!Ok) {
      std::fprintf(stderr, "perfbench: bad argument %s %s\n", Flag, Val);
      usage();
      return 2;
    }
  }
  if (argc % 2 == 0 || !HaveSeed || !Seconds || Trace > 1 ||
      C.CheckBin.empty() || C.ServeBin.empty() || C.ProbeBin.empty() ||
      C.RunDir.empty()) {
    usage();
    return 2;
  }
  C.Seconds = static_cast<unsigned>(Seconds);
  C.Trace = Trace == 1;
  if (SpawnNs) {
    // The launcher read CLOCK_MONOTONIC, the clock steady_clock uses on
    // Linux, just before it spawned us.
    timespec Now{};
    ::clock_gettime(CLOCK_MONOTONIC, &Now);
    int64_t NowNs = int64_t(Now.tv_sec) * 1000000000 + Now.tv_nsec;
    C.Spawned -= std::chrono::nanoseconds(NowNs - int64_t(SpawnNs));
  }

  std::error_code Ec;
  std::filesystem::create_directories(C.RunDir, Ec);
  if (Ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 C.RunDir.c_str(), Ec.message().c_str());
    return 2;
  }

  Outcome O;
  if (C.Workload == "corpus_cold")
    O = runCorpusCold(C);
  else if (C.Workload == "prover_replay")
    O = runProverReplay(C);
  else if (C.Workload == "serve_mixed")
    O = runServeMixed(C);
  else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 C.Workload.c_str());
    return 2;
  }
  std::filesystem::remove_all(C.RunDir, Ec);
  if (O.Attempted == 0) {
    for (const std::string &E : O.Errors)
      std::fprintf(stderr, "perfbench: %s\n", E.c_str());
    std::fprintf(stderr, "perfbench: %s attempted nothing\n",
                 C.Workload.c_str());
    return 1;
  }

  for (const std::string &L : O.Lines)
    std::printf("%s\n", L.c_str());
  for (const std::string &E : O.Errors)
    std::fprintf(stderr, "perfbench: INCORRECT: %s\n", E.c_str());

  // Every metric the run measured, by name; run.py picks the ones
  // BENCHMARK.json lists and adds their units.
  std::string Json;
  char Buf[256];
  for (const auto &[Name, Value] : O.Metrics) {
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\": %.17g",
                  Json.empty() ? "" : ", ", Name.c_str(), Value);
    Json += Buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
              O.Errors.empty() ? "true" : "false", O.Attempted, O.Failed,
              Json.c_str());
  return 0;
}
