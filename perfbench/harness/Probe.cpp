//===- Probe.cpp - The benchmark's host-speed probe ------------------------===//
//
// Part of mcsafe, a reproduction of "Safety Checking of Machine Code"
// (Xu, Miller, Reps; PLDI 2000).
//
// Does a fixed amount of work like the checker's (small heap allocations,
// hash-table inserts and lookups, pointer chasing) and prints the seconds
// it took. The harness runs it between passes, on the pass's CPU, and
// scales its wall times by how much slower than usual the probe ran: on a
// shared host the speed of every CPU drifts by up to 1.6x over minutes.
// It links nothing of the checker, so a change to the checker cannot move
// it.
//
//===----------------------------------------------------------------------===//

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <unordered_map>

int main() {
  auto Start = std::chrono::steady_clock::now();
  uint64_t X = 88172645463325252ull, Sum = 0;
  auto Next = [&X] {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    return X;
  };
  std::unordered_map<uint64_t, std::unique_ptr<uint64_t[]>> Table;
  for (int I = 0; I < 60000; ++I) {
    uint64_t K = Next();
    Table[K % 200000] = std::make_unique<uint64_t[]>(4 + (K & 7));
  }
  for (int I = 0; I < 200000; ++I) {
    auto It = Table.find(Next() % 200000);
    if (It != Table.end())
      Sum += It->second[0] + 1;
  }
  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  // The checksum keeps the lookups from being optimized away.
  std::printf("%.9f %llu\n", Seconds,
              static_cast<unsigned long long>(Sum & 1));
  return 0;
}
