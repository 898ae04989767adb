// Zipfian key sampler for contention benchmarks.
//
// Skewed access is where contention shows: under a uniform mix over a large
// key space, conflicts on one key are rare; under a zipfian mix the hottest
// handful of keys absorb most operations.  bench_ycsb (E19) and servebench's
// YCSB workloads draw their keys with this sampler.
//
// Implementation: Walker/Vose alias table over ranks 0..n-1 with
// p(rank) ∝ 1 / (rank+1)^alpha.  Two array reads + one compare per draw —
// O(1), no per-draw pow(), and exact for ANY alpha >= 0 (the YCSB
// quick-formula approximation only handles alpha < 1, which would rule out
// E19's alpha = 1.2 rows).  Build cost is O(n) once.
//
// alpha = 0 degenerates to uniform; alpha ~ 0.99 is the classic YCSB skew;
// alpha > 1 concentrates mass so hard that the top few ranks dominate
// (at alpha = 1.2, n = 4096, rank 0 alone draws ~17% of all samples).
//
// Rank r is the r-th most popular key.  Callers that do not want popularity
// correlated with key order should scatter ranks over the key space
// (e.g. multiply by an odd constant mod a power-of-two range).
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/rng.hpp"

namespace ccds {

class ZipfianGenerator {
 public:
  ZipfianGenerator(std::uint64_t n, double alpha) : n_(n) {
    std::vector<double> weight(n);
    double total = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) {
      weight[i] = 1.0 / std::pow(static_cast<double>(i + 1), alpha);
      total += weight[i];
    }
    // Vose's alias method: split ranks into under/over-full relative to the
    // uniform share 1/n, then pair each under-full rank with an over-full
    // donor.  accept_[i] is the probability (scaled to [0,1]) of keeping i
    // on a draw that lands in column i; alias_[i] is the donor otherwise.
    accept_.resize(n);
    alias_.resize(n);
    std::vector<double> scaled(n);
    std::vector<std::uint64_t> small;
    std::vector<std::uint64_t> large;
    for (std::uint64_t i = 0; i < n; ++i) {
      scaled[i] = weight[i] / total * static_cast<double>(n);
      (scaled[i] < 1.0 ? small : large).push_back(i);
    }
    while (!small.empty() && !large.empty()) {
      const std::uint64_t s = small.back();
      const std::uint64_t l = large.back();
      small.pop_back();
      large.pop_back();
      accept_[s] = scaled[s];
      alias_[s] = l;
      scaled[l] -= 1.0 - scaled[s];
      (scaled[l] < 1.0 ? small : large).push_back(l);
    }
    // Numerical leftovers are exactly-full columns.
    for (const std::uint64_t i : small) {
      accept_[i] = 1.0;
      alias_[i] = i;
    }
    for (const std::uint64_t i : large) {
      accept_[i] = 1.0;
      alias_[i] = i;
    }
  }

  // Draw a rank in [0, n); rank 0 is the most popular.
  std::uint64_t next(Xoshiro256& rng) const noexcept {
    const std::uint64_t column = rng.next_below(n_);
    return rng.next_double() < accept_[column] ? column : alias_[column];
  }

  std::uint64_t size() const noexcept { return n_; }

 private:
  std::uint64_t n_;
  std::vector<double> accept_;
  std::vector<std::uint64_t> alias_;
};

}  // namespace ccds
