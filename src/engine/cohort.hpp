// Cohort grouping for the batched SoA solver path.
//
// A panel or calibration batch presents many jobs whose deterministic
// simulation stage is *compatible*: same sensor, same protocol, same
// grid topology and dt — only the sample differs. The engine groups
// such jobs by their simulation CacheKey and hands each group of
// *distinct* keys to the transducer's cohort prefill, which runs them
// in lockstep through the batched stepper (transport/diffusion_batch)
// and seeds the SimCache. The per-job path then hits the cache, so
// batching stays byte-invisible: a batched engine's results are
// identical to a serial engine's (docs/determinism.md, "Cohort
// batching" in docs/performance.md).
//
// Lives in engine/ (not core/) because grouping is keyed on the
// engine's content-hash CacheKey and feeds the engine's SimCache —
// core/ re-exports the seam via Transducer::prefill_cohort.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/sim_cache.hpp"

namespace biosens::engine {

/// What one cohort prefill accomplished — accumulated into engine
/// metrics (batch_groups / batch_lanes / batch_factorizations) for
/// observability parity with the sim-cache counters.
struct CohortPrefillStats {
  /// Lockstep groups actually batch-stepped (0 when nothing batched).
  std::uint64_t groups = 0;
  /// Distinct simulations advanced inside those groups.
  std::uint64_t lanes = 0;
  /// Shared-matrix factorizations paid across all groups (1 per group
  /// for a fixed-dt protocol; each per-job run pays one).
  std::uint64_t factorizations = 0;

  CohortPrefillStats& operator+=(const CohortPrefillStats& other) {
    groups += other.groups;
    lanes += other.lanes;
    factorizations += other.factorizations;
    return *this;
  }
};

/// One lockstep group: the shared content key and the indices (into the
/// caller's item list) that collapsed onto it. Indices are in first-seen
/// order, so iteration is deterministic.
struct CohortGroup {
  CacheKey key;
  std::vector<std::size_t> members;
};

/// Stable-ordered grouping of items by content key: the first item with
/// a new key opens a group, duplicates append to it. Used by cohort
/// prefills to batch only *distinct* simulations (duplicates are cache
/// hits by construction).
class CohortGrouper {
 public:
  void add(CacheKey key, std::size_t member) {
    auto [it, inserted] = index_.try_emplace(key, groups_.size());
    if (inserted) {
      groups_.push_back(CohortGroup{std::move(key), {member}});
    } else {
      groups_[it->second].members.push_back(member);
    }
  }

  [[nodiscard]] const std::vector<CohortGroup>& groups() const {
    return groups_;
  }
  [[nodiscard]] std::size_t size() const { return groups_.size(); }
  [[nodiscard]] bool empty() const { return groups_.empty(); }

 private:
  std::vector<CohortGroup> groups_;
  std::unordered_map<CacheKey, std::size_t, CacheKeyHasher> index_;
};

}  // namespace biosens::engine
