// Content-addressed memoization cache for simulation results.
//
// A million-user batch workload re-presents the same physics over and
// over: every patient on the same sensor panel with the same buffer
// conditions runs an identical Crank-Nicolson solve before per-sample
// noise is applied. The SimCache remembers those deterministic stages:
// a sharded, mutex-striped LRU keyed by a canonical 128-bit content
// hash of everything the cached computation reads (sensor spec,
// protocol, environment, sample composition — and any seed-relevant
// input, when the stage consumes one).
//
// Correctness contract (see docs/performance.md):
//  - A cached value must be a *pure function of its key*. Anything
//    drawn from an Rng stream either lives outside the cached stage
//    (the readout noise applied on top of a cached ideal trace) or has
//    its seed folded into the key. Under that discipline cached and
//    uncached batches are byte-identical at any worker count.
//  - Keys are canonical: doubles are hashed by bit pattern with -0.0
//    normalized to +0.0, strings are length-prefixed, and field order
//    is fixed by the key builder, so logically equal inputs collide
//    onto one entry and any changed field misses.
//
// Concurrency: the key's low hash selects one of `shards` independent
// LRU segments, each behind its own mutex, so concurrent workers
// contend only when they touch the same segment. Hit/miss/eviction
// counts feed the engine's MetricsRegistry when one is attached.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>
#include <list>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace biosens::engine {

class MetricsRegistry;

/// Canonical 128-bit content hash, built field by field. Two
/// independent FNV-1a streams make accidental collisions across the
/// few-thousand-entry caches this engine runs astronomically unlikely;
/// equality compares both words, never buckets.
class CacheKey {
 public:
  CacheKey& add(double v) {
    // Canonicalize: one bit pattern per logical value.
    if (v == 0.0) v = 0.0;  // folds -0.0 into +0.0
    if (v != v) v = std::numeric_limits<double>::quiet_NaN();
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return add(bits);
  }
  CacheKey& add(std::uint64_t v) {
    unsigned char bytes[8];
    std::memcpy(bytes, &v, sizeof(bytes));
    mix(bytes, sizeof(bytes));
    return *this;
  }
  CacheKey& add(std::int64_t v) {
    return add(static_cast<std::uint64_t>(v));
  }
  CacheKey& add(bool v) { return add(std::uint64_t{v ? 1u : 0u}); }
  CacheKey& add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));  // length prefix
    mix(reinterpret_cast<const unsigned char*>(s.data()), s.size());
    return *this;
  }

  [[nodiscard]] bool operator==(const CacheKey&) const = default;

  /// Low word — used for shard and bucket selection.
  [[nodiscard]] std::uint64_t low() const { return lo_; }
  [[nodiscard]] std::uint64_t high() const { return hi_; }

 private:
  void mix(const unsigned char* p, std::size_t n) {
    constexpr std::uint64_t kPrime = 0x100000001b3ULL;
    for (std::size_t i = 0; i < n; ++i) {
      lo_ = (lo_ ^ p[i]) * kPrime;
      hi_ = (hi_ ^ (p[i] + 0x9e)) * kPrime;
    }
  }

  // Distinct offset bases keep the two streams independent.
  std::uint64_t lo_ = 0xcbf29ce484222325ULL;
  std::uint64_t hi_ = 0x9ae16a3b2f90404fULL;
};

struct CacheKeyHasher {
  std::size_t operator()(const CacheKey& k) const noexcept {
    return static_cast<std::size_t>(k.low() ^ (k.high() >> 1));
  }
};

struct SimCacheOptions {
  /// Cached entries (>= 1), split evenly over the shards: each shard
  /// holds at most ceil(capacity / shards) and evicts past that, so an
  /// uneven key spread evicts before the total is reached. A cache that
  /// must keep every entry of a known roster needs `shards = 1`.
  std::size_t capacity = 4096;
  /// Independent mutex-striped LRU segments (clamped to [1, capacity]).
  std::size_t shards = 16;
};

/// A consistent point-in-time view of the cache's instrumentation.
struct SimCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t entries = 0;  ///< currently resident values

  [[nodiscard]] double hit_rate() const {
    const std::uint64_t lookups = hits + misses;
    return lookups > 0
               ? static_cast<double>(hits) / static_cast<double>(lookups)
               : 0.0;
  }
};

/// Sharded, mutex-striped LRU of type-erased simulation artifacts.
///
/// Values are immutable shared_ptrs: find() hands out a reference the
/// caller may keep using even after the entry is evicted, so a hit
/// never copies the artifact and eviction never invalidates a reader.
class SimCache {
 public:
  using ValuePtr = std::shared_ptr<const void>;

  explicit SimCache(SimCacheOptions options = {},
                    MetricsRegistry* metrics = nullptr);

  SimCache(const SimCache&) = delete;
  SimCache& operator=(const SimCache&) = delete;

  /// The cached value, promoted to most-recently-used; nullptr on miss.
  [[nodiscard]] ValuePtr find(const CacheKey& key);

  /// Inserts (or replaces) the value for a key, evicting the shard's
  /// least-recently-used entries beyond its capacity share.
  void insert(const CacheKey& key, ValuePtr value);

  /// Typed convenience over find(): the caller owns the key discipline
  /// (one value type per key domain — include a stage tag in the key).
  template <typename T>
  [[nodiscard]] std::shared_ptr<const T> find_as(const CacheKey& key) {
    return std::static_pointer_cast<const T>(find(key));
  }

  /// Typed convenience over insert(); returns the stored pointer.
  template <typename T>
  std::shared_ptr<const T> put(const CacheKey& key, T value) {
    auto stored = std::make_shared<const T>(std::move(value));
    insert(key, stored);
    return stored;
  }

  [[nodiscard]] SimCacheStats stats() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// Drops every entry (counters keep accumulating).
  void clear();

 private:
  struct Entry {
    CacheKey key;
    ValuePtr value;
  };
  struct Shard {
    std::mutex mutex;
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHasher>
        index;
  };

  [[nodiscard]] Shard& shard_for(const CacheKey& key) {
    return *shards_[key.low() % shards_.size()];
  }

  std::size_t capacity_;
  std::size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  MetricsRegistry* metrics_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace biosens::engine
