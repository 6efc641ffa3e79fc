/**
 * @file
 * Content-addressed DesignPlan cache: the serving layer's
 * amortization of compile-once plans across repeated submissions.
 *
 * Keying: the 64-bit FNV-1a hash (core/checksum) of the canonical
 * `.dhdl` serialization (emitIR) after the standard pass pipeline —
 * the same fingerprint the checkpoint header uses, so "same design"
 * means the same thing everywhere. Two submissions of byte-different
 * text that canonicalize to the same IR share one plan. The full
 * canonical IR is stored alongside the key and compared on every
 * hit, so an FNV collision degrades to an uncached compile, never to
 * serving the wrong plan.
 *
 * Named designs: a submission naming a registry design and a scale
 * would rebuild the graph, run the passes and emit the IR only to
 * find the same key again. So the cache also keeps aliases from
 * (design name, exact bits of the scale) to the key that name last
 * resolved to. An alias lives only as long as its entry: eviction
 * drops it, and an entry keeps at most kAliasesPerEntry of them, so
 * the alias map is bounded by the capacity. A lookup through a live
 * alias is a hit like acquire()'s; a missing or dropped one sends
 * the caller down the build-and-acquire path.
 *
 * Concurrency: acquire() and the alias calls are thread-safe.
 * Concurrent requests for the same key compile once — the first
 * requester builds while the rest wait on the entry — and all
 * receive the identical CachedPlan (and thus the identical
 * DesignPlan pointer), which the 8-thread reuse test asserts.
 * Entries are handed out as shared_ptr, so LRU eviction never
 * invalidates a plan a running job still holds.
 */

#ifndef DHDL_SERVE_PLAN_CACHE_HH
#define DHDL_SERVE_PLAN_CACHE_HH

#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/graph.hh"
#include "dse/evaluator.hh"

namespace dhdl::serve {

/** One cached design: canonical identity + compiled plan. */
struct CachedPlan {
    uint64_t key = 0;  //!< fnv1a(ir).
    std::string ir;    //!< Canonical emitIR text (collision guard).
    Graph graph;       //!< The graph the plan was compiled from.
    /** Compile-once plan; null for structurally broken graphs (the
     *  evaluator then falls back per point, as everywhere else). */
    std::shared_ptr<const DesignPlan> plan;
    /** Wall-clock of the one-time compile. The serving layer stamps
     *  this into the *first* job's stats so a cold job's trace shows
     *  the plan-compile span and a cache hit's doesn't. */
    double planSeconds = 0;

    explicit CachedPlan(Graph g) : graph(std::move(g)) {}
};

class PlanCache
{
  public:
    explicit PlanCache(size_t capacity = 32);

    /**
     * Look up the canonical IR of `g`, compiling and inserting on a
     * miss. On a hit the passed graph is discarded and the cached
     * entry (graph + plan) is returned; `hit`, when given, reports
     * which path was taken. Never returns null.
     */
    std::shared_ptr<const CachedPlan> acquire(Graph g,
                                              bool* hit = nullptr);

    /**
     * The resident entry `design` at `scale` resolved to before (see
     * addAlias()), touched and counted as a hit exactly like
     * acquire(). Null when no live alias exists.
     */
    std::shared_ptr<const CachedPlan> lookupAlias(const std::string& design,
                                                  double scale);

    /**
     * Record that the registry design `design` built at `scale`
     * canonicalizes to `entry`. A no-op unless `entry` is resident
     * (not an FNV-collision copy, not already evicted).
     */
    void addAlias(const std::string& design, double scale,
                  const std::shared_ptr<const CachedPlan>& entry);

    /** Aliases one entry keeps; more drop the oldest. */
    static constexpr size_t kAliasesPerEntry = 4;

    struct Stats {
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t evictions = 0;
        uint64_t collisions = 0; //!< FNV collisions, served uncached.
        size_t size = 0;
        size_t capacity = 0;
    };
    Stats stats() const;

  private:
    struct Slot {
        std::shared_ptr<CachedPlan> entry; //!< Null while building.
        std::list<uint64_t>::iterator lru;
        /** Alias names recorded for this entry, oldest first. */
        std::vector<std::string> aliases;
    };

    void touch(Slot& slot, uint64_t key);
    /** Erase alias `name` if it still points at `key`. */
    void dropAlias(const std::string& name, uint64_t key);

    mutable std::mutex mu_;
    std::condition_variable builtCv_;
    std::unordered_map<uint64_t, Slot> map_;
    std::list<uint64_t> lru_; //!< Front = most recently used.
    /** Alias name (design name + the scale's bits) -> key. */
    std::unordered_map<std::string, uint64_t> aliases_;
    size_t cap_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t evictions_ = 0;
    uint64_t collisions_ = 0;
};

} // namespace dhdl::serve

#endif // DHDL_SERVE_PLAN_CACHE_HH
