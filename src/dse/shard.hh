/**
 * @file
 * First-class sharded exploration. A shard is a deterministic slice
 * of the global sample set: every shard of the same (design, seed,
 * maxPoints) configuration derives the *identical* global point
 * list — sampleGlobal() is pure — and evaluates only the indices
 * congruent to its shard index modulo the shard count. Any
 * assignment of shards to processes or machines therefore covers
 * exactly the unsharded sample set, with no coordination.
 *
 * mergeShards() reassembles shard checkpoints into one
 * ExploreResult whose checkpoint serialization, Pareto front and
 * diagnostics are byte-identical to the unsharded run's — the
 * `merge(shards) ≡ unsharded` property the shard property tests pin.
 * A missing, refused or corrupt shard degrades gracefully: the merge
 * is partial, the absent shards are named in the result and in
 * ShardFailed diagnostics, and nothing aborts.
 */

#ifndef DHDL_DSE_SHARD_HH
#define DHDL_DSE_SHARD_HH

#include <string>
#include <vector>

#include "dse/checkpoint.hh"
#include "dse/explorer.hh"

namespace dhdl::dse {

/** One shard of an N-way partition, named "index/count" on the CLI. */
struct ShardSpec {
    int index = 0; //!< 0-based, < count.
    int count = 1;

    bool isSharded() const { return count > 1; }
};

/**
 * Parse "i/N" (0-based index, 0 <= i < N). Returns an error Status
 * with a UserError Diag on malformed text or out-of-range values.
 */
Status parseShard(const std::string& text, ShardSpec& out);

/** Does global sample index i belong to this shard? */
inline bool
inShard(size_t i, const ShardSpec& s)
{
    return s.count <= 1 || int(i % size_t(s.count)) == s.index;
}

/**
 * Canonical checkpoint path of one shard: "<base>.shard-<i>-of-<N>".
 * The shard runs, the merge command and the tests all derive paths
 * through this one function so they can never disagree.
 */
std::string shardCheckpointPath(const std::string& base, int index,
                                int count);

/** Outcome of merging shard checkpoints back into one result. */
struct ShardMergeResult {
    ExploreResult result;
    CheckpointMeta meta;
    /** Shards whose checkpoint was absent or refused. */
    std::vector<int> missingShards;
    /** Per-shard load stats, indexed by shard. */
    std::vector<CheckpointLoadStats> shardLoads;

    bool complete() const { return missingShards.empty(); }
};

/**
 * Merge the N shard checkpoints "<base>.shard-<i>-of-<N>" of the
 * exploration described by (g, cfg). Rebuilds the global sample set,
 * restores every shard's evaluated points into it, and recomputes
 * stats, sorted diagnostics and the Pareto front exactly as an
 * unsharded explore() would have produced them.
 *
 * Never throws on shard damage: a shard whose checkpoint is missing
 * or identifies a different exploration is recorded in
 * missingShards plus a warning Diag (ShardFailed); its points stay
 * un-evaluated and the merge is explicitly partial. Row-level
 * damage inside a shard (torn tail, corrupt record) is truncated /
 * skipped and counted per shard, as on resume.
 */
ShardMergeResult mergeShards(const Graph& g,
                             const ExploreConfig& cfg,
                             int shardCount,
                             const std::string& checkpointBase);

/**
 * Canonical text form of diagnostics (pointIndex|stage|code|message
 * per line) — the comparison key for merge ≡ unsharded and
 * resume ≡ uninterrupted byte-identity, excluding the display-only
 * fields (worker thread, context) that legitimately vary.
 */
std::string canonicalDiags(const std::vector<Diag>& diags);

} // namespace dhdl::dse

#endif // DHDL_DSE_SHARD_HH
