/**
 * @file
 * Sharded, checkpointable campaign runs and their bit-identical merge.
 *
 * A shard runner executes one contiguous slice of the collapsed fault
 * classes (engine/shard.hh picks the slice) and emits *per-fault*
 * records — global allFaults() index plus the expanded class verdict —
 * into an engine/checkpoint.hh snapshot. Partial files therefore
 * compose independently of how any shard collapsed, batched or
 * chunked its slice, which is what makes the merged result
 * bit-identical to a single-process run: merge fills the fault vector
 * by index, re-derives the counters in fault order as the inline
 * runner does (a sequential merge calls the inline runner's own fold,
 * foldSeqVerdicts), and every per-class verdict is already
 * chunk-invariant by the engine's determinism contract.
 *
 * The same snapshot doubles as the checkpoint: cursor < units marks
 * an interrupted shard whose records cover exactly the first cursor
 * work units, and a runner handed those bytes via
 * CheckpointOptions::resume revalidates the header and continues at
 * the cursor. Per-class purity (a class verdict is a pure function of
 * netlist + config) makes the resumed result field-identical to an
 * uninterrupted run.
 */

#ifndef SCAL_FAULT_SHARD_HH
#define SCAL_FAULT_SHARD_HH

#include <functional>

#include "engine/campaign_engine.hh"
#include "engine/checkpoint.hh"
#include "engine/orchestrator.hh"
#include "engine/shard.hh"
#include "fault/campaign.hh"
#include "fault/seq_campaign.hh"

namespace scal::fault
{

/** Checkpoint plumbing for a shard run. All members optional: the
 *  default value runs the shard in one block and only materializes
 *  the final (complete) snapshot in ShardOutcome::partial. */
struct CheckpointOptions
{
    /**
     * Checkpoint cadence in fault classes, for every campaign kind: a
     * snapshot is emitted when the committed work reaches the end of
     * each block of roughly this many classes (rounded up to the
     * enclosing group/batch boundary), while later blocks already
     * run. 0 emits only the final snapshot; negative picks an
     * automatic cadence of max(64, shardClasses / 16) — about 16
     * snapshots per shard, so checkpoint bytes stay a small multiple
     * of the final snapshot regardless of campaign size.
     */
    int every = 0;
    /**
     * Receives every encoded snapshot; final is true exactly once,
     * for the complete partial. The CLI writes checkpoints and the
     * partial file here; tests capture boundary snapshots in memory.
     */
    std::function<void(const std::vector<std::uint8_t> &bytes,
                       bool final)>
        sink;
    /** Snapshot bytes to resume from (nullptr = fresh run). */
    const std::vector<std::uint8_t> *resume = nullptr;
    /** Label of the resume source in diagnostics (path or memory). */
    std::string resumeName = "<memory>";
};

/** What a shard run produces beyond its emitted snapshots. */
struct ShardOutcome
{
    /** The final snapshot (complete == true), also passed to sink. */
    std::vector<std::uint8_t> partial;
    /** Work units in / completed by this shard (== after success). */
    std::uint64_t units = 0;
    /** Units already done in the resume snapshot (0 when fresh). */
    std::uint64_t resumedUnits = 0;
    /** Fault classes and original faults covered by this shard. */
    int shardClasses = 0;
    int shardFaults = 0;
    /** Wall-clock stats of this shard's engine (non-deterministic). */
    engine::CampaignStats stats;
};

/**
 * The block loop of every shard runner: classify the units
 * [out.resumedUnits, out.units) as one ordered-commit engine pass
 * over the engine's chunks() of that range, cut again at every block
 * end. Unit u covers classes[u] fault classes. @p classify(chunk)
 * runs on a worker and returns the chunk's commit step, which runs on
 * the calling thread in unit order and appends the chunk's encoded
 * records to @p records. Each time the committed units reach a block
 * end — whole units covering at least ckpt.every classes — the
 * snapshot of @p id, its payload @p prefix then @p records, goes to
 * the sink; the final one also to out.partial. When @p cancel fires,
 * or a chunk throws engine::CampaignCancelled, the sink gets a last
 * checkpoint at the committed cursor and CampaignCancelled
 * propagates.
 */
void runCheckpointedShard(
    engine::CampaignEngine &eng, const CheckpointOptions &ckpt,
    const engine::CancelToken *cancel, engine::SnapshotHeader id,
    const std::vector<std::uint64_t> &classes,
    const std::function<std::function<void()>(engine::Chunk)> &classify,
    const engine::ByteWriter &records,
    const std::function<void(engine::ByteWriter &)> &prefix,
    ShardOutcome &out);

/**
 * Run shard @p shard of the combinational campaign. Same
 * preconditions as runAlternatingCampaign; the full-universe spec
 * ({0, 1}) plus a checkpoint sink gives a resumable single-process
 * run. Throws engine::CampaignCancelled after emitting a final
 * checkpoint (when a sink is set) if opts.cancel fires.
 */
ShardOutcome
runAlternatingCampaignShard(const netlist::Netlist &net,
                            const CampaignOptions &opts,
                            const engine::ShardSpec &shard,
                            const CheckpointOptions &ckpt = {});

/** Sequential counterpart of runAlternatingCampaignShard. */
ShardOutcome
runSequentialCampaignShard(const netlist::Netlist &net,
                           const SeqCampaignSpec &spec,
                           const SeqCampaignOptions &opts,
                           const engine::ShardSpec &shard,
                           const CheckpointOptions &ckpt = {});

/**
 * Merge complete partials into the full campaign result,
 * bit-identical to the single-process run with the same options.
 * Validates kind/netlist hash/config key agreement, one complete
 * partial per shard index, and exactly-once fault coverage; throws
 * engine::SnapshotError naming the offending partial otherwise.
 * @p names labels each partial in diagnostics (optional).
 */
CampaignResult
mergeCampaignPartials(const netlist::Netlist &net,
                      const std::vector<std::vector<std::uint8_t>> &partials,
                      const std::vector<std::string> &names = {});

/** Sequential counterpart of mergeCampaignPartials. */
SeqCampaignResult
mergeSeqCampaignPartials(const netlist::Netlist &net,
                         const std::vector<std::vector<std::uint8_t>> &partials,
                         const std::vector<std::string> &names = {});

/** Peek at a snapshot's identity header (any kind). */
engine::SnapshotHeader
snapshotHeader(const std::vector<std::uint8_t> &bytes,
               const std::string &name = "<memory>");

/** The scal_cli flags that reproduce @p opts in a worker process:
 *  the option table's rows (fault/options.hh) plus --jobs when set. */
std::vector<std::string> campaignWorkerArgs(const CampaignOptions &opts);

/** Sequential counterpart; @p spec's φ travels as --phi-index. */
std::vector<std::string>
seqCampaignWorkerArgs(const SeqCampaignOptions &opts,
                      const SeqCampaignSpec &spec);

/** The worker processes of a multi-process campaign. */
struct ShardWorkers
{
    std::vector<engine::WorkerSpec> workers;
    /** Each worker's partial file, in shard order. */
    std::vector<std::string> partials;
};

/**
 * Stage an N-way multi-process campaign of @p kind ("comb" or "seq")
 * in @p dir: write @p net to DIR/circuit.scal; worker K = 1..N runs
 * `EXE campaign|seq-campaign --circuit DIR/circuit.scal --format scal
 * FLAGS --shard K/N --partial DIR/part-K.snp --checkpoint
 * DIR/ckpt-K.snp --checkpoint-every EVERY`.
 */
ShardWorkers stageShardWorkers(const netlist::Netlist &net,
                               const std::string &kind,
                               const std::vector<std::string> &flags,
                               const std::string &exe,
                               const std::string &dir, int shards,
                               int checkpointEvery);

namespace shard_detail
{

/** One original fault's expanded verdict in a combinational partial. */
struct CombRecord
{
    std::uint32_t faultIndex = 0;
    std::uint8_t outcome = 0; ///< static_cast<uint8_t>(Outcome)
    std::vector<std::uint64_t> unsafePatterns;
};

/** Comb snapshot payload: stream identity + per-fault records. */
struct CombPayload
{
    std::uint64_t patternsApplied = 0;
    int lanes = 64;
    std::string simd;
    /** fp tail counters, carried so a resume reports the same tail. */
    std::uint64_t batches = 0;
    std::vector<CombRecord> records;
};

/** One original fault's expanded verdict in a sequential partial:
 *  its class's verdict, which the merge folds with foldSeqVerdicts. */
struct SeqRecord
{
    std::uint32_t faultIndex = 0;
    SeqClassVerdict verdict;
};

/** Seq snapshot payload: stream identity, the non-deterministic tail
 *  counters (globals take-first, work counters summed at merge), and
 *  the per-fault records. The encoded prefix also holds two reserved
 *  words after retiredEarly, always written as 0, and a route byte
 *  before the record count, always written as 1 (lane batches); all
 *  three are skipped when read. */
struct SeqPayload
{
    std::int64_t symbols = 0;
    int lanes = 0;
    std::string simd;
    std::int64_t periodsSimulated = 0;
    std::int64_t periodsSkipped = 0;
    std::int64_t retiredEarly = 0;
    int classes = 0;
    int prunedClasses = 0;
    int prunedFaults = 0;
    int batchedClasses = 0;
    int batches = 0;
    std::vector<SeqRecord> records;
};

/** A payload is its prefix (every field but the records, ending in
 *  the record count), then the records. Shard runners encode each
 *  record once and put a fresh prefix before them per snapshot. */
void encodeCombPrefix(engine::ByteWriter &w, const CombPayload &p,
                      std::uint32_t records);
void encodeCombRecord(engine::ByteWriter &w, std::uint32_t faultIndex,
                      std::uint8_t outcome,
                      const std::vector<std::uint64_t> &unsafePatterns);
CombPayload decodeCombPayload(const std::vector<std::uint8_t> &bytes,
                              const std::string &name);
void encodeSeqPrefix(engine::ByteWriter &w, const SeqPayload &p,
                     std::uint32_t records);
void encodeSeqRecord(engine::ByteWriter &w, const SeqRecord &r);
SeqPayload decodeSeqPayload(const std::vector<std::uint8_t> &bytes,
                            const std::string &name);

} // namespace shard_detail

} // namespace scal::fault

#endif // SCAL_FAULT_SHARD_HH
