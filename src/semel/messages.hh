/**
 * @file
 * Wire messages of the SEMEL storage protocol and the MILANA
 * transaction protocol. Plain structs: serialization is immaterial in
 * a single-process simulation, but keeping explicit message types
 * documents exactly what crosses the network (and therefore what each
 * round trip costs).
 */

#ifndef SEMEL_MESSAGES_HH
#define SEMEL_MESSAGES_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "ftl/kv_backend.hh"

namespace semel {

using common::ClientId;
using common::Key;
using common::ShardId;
using common::Time;
using common::Value;
using common::Version;

// ------------------------------------------------------------- SEMEL

struct GetRequest
{
    Key key = 0;
    /** Read the youngest version with stamp <= at. */
    Version at;
};

struct GetResponse
{
    bool found = false;
    /** Server temporarily cannot serve (lease gap / recovery): retry. */
    bool unavailable = false;
    Version version;
    Value value;
    /**
     * MILANA extension (section 4.3): true if the key had a prepared
     * version with timestamp <= the request's `at` when served. A
     * read-only transaction whose reads all come back with this flag
     * false commits locally, with no further messages.
     */
    bool preparedLeqAt = false;
};

struct PutRequest
{
    Key key = 0;
    Value value;
    Version version;
};

enum class PutResult : std::uint8_t
{
    Ok,
    /** Version older than the stored one: rejected (at-most-once). */
    StaleRejected,
    Failed,
};

struct PutResponse
{
    PutResult result = PutResult::Failed;
};

/** Primary -> backup: one timestamped write (unordered replication). */
struct ReplicateWrite
{
    Key key = 0;
    Value value;
    Version version;
};

// ------------------------------------------------------------ MILANA

/** One read observed by a transaction (for validation). */
struct ReadSetEntry
{
    Key key = 0;
    /** The version the transaction read. */
    Version observed;
};

/** One buffered write of a transaction. */
struct WriteSetEntry
{
    Key key = 0;
    Value value;

    bool operator==(const WriteSetEntry &) const = default;
};

/** Globally unique transaction id. */
struct TxnId
{
    ClientId client = 0;
    std::uint64_t serial = 0;

    auto operator<=>(const TxnId &) const = default;
};

enum class TxnDecision : std::uint8_t
{
    Unknown,
    Commit,
    Abort,
};

/** Client -> participant primary: phase 1 of 2PC. */
struct PrepareRequest
{
    TxnId txn;
    Version commitVersion;
    /** The transaction's begin timestamp (for read validation). */
    Version beginVersion;
    /** Keys of this shard read by the transaction. */
    std::vector<ReadSetEntry> readSet;
    /** Writes of this shard (values pushed at prepare, not before). */
    std::vector<WriteSetEntry> writeSet;
    /** All other participant shards, for recovery (section 4.5). */
    std::vector<ShardId> participants;
};

enum class Vote : std::uint8_t
{
    Commit,
    Abort,
};

/**
 * Why a transaction aborted. The first five mirror the checks of
 * Algorithm 1 in order; the last two are client-side outcomes that
 * never cross the wire but share the same vocabulary so traces and
 * metrics name every abort consistently (OBSERVABILITY.md).
 */
enum class AbortReason : std::uint8_t
{
    None,
    ReadPrepared,
    ReadStale,
    WritePrepared,
    WriteReadConflict,
    WriteStale,
    /** Client side: a read observed an inconsistent snapshot. */
    SnapshotViolated,
    /** Infrastructure: a participant unreachable or recovering. */
    PrepareFailed,
    /**
     * A timestamp-order check failed while a clock fault was active
     * (chaos): the stamps themselves are suspect, not the data. Set by
     * the server, crosses the wire in PrepareResponse::reason.
     */
    ClockSuspect,
    /** The RPC timed out while a fault window was active (chaos). */
    Timeout,
};

constexpr const char *
abortReasonName(AbortReason reason)
{
    switch (reason) {
      case AbortReason::None: return "none";
      case AbortReason::ReadPrepared: return "read_prepared";
      case AbortReason::ReadStale: return "read_stale";
      case AbortReason::WritePrepared: return "write_prepared";
      case AbortReason::WriteReadConflict: return "write_read_conflict";
      case AbortReason::WriteStale: return "write_stale";
      case AbortReason::SnapshotViolated: return "snapshot_violated";
      case AbortReason::PrepareFailed: return "prepare_failed";
      case AbortReason::ClockSuspect: return "clock_suspect";
      case AbortReason::Timeout: return "timeout";
    }
    return "?";
}

struct PrepareResponse
{
    Vote vote = Vote::Abort;
    /** Which check failed when vote == Abort (None on commit). */
    AbortReason reason = AbortReason::None;
};

/** Client -> participant primary: phase 2 outcome notification. */
struct DecisionRequest
{
    TxnId txn;
    TxnDecision decision = TxnDecision::Unknown;
    /**
     * The decision is a late re-application (CTP orphan resolution or
     * recovery replay), not the coordinator's phase-2 message. Late
     * applies can land after newer versions of the same keys committed
     * elsewhere — safe on the multi-version backend (latestCommitted
     * folds with max) and exempted from the invariant monitor's
     * commit-timestamp monotonicity check.
     */
    bool late = false;
};

struct DecisionResponse
{
    /** The participant holds the outcome (MILANA: applied, and held
     *  by a quorum of its backups). */
    bool ok = false;
};

enum class TxnStatus : std::uint8_t
{
    Unknown, ///< never saw a prepare for it
    Prepared,
    Committed,
    Aborted,
};

/**
 * Primary -> backup: replicate a transaction-table update. Carries
 * the full prepare record (status Prepared, with the write set and
 * shard list) or the final outcome (Committed with its write set, or
 * Aborted). Backups fold these into their table in any order
 * (Figure 5).
 */
struct ReplicateTxnRecord
{
    TxnStatus status = TxnStatus::Prepared;
    TxnId txn;
    Version commitVersion;
    std::vector<WriteSetEntry> writeSet;
    std::vector<ShardId> participants;
};

/** Participant -> participant: CTP status query (section 4.5). */
struct TxnStatusRequest
{
    TxnId txn;
};

struct TxnStatusResponse
{
    TxnStatus status = TxnStatus::Unknown;
};

} // namespace semel

#endif // SEMEL_MESSAGES_HH
