// Payload encodings for every frame type (net/frame.h). Encoders write
// into a reusable ByteWriter; decoders take a CHECKED ByteReader and
// return false (reader error flag set) on truncation, impossible counts
// or out-of-range values — the connection owner then drops the peer.
//
// The boundary-summary payload (kSummary) is WorkerSketchSlab's own
// serialize()/deserialize_from() and lives with the slab; everything
// else is here.
#pragma once

#include <cstdint>
#include <vector>

#include "common/serde.h"
#include "common/types.h"
#include "core/plan.h"
#include "engine/tuple.h"

namespace skewless {

// --- kBatch ---------------------------------------------------------------
void encode_tuple_batch(ByteWriter& out, const std::vector<Tuple>& tuples);
[[nodiscard]] bool decode_tuple_batch(ByteReader& in,
                                      std::vector<Tuple>& tuples);

// --- kHello ---------------------------------------------------------------
struct HelloPayload {
  std::uint32_t worker_id = 0;
  std::uint32_t num_workers = 0;
};
void encode_hello(ByteWriter& out, const HelloPayload& hello);
[[nodiscard]] bool decode_hello(ByteReader& in, HelloPayload& hello);

// --- kSeal ----------------------------------------------------------------
/// The seal rides the CONTROL channel while the epoch's batches ride the
/// data channel, so cross-channel ordering is re-established by content:
/// `batches` is how many kBatch frames the driver sent this worker this
/// epoch, and the worker defers the seal until it has processed exactly
/// that many.
struct SealPayload {
  std::uint64_t batches = 0;
};
void encode_seal(ByteWriter& out, const SealPayload& seal);
[[nodiscard]] bool decode_seal(ByteReader& in, SealPayload& seal);

// --- kHeavySet / kExtract (key lists) ------------------------------------
void encode_key_list(ByteWriter& out, const std::vector<KeyId>& keys);
[[nodiscard]] bool decode_key_list(ByteReader& in, std::vector<KeyId>& keys);

// --- kMigrated / kInstall -------------------------------------------------
/// One migrated key: the serialized KeyState blob, still opaque bytes.
/// The driver forwards blobs from kMigrated straight into kInstall
/// without ever materializing a state object — the controller routes
/// migrations, it does not process them.
struct WireKeyState {
  KeyId key = 0;
  std::vector<std::uint8_t> blob;
};
void encode_key_states(ByteWriter& out, const std::vector<WireKeyState>& states);
[[nodiscard]] bool decode_key_states(ByteReader& in,
                                     std::vector<WireKeyState>& states);

// --- kExpire --------------------------------------------------------------
void encode_expire(ByteWriter& out, Micros watermark);
[[nodiscard]] bool decode_expire(ByteReader& in, Micros& watermark);

// --- kPlan ----------------------------------------------------------------
/// Sparse plan broadcast: sequence number plus the moves (the O(N_D)
/// payload the compact planning work bounded). Workers apply nothing
/// from it today — migration arrives as explicit Extract/Install — but
/// acknowledging it (kPlanAck echoes `seq`) is the control-latency probe
/// the bench gates on: a plan must reach a worker and return while the
/// data channel is saturated.
struct PlanPayload {
  std::uint64_t seq = 0;
  std::vector<KeyMove> moves;
};
void encode_plan(ByteWriter& out, const PlanPayload& plan);
[[nodiscard]] bool decode_plan(ByteReader& in, PlanPayload& plan);

// --- kPlanAck / kInstallAck ----------------------------------------------
struct AckPayload {
  std::uint64_t seq = 0;
};
void encode_ack(ByteWriter& out, const AckPayload& ack);
[[nodiscard]] bool decode_ack(ByteReader& in, AckPayload& ack);

// --- kCheckpoint / kRestore -----------------------------------------------
/// Post-seal worker checkpoint: every counter and state blob a respawned
/// worker needs to resume the sealed epoch's successor deterministically.
/// kRestore reuses the same encoding driver -> worker (the driver may
/// first subtract keys migrated away since the checkpoint and add keys
/// installed since — the "effective" checkpoint). `local_buckets` is the
/// worker's per-batch scratch-map bucket count: fold order into the slab
/// depends on that map's rehash history, so the restore re-establishes it
/// before replaying (the byte-identity contract under recovery).
struct CheckpointPayload {
  std::uint64_t epoch = 0;
  std::uint64_t processed = 0;
  std::uint64_t outputs = 0;
  std::uint64_t local_buckets = 0;
  std::uint64_t state_checksum = 0;
  std::vector<WireKeyState> states;
};
void encode_checkpoint(ByteWriter& out, const CheckpointPayload& cp);
[[nodiscard]] bool decode_checkpoint(ByteReader& in, CheckpointPayload& cp);

// A checkpoint carries every key state a worker holds, so the steady-state
// path never materializes one: the worker streams its store straight into
// the frame (CheckpointWriter), the driver checks the bytes in place
// (validate_checkpoint) and keeps them verbatim, and a restore walks them
// (for_each_checkpoint_state). All three speak exactly the
// encode_checkpoint format; only the rare degrade path decodes.

/// Bytes of the five u64 counters that open a checkpoint payload.
inline constexpr std::size_t kCheckpointCounterBytes = 5 * 8;

/// Structural walk that allocates nothing: accepts exactly the inputs
/// decode_checkpoint accepts, and on success leaves `in` where decode
/// would (callers still check exhausted()).
[[nodiscard]] bool validate_checkpoint(ByteReader& in);

/// The counters of a payload that passed validate_checkpoint (`states`
/// left empty).
[[nodiscard]] CheckpointPayload read_checkpoint_head(
    const std::vector<std::uint8_t>& payload);

/// Calls f(key, blob, blob_size) for each state record of a payload that
/// passed validate_checkpoint, in payload order, without copying a blob.
template <typename F>
void for_each_checkpoint_state(const std::vector<std::uint8_t>& payload,
                               F&& f) {
  ByteReader in(payload);
  (void)in.skip(kCheckpointCounterBytes);
  const std::uint32_t n = in.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    const KeyId key = in.u64();
    const std::uint32_t size = in.u32();
    const std::uint8_t* blob = payload.data() + payload.size() - in.remaining();
    (void)in.skip(size);
    f(key, blob, size);
  }
}

/// Streams one checkpoint payload into `out` record by record: the same
/// bytes encode_checkpoint would write for the same counters and states,
/// with no per-state buffer. The state count and each blob's length are
/// written as placeholders and back-patched.
class CheckpointWriter {
 public:
  /// Appends the counters of `head` (its `states` are ignored).
  CheckpointWriter(ByteWriter& out, const CheckpointPayload& head);

  /// Appends one record whose blob `write_blob(out)` serializes in place.
  template <typename WriteBlob>
  void add(KeyId key, WriteBlob&& write_blob) {
    out_.u64(key);
    const std::size_t at = out_.size();
    out_.u32(0);
    write_blob(out_);
    out_.patch_u32(at, static_cast<std::uint32_t>(out_.size() - at - 4));
    ++count_;
  }

  /// Appends one record from an already-serialized blob.
  void add(KeyId key, const std::uint8_t* blob, std::size_t size);

  /// Patches the state count; call once, after the last add().
  void finish() { out_.patch_u32(count_at_, count_); }

 private:
  ByteWriter& out_;
  std::size_t count_at_ = 0;
  std::uint32_t count_ = 0;
};

// --- kHeartbeat -----------------------------------------------------------
/// Epoch-progress liveness beat: how many batches of the open epoch the
/// worker has processed. Any heartbeat resets the driver's per-worker
/// receive deadline, so a slow-but-alive worker is never mistaken for a
/// wedged one.
struct HeartbeatPayload {
  std::uint64_t epoch_batches = 0;
};
void encode_heartbeat(ByteWriter& out, const HeartbeatPayload& hb);
[[nodiscard]] bool decode_heartbeat(ByteReader& in, HeartbeatPayload& hb);

// --- kFin -----------------------------------------------------------------
struct FinPayload {
  std::uint64_t state_checksum = 0;
  std::uint64_t state_entries = 0;
  std::uint64_t processed = 0;
  std::uint64_t outputs = 0;
};
void encode_fin(ByteWriter& out, const FinPayload& fin);
[[nodiscard]] bool decode_fin(ByteReader& in, FinPayload& fin);

}  // namespace skewless
