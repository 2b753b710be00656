// Driver-side recovery state for the socket engine: the per-worker
// checkpoint slot (the latest checkpoint payload, held verbatim), the
// effective-checkpoint encoder a restore streams from it, the bounded
// replay buffer of the open epoch's routed batches, and worker
// exit-status classification. These are plain data structures
// (unit-tested directly); the recovery PROTOCOL — detect, respawn,
// restore, replay — lives in NetEngine.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "net/wire.h"

namespace skewless {

// Worker process exit codes (worker_main). The driver logs which one it
// reaped, so a protocol violation, a corrupt frame and a clean stop are
// distinguishable post-mortem instead of all reading as "worker died".
inline constexpr int kWorkerExitOk = 0;
inline constexpr int kWorkerExitChannel = 1;
inline constexpr int kWorkerExitHandshake = 2;
inline constexpr int kWorkerExitProtocol = 3;
inline constexpr int kWorkerExitCorruptFrame = 4;
inline constexpr int kWorkerExitFault = 5;  // injected fault (tests)
/// The post-seal checkpoint exceeds kMaxFramePayload. Replay would
/// rebuild the same state and overflow again, so the driver fails the
/// run on this code instead of recovering.
inline constexpr int kWorkerExitCheckpointTooLarge = 6;

/// Human-readable classification of a waitpid status: which exit code
/// (named) or which signal ended the worker.
[[nodiscard]] std::string describe_worker_exit(int wait_status);

/// The latest checkpoint of one worker, held as the verbatim kCheckpoint
/// payload that crossed the socket (already validate_checkpoint-ed). Only
/// the newest checkpoint is ever restored, so one slot is all the driver
/// keeps: memory is one payload per worker, never O(epochs). The bytes are
/// swapped in rather than copied or decoded, so a steady-state boundary
/// costs the driver no allocation and no per-key work.
class CheckpointSlot {
 public:
  /// Takes `payload` by swapping buffers: the slot's previous bytes go
  /// back to the caller, whose receive buffer then reuses their capacity.
  void swap_in(std::vector<std::uint8_t>& payload) { bytes_.swap(payload); }

  /// The held payload, or nullptr before the first checkpoint.
  [[nodiscard]] const std::vector<std::uint8_t>* latest() const {
    return bytes_.empty() ? nullptr : &bytes_;
  }

  /// Releases the payload (a retired worker's state is re-homed first).
  void clear() { std::vector<std::uint8_t>().swap(bytes_); }

  /// Bytes of the held payload.
  [[nodiscard]] std::size_t memory_bytes() const { return bytes_.size(); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// A state kInstall-ed into a worker since its last checkpoint (a restore
/// must re-deliver it — the checkpoint predates it). Tagged with the epoch
/// of the boundary that sent it: a checkpoint for epoch e proves only
/// installs tagged BEFORE e are reflected.
struct PendingInstall {
  std::uint64_t epoch = 0;
  WireKeyState state;
};

/// Streams the EFFECTIVE checkpoint of one worker into `out`: the records
/// of `stored` (a slot's payload, or nullptr for none) minus the keys in
/// `migrated_away`, then `installs`, under the stored counters and a
/// patched count. Byte-equal to decoding `stored`, erasing those keys,
/// appending the installs and re-encoding — without the decode.
void encode_effective_checkpoint(
    ByteWriter& out, const std::vector<std::uint8_t>* stored,
    const std::unordered_set<KeyId>& migrated_away,
    const std::vector<PendingInstall>& installs);

/// Bounded record of the open epoch's routed batches for one worker —
/// the verbatim serialized kBatch payloads, so a replay re-sends the
/// exact bytes (same tuples, same emit timestamps, same order) and the
/// respawned worker's fold is bit-identical to the lost one's. Cleared
/// when the epoch's checkpoint lands (the batches are then reflected in
/// durable state). Overflow is sticky: past the byte budget the buffer
/// stops recording, and a crash before the next checkpoint becomes
/// unrecoverable (the engine fails instead of replaying a hole).
class ReplayBuffer {
 public:
  struct RecordedBatch {
    std::uint64_t epoch = 0;
    std::vector<std::uint8_t> payload;
  };

  explicit ReplayBuffer(std::size_t max_bytes) : max_bytes_(max_bytes) {}

  /// Returns false (and records nothing) once the budget is exceeded.
  bool record(std::uint64_t epoch, const std::uint8_t* payload,
              std::size_t size) {
    if (overflowed_ || bytes_ + size > max_bytes_) {
      overflowed_ = true;
      return false;
    }
    RecordedBatch batch;
    batch.epoch = epoch;
    batch.payload.assign(payload, payload + size);
    bytes_ += size;
    batches_.push_back(std::move(batch));
    return true;
  }

  void clear() {
    batches_.clear();
    bytes_ = 0;
    overflowed_ = false;
  }

  [[nodiscard]] const std::vector<RecordedBatch>& batches() const {
    return batches_;
  }
  [[nodiscard]] std::size_t bytes() const { return bytes_; }
  [[nodiscard]] bool overflowed() const { return overflowed_; }

 private:
  std::vector<RecordedBatch> batches_;
  std::size_t max_bytes_;
  std::size_t bytes_ = 0;
  bool overflowed_ = false;
};

}  // namespace skewless
