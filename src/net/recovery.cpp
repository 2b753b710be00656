#include "net/recovery.h"

#include <cstring>

#include <sys/wait.h>

namespace skewless {

std::string describe_worker_exit(int wait_status) {
  if (WIFEXITED(wait_status)) {
    const int code = WEXITSTATUS(wait_status);
    const char* what = "unknown exit code";
    switch (code) {
      case kWorkerExitOk: what = "clean Fin"; break;
      case kWorkerExitChannel: what = "channel I/O failure"; break;
      case kWorkerExitHandshake: what = "handshake failure"; break;
      case kWorkerExitProtocol: what = "protocol error"; break;
      case kWorkerExitCorruptFrame: what = "corrupt frame"; break;
      case kWorkerExitFault: what = "injected fault"; break;
      case kWorkerExitCheckpointTooLarge:
        what = "checkpoint over the frame payload cap";
        break;
      default: break;
    }
    return "exited " + std::to_string(code) + " (" + what + ")";
  }
  if (WIFSIGNALED(wait_status)) {
    const int sig = WTERMSIG(wait_status);
    const char* name = ::strsignal(sig);
    return "killed by signal " + std::to_string(sig) + " (" +
           (name != nullptr ? name : "?") + ")";
  }
  return "unrecognized wait status " + std::to_string(wait_status);
}

void encode_effective_checkpoint(
    ByteWriter& out, const std::vector<std::uint8_t>* stored,
    const std::unordered_set<KeyId>& migrated_away,
    const std::vector<PendingInstall>& installs) {
  CheckpointWriter writer(
      out, stored != nullptr ? read_checkpoint_head(*stored)
                             : CheckpointPayload{});
  if (stored != nullptr) {
    for_each_checkpoint_state(
        *stored, [&](KeyId key, const std::uint8_t* blob, std::uint32_t n) {
          if (migrated_away.count(key) == 0) writer.add(key, blob, n);
        });
  }
  for (const PendingInstall& p : installs) {
    writer.add(p.state.key, p.state.blob.data(), p.state.blob.size());
  }
  writer.finish();
}

}  // namespace skewless
