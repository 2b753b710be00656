#include "net/wire.h"

namespace skewless {

namespace {

/// Field-wise tuple size on the wire (the struct itself has padding).
constexpr std::size_t kTupleWireBytes = 8 + 8 + 8 + 4;

}  // namespace

void encode_tuple_batch(ByteWriter& out, const std::vector<Tuple>& tuples) {
  out.u32(static_cast<std::uint32_t>(tuples.size()));
  for (const Tuple& t : tuples) {
    out.u64(t.key);
    out.i64(t.value);
    out.i64(t.emit_micros);
    out.u32(t.stream);
  }
}

bool decode_tuple_batch(ByteReader& in, std::vector<Tuple>& tuples) {
  const std::uint32_t n = in.u32();
  if (!in.fits(n, kTupleWireBytes)) return false;
  tuples.clear();
  tuples.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Tuple t;
    t.key = in.u64();
    t.value = in.i64();
    t.emit_micros = in.i64();
    t.stream = in.u32();
    tuples.push_back(t);
  }
  return in.ok();
}

void encode_hello(ByteWriter& out, const HelloPayload& hello) {
  out.u32(hello.worker_id);
  out.u32(hello.num_workers);
}

bool decode_hello(ByteReader& in, HelloPayload& hello) {
  hello.worker_id = in.u32();
  hello.num_workers = in.u32();
  return in.ok();
}

void encode_seal(ByteWriter& out, const SealPayload& seal) {
  out.u64(seal.batches);
}

bool decode_seal(ByteReader& in, SealPayload& seal) {
  seal.batches = in.u64();
  return in.ok();
}

void encode_key_list(ByteWriter& out, const std::vector<KeyId>& keys) {
  out.u32(static_cast<std::uint32_t>(keys.size()));
  for (const KeyId key : keys) out.u64(key);
}

bool decode_key_list(ByteReader& in, std::vector<KeyId>& keys) {
  const std::uint32_t n = in.u32();
  if (!in.fits(n, sizeof(KeyId))) return false;
  keys.clear();
  keys.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) keys.push_back(in.u64());
  return in.ok();
}

void encode_key_states(ByteWriter& out,
                       const std::vector<WireKeyState>& states) {
  out.u32(static_cast<std::uint32_t>(states.size()));
  for (const WireKeyState& s : states) {
    out.u64(s.key);
    out.u32(static_cast<std::uint32_t>(s.blob.size()));
    out.append(s.blob.data(), s.blob.size());
  }
}

bool decode_key_states(ByteReader& in, std::vector<WireKeyState>& states) {
  const std::uint32_t n = in.u32();
  constexpr std::size_t kMinEntryBytes = 8 + 4;
  if (!in.fits(n, kMinEntryBytes)) return false;
  states.clear();
  states.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    WireKeyState s;
    s.key = in.u64();
    const std::uint32_t blob_size = in.u32();
    if (!in.fits(blob_size, 1)) return false;
    s.blob.resize(blob_size);
    if (blob_size > 0 && !in.read_into(s.blob.data(), blob_size)) {
      return false;
    }
    states.push_back(std::move(s));
  }
  return in.ok();
}

void encode_expire(ByteWriter& out, Micros watermark) { out.i64(watermark); }

bool decode_expire(ByteReader& in, Micros& watermark) {
  watermark = in.i64();
  return in.ok();
}

void encode_plan(ByteWriter& out, const PlanPayload& plan) {
  out.u64(plan.seq);
  out.u32(static_cast<std::uint32_t>(plan.moves.size()));
  for (const KeyMove& mv : plan.moves) {
    out.u64(mv.key);
    out.u32(static_cast<std::uint32_t>(mv.from));
    out.u32(static_cast<std::uint32_t>(mv.to));
    out.f64(mv.state_bytes);
  }
}

bool decode_plan(ByteReader& in, PlanPayload& plan) {
  plan.seq = in.u64();
  const std::uint32_t n = in.u32();
  constexpr std::size_t kMoveWireBytes = 8 + 4 + 4 + 8;
  if (!in.fits(n, kMoveWireBytes)) return false;
  plan.moves.clear();
  plan.moves.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    KeyMove mv;
    mv.key = in.u64();
    mv.from = static_cast<InstanceId>(in.u32());
    mv.to = static_cast<InstanceId>(in.u32());
    mv.state_bytes = in.f64();
    plan.moves.push_back(mv);
  }
  return in.ok();
}

void encode_ack(ByteWriter& out, const AckPayload& ack) { out.u64(ack.seq); }

bool decode_ack(ByteReader& in, AckPayload& ack) {
  ack.seq = in.u64();
  return in.ok();
}

void encode_checkpoint(ByteWriter& out, const CheckpointPayload& cp) {
  out.u64(cp.epoch);
  out.u64(cp.processed);
  out.u64(cp.outputs);
  out.u64(cp.local_buckets);
  out.u64(cp.state_checksum);
  encode_key_states(out, cp.states);
}

bool decode_checkpoint(ByteReader& in, CheckpointPayload& cp) {
  cp.epoch = in.u64();
  cp.processed = in.u64();
  cp.outputs = in.u64();
  cp.local_buckets = in.u64();
  cp.state_checksum = in.u64();
  if (!in.ok()) return false;
  return decode_key_states(in, cp.states);
}

bool validate_checkpoint(ByteReader& in) {
  (void)in.skip(kCheckpointCounterBytes);
  const std::uint32_t n = in.u32();
  constexpr std::size_t kMinEntryBytes = 8 + 4;
  if (!in.fits(n, kMinEntryBytes)) return false;
  for (std::uint32_t i = 0; i < n; ++i) {
    (void)in.skip(sizeof(KeyId));
    const std::uint32_t blob_size = in.u32();
    if (!in.skip(blob_size)) return false;
  }
  return in.ok();
}

CheckpointPayload read_checkpoint_head(
    const std::vector<std::uint8_t>& payload) {
  ByteReader in(payload);
  CheckpointPayload cp;
  cp.epoch = in.u64();
  cp.processed = in.u64();
  cp.outputs = in.u64();
  cp.local_buckets = in.u64();
  cp.state_checksum = in.u64();
  return cp;
}

CheckpointWriter::CheckpointWriter(ByteWriter& out,
                                   const CheckpointPayload& head)
    : out_(out) {
  out_.u64(head.epoch);
  out_.u64(head.processed);
  out_.u64(head.outputs);
  out_.u64(head.local_buckets);
  out_.u64(head.state_checksum);
  count_at_ = out_.size();
  out_.u32(0);
}

void CheckpointWriter::add(KeyId key, const std::uint8_t* blob,
                           std::size_t size) {
  out_.u64(key);
  out_.u32(static_cast<std::uint32_t>(size));
  out_.append(blob, size);
  ++count_;
}

void encode_heartbeat(ByteWriter& out, const HeartbeatPayload& hb) {
  out.u64(hb.epoch_batches);
}

bool decode_heartbeat(ByteReader& in, HeartbeatPayload& hb) {
  hb.epoch_batches = in.u64();
  return in.ok();
}

void encode_fin(ByteWriter& out, const FinPayload& fin) {
  out.u64(fin.state_checksum);
  out.u64(fin.state_entries);
  out.u64(fin.processed);
  out.u64(fin.outputs);
}

bool decode_fin(ByteReader& in, FinPayload& fin) {
  fin.state_checksum = in.u64();
  fin.state_entries = in.u64();
  fin.processed = in.u64();
  fin.outputs = in.u64();
  return in.ok();
}

}  // namespace skewless
