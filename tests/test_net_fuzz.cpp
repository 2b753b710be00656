// Randomized robustness suite for the wire layer, run under the `fuzz`
// CTest label: every decoder that parses peer bytes is fed (a) every
// truncation prefix and (b) hundreds of seeded single/multi-byte
// corruptions of valid encodings. The contract under test is uniform —
// a decoder either accepts the input or returns false with the reader's
// sticky error flag set; it NEVER aborts, over-allocates, or reads out
// of bounds (ASan enforces the last one on the CI debug-asan leg).
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "common/serde.h"
#include "net/frame.h"
#include "net/wire.h"
#include "sketch/worker_sketch_slab.h"

namespace skewless {
namespace {

/// One valid encoding of every payload kind, by index. Returning a fresh
/// copy per call keeps corruption runs independent.
std::vector<std::vector<std::uint8_t>> valid_payloads() {
  std::vector<std::vector<std::uint8_t>> out;
  {
    std::vector<Tuple> tuples;
    for (int i = 0; i < 40; ++i) {
      Tuple t;
      t.key = static_cast<KeyId>(i * 2654435761u);
      t.value = i - 20;
      t.emit_micros = i * 777;
      t.stream = static_cast<std::uint32_t>(i & 1);
      tuples.push_back(t);
    }
    ByteWriter w;
    encode_tuple_batch(w, tuples);
    out.push_back(w.bytes());
  }
  {
    ByteWriter w;
    encode_hello(w, HelloPayload{2, 6});
    out.push_back(w.bytes());
  }
  {
    ByteWriter w;
    encode_seal(w, SealPayload{314});
    out.push_back(w.bytes());
  }
  {
    ByteWriter w;
    encode_key_list(w, {1, 2, 3, 0xdeadbeefULL, 5, 6, 7});
    out.push_back(w.bytes());
  }
  {
    std::vector<WireKeyState> states;
    for (int i = 0; i < 6; ++i) {
      WireKeyState s;
      s.key = static_cast<KeyId>(i);
      s.blob.assign(static_cast<std::size_t>(3 + i * 5), std::uint8_t(0xa0 + i));
      states.push_back(std::move(s));
    }
    ByteWriter w;
    encode_key_states(w, states);
    out.push_back(w.bytes());
  }
  {
    ByteWriter w;
    encode_expire(w, Micros{987654321});
    out.push_back(w.bytes());
  }
  {
    PlanPayload plan;
    plan.seq = 55;
    for (int i = 0; i < 9; ++i) {
      KeyMove m;
      m.key = static_cast<KeyId>(i * 101);
      m.from = i % 3;
      m.to = (i + 2) % 3;
      m.state_bytes = 64.0 * i;
      plan.moves.push_back(m);
    }
    ByteWriter w;
    encode_plan(w, plan);
    out.push_back(w.bytes());
  }
  {
    ByteWriter w;
    encode_ack(w, AckPayload{12345});
    out.push_back(w.bytes());
  }
  {
    ByteWriter w;
    encode_fin(w, FinPayload{1, 2, 3, 4});
    out.push_back(w.bytes());
  }
  {
    CheckpointPayload cp;
    cp.epoch = 6;
    cp.processed = 6'000;
    cp.outputs = 5'900;
    cp.local_buckets = 512;
    cp.state_checksum = 0x1122334455667788ULL;
    for (int i = 0; i < 5; ++i) {
      WireKeyState s;
      s.key = static_cast<KeyId>(i * 31);
      s.blob.assign(static_cast<std::size_t>(4 + i * 7), std::uint8_t(0xc0 + i));
      cp.states.push_back(std::move(s));
    }
    ByteWriter w;
    encode_checkpoint(w, cp);
    out.push_back(w.bytes());
  }
  {
    ByteWriter w;
    encode_heartbeat(w, HeartbeatPayload{17});
    out.push_back(w.bytes());
  }
  return out;
}

/// validate_checkpoint must accept exactly what decode_checkpoint accepts,
/// stop where it stops, and — on acceptance — the in-place readers must
/// see what the decoder materialized. Returns whether the input was
/// accepted.
bool expect_checkpoint_validator_parity(const std::vector<std::uint8_t>& bytes) {
  ByteReader dec_in(bytes, ByteReader::Untrusted{});
  CheckpointPayload cp;
  const bool decoded = decode_checkpoint(dec_in, cp);
  ByteReader val_in(bytes, ByteReader::Untrusted{});
  const bool valid = validate_checkpoint(val_in);
  EXPECT_EQ(valid, decoded);
  EXPECT_EQ(val_in.ok(), valid);
  if (!valid || !decoded) return false;
  EXPECT_EQ(val_in.remaining(), dec_in.remaining());
  const CheckpointPayload head = read_checkpoint_head(bytes);
  EXPECT_EQ(head.epoch, cp.epoch);
  EXPECT_EQ(head.processed, cp.processed);
  EXPECT_EQ(head.outputs, cp.outputs);
  EXPECT_EQ(head.local_buckets, cp.local_buckets);
  EXPECT_EQ(head.state_checksum, cp.state_checksum);
  std::size_t i = 0;
  for_each_checkpoint_state(
      bytes, [&](KeyId key, const std::uint8_t* blob, std::uint32_t size) {
        ASSERT_LT(i, cp.states.size());
        EXPECT_EQ(key, cp.states[i].key);
        EXPECT_EQ(std::vector<std::uint8_t>(blob, blob + size),
                  cp.states[i].blob);
        ++i;
      });
  EXPECT_EQ(i, cp.states.size());
  return true;
}

/// Runs every payload decoder over `bytes`; the assertion is simply that
/// none of them aborts (gtest would report the crash) and the reader's
/// flag agrees with the return value.
void decode_all(const std::vector<std::uint8_t>& bytes) {
  {
    ByteReader r(bytes, ByteReader::Untrusted{});
    std::vector<Tuple> tuples;
    const bool ok = decode_tuple_batch(r, tuples);
    if (!ok) {
      EXPECT_FALSE(r.ok());
    }
  }
  {
    ByteReader r(bytes, ByteReader::Untrusted{});
    HelloPayload hello;
    (void)decode_hello(r, hello);
  }
  {
    ByteReader r(bytes, ByteReader::Untrusted{});
    SealPayload seal;
    (void)decode_seal(r, seal);
  }
  {
    ByteReader r(bytes, ByteReader::Untrusted{});
    std::vector<KeyId> keys;
    const bool ok = decode_key_list(r, keys);
    if (!ok) {
      EXPECT_FALSE(r.ok());
    }
  }
  {
    ByteReader r(bytes, ByteReader::Untrusted{});
    std::vector<WireKeyState> states;
    const bool ok = decode_key_states(r, states);
    if (!ok) {
      EXPECT_FALSE(r.ok());
    }
  }
  {
    ByteReader r(bytes, ByteReader::Untrusted{});
    Micros watermark = 0;
    (void)decode_expire(r, watermark);
  }
  {
    ByteReader r(bytes, ByteReader::Untrusted{});
    PlanPayload plan;
    const bool ok = decode_plan(r, plan);
    if (!ok) {
      EXPECT_FALSE(r.ok());
    }
  }
  {
    ByteReader r(bytes, ByteReader::Untrusted{});
    AckPayload ack;
    (void)decode_ack(r, ack);
  }
  {
    ByteReader r(bytes, ByteReader::Untrusted{});
    FinPayload fin;
    (void)decode_fin(r, fin);
  }
  {
    ByteReader r(bytes, ByteReader::Untrusted{});
    CheckpointPayload cp;
    const bool ok = decode_checkpoint(r, cp);
    if (!ok) {
      EXPECT_FALSE(r.ok());
    }
    (void)expect_checkpoint_validator_parity(bytes);
  }
  {
    ByteReader r(bytes, ByteReader::Untrusted{});
    HeartbeatPayload hb;
    (void)decode_heartbeat(r, hb);
  }
}

// Every truncation prefix of every valid payload, through every decoder.
// A prefix fed to the decoder that PRODUCED it must be rejected (except
// the full length); fed to any other decoder it must merely not crash.
TEST(NetFuzz, TruncationPrefixesNeverAbort) {
  const auto payloads = valid_payloads();
  for (std::size_t p = 0; p < payloads.size(); ++p) {
    const auto& full = payloads[p];
    for (std::size_t keep = 0; keep <= full.size(); ++keep) {
      decode_all(std::vector<std::uint8_t>(full.begin(),
                                           full.begin() + keep));
    }
  }
}

// Seeded random corruptions: flip 1..8 bytes of a valid payload and run
// every decoder. Accept-or-reject are both fine; crashing is not.
TEST(NetFuzz, RandomCorruptionsNeverAbort) {
  const auto payloads = valid_payloads();
  std::mt19937_64 rng(0xfeedface);
  for (int round = 0; round < 400; ++round) {
    auto bytes = payloads[round % payloads.size()];
    if (bytes.empty()) continue;
    const int flips = 1 + static_cast<int>(rng() % 8);
    for (int f = 0; f < flips; ++f) {
      bytes[rng() % bytes.size()] ^=
          static_cast<std::uint8_t>(1u << (rng() % 8));
    }
    decode_all(bytes);
  }
}

// Random garbage (not derived from any encoder) through every decoder.
TEST(NetFuzz, PureGarbageNeverAborts) {
  std::mt19937_64 rng(0xbadc0de);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> bytes(rng() % 300);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
    decode_all(bytes);
  }
}

// The driver's allocation-free checkpoint validator against the decoder
// it stands in for, on inputs built to land on both sides of the line:
// every truncation prefix, random bit flips, and garbage behind a small
// plausible state count (pure random bytes are almost always rejected by
// both, which proves little on its own).
TEST(NetFuzz, CheckpointValidatorAcceptsExactlyWhatDecodeAccepts) {
  std::mt19937_64 rng(0xc0ffee);
  const auto random_checkpoint = [&] {
    CheckpointPayload cp;
    cp.epoch = rng();
    cp.processed = rng();
    cp.outputs = rng();
    cp.local_buckets = rng();
    cp.state_checksum = rng();
    const std::size_t n = rng() % 6;
    for (std::size_t i = 0; i < n; ++i) {
      WireKeyState st;
      st.key = static_cast<KeyId>(rng());
      st.blob.resize(rng() % 24);
      for (auto& b : st.blob) b = static_cast<std::uint8_t>(rng());
      cp.states.push_back(std::move(st));
    }
    ByteWriter w;
    encode_checkpoint(w, cp);
    return w.take();
  };

  int accepted = 0;
  int rejected = 0;
  const auto tally = [&](const std::vector<std::uint8_t>& bytes) {
    (expect_checkpoint_validator_parity(bytes) ? accepted : rejected) += 1;
  };
  for (int round = 0; round < 60; ++round) {
    const std::vector<std::uint8_t> full = random_checkpoint();
    for (std::size_t keep = 0; keep <= full.size(); ++keep) {
      tally(std::vector<std::uint8_t>(full.begin(), full.begin() + keep));
    }
  }
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::uint8_t> bytes = random_checkpoint();
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      bytes[rng() % bytes.size()] ^=
          static_cast<std::uint8_t>(1u << (rng() % 8));
    }
    tally(bytes);
  }
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::uint8_t> bytes(kCheckpointCounterBytes + 4 + rng() % 80);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
    const auto count = static_cast<std::uint32_t>(rng() % 4);
    std::memcpy(bytes.data() + kCheckpointCounterBytes, &count, sizeof(count));
    tally(bytes);
  }
  // Both verdicts occurred, so the parity was tested in both directions.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

// Frame headers: every truncation and corruption of a valid header must
// decode false with a non-empty reason — never abort, never accept a
// payload size beyond the cap.
TEST(NetFuzz, FrameHeaderCorruptionsRejectCleanly) {
  std::mt19937_64 rng(0x5eed);
  for (int round = 0; round < 500; ++round) {
    ByteWriter w;
    encode_frame_header(w, static_cast<FrameType>(
                               kMinFrameType + rng() % kMaxFrameType),
                        rng(), static_cast<std::uint32_t>(rng()));
    auto bytes = w.bytes();
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      bytes[rng() % bytes.size()] ^=
          static_cast<std::uint8_t>(1u << (rng() % 8));
    }
    FrameHeader header;
    std::string error;
    if (!decode_frame_header(bytes.data(), bytes.size(), header, error)) {
      EXPECT_FALSE(error.empty());
    } else {
      EXPECT_LE(header.payload_size, kMaxFramePayload);
    }
  }
}

// Boundary summaries: the slab decoder guards geometry, counts, value
// ranges and the raw cell block. Corrupt/truncated summaries must fail
// without aborting OR poisoning the target slab into a crash — a target
// that rejected an input must still absorb a clean one afterwards.
TEST(NetFuzz, SlabSummaryCorruptionsRejectOrRoundTrip) {
  SketchStatsConfig cfg;
  cfg.heavy_capacity = 32;
  cfg.epsilon = 0.01;

  WorkerSketchSlab source(cfg);
  std::unordered_map<KeyId, WorkerSketchSlab::KeyAgg> batch;
  for (std::uint64_t i = 0; i < 300; ++i) {
    auto& agg = batch[i * 7919];
    agg.cost = 1.0 + static_cast<double>(i % 11);
    agg.state_bytes = 8.0 * (i % 5);
    agg.frequency = 1;
  }
  source.add_batch(batch);
  source.set_epoch(4);
  ByteWriter w;
  source.serialize(w);
  const auto& valid = w.bytes();

  std::mt19937_64 rng(0xabcdef);
  WorkerSketchSlab target(cfg);
  for (int round = 0; round < 300; ++round) {
    std::vector<std::uint8_t> bytes = valid;
    if (round % 3 == 0) {
      bytes.resize(rng() % valid.size());  // truncation
    } else {
      const int flips = 1 + static_cast<int>(rng() % 6);
      for (int f = 0; f < flips; ++f) {
        bytes[rng() % bytes.size()] ^=
            static_cast<std::uint8_t>(1u << (rng() % 8));
      }
    }
    ByteReader r(bytes, ByteReader::Untrusted{});
    const bool ok = target.deserialize_from(r);
    if (!ok) {
      EXPECT_FALSE(r.ok());
    }
    // The target must remain usable either way: a clean decode succeeds.
    ByteReader clean(valid, ByteReader::Untrusted{});
    ASSERT_TRUE(target.deserialize_from(clean)) << "round " << round;
    ByteWriter again;
    target.serialize(again);
    ASSERT_EQ(again.size(), valid.size());
    EXPECT_EQ(0, std::memcmp(again.bytes().data(), valid.data(),
                             valid.size()));
  }
}

}  // namespace
}  // namespace skewless
