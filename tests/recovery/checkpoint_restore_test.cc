// Engine checkpoint/restore and crash-recovery tests (DESIGN.md §10):
// state round-trips for the dedup pipeline, SEQ pairing modes, table
// targets, and anchored EXCEPTION_SEQ deadlines; the fault-injection
// matrix (missing file, version mismatch, truncated file, mid-file
// corruption, topology mismatch, foreign SEQ format tag) must fail with
// a clean Status and no partial restore; WAL replay must suppress
// already-delivered emissions.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/engine.h"
#include "recovery/checkpoint.h"
#include "recovery/codec.h"

namespace eslev {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "ckpt_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Example 1 dedup feeding a running count — two chained queries, a
// windowed NOT EXISTS buffer, and an aggregate accumulator to restore.
constexpr char kDedupDdl[] = R"sql(
  CREATE STREAM readings(reader_id, tag_id, read_time);
  CREATE STREAM cleaned(reader_id, tag_id, read_time);
  INSERT INTO cleaned
  SELECT * FROM readings AS r1
  WHERE NOT EXISTS
    (SELECT * FROM TABLE( readings OVER
        (RANGE 1 seconds PRECEDING CURRENT)) AS r2
     WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id);
)sql";

struct DedupHarness {
  Engine engine;
  std::vector<std::string> cleaned;
  std::vector<std::string> counts;

  DedupHarness() {
    EXPECT_TRUE(engine.ExecuteScript(kDedupDdl).ok());
    auto q = engine.RegisterQuery("SELECT count(tag_id) FROM cleaned");
    EXPECT_TRUE(q.ok()) << q.status();
    EXPECT_TRUE(engine
                    .Subscribe("cleaned",
                               [this](const Tuple& t) {
                                 cleaned.push_back(t.ToString());
                               })
                    .ok());
    EXPECT_TRUE(engine
                    .Subscribe(q->output_stream,
                               [this](const Tuple& t) {
                                 counts.push_back(t.ToString());
                               })
                    .ok());
  }

  void Push(const std::string& tag, Timestamp ts) {
    EXPECT_TRUE(engine
                    .Push("readings",
                          {Value::String("r"), Value::String(tag),
                           Value::Time(ts)},
                          ts)
                    .ok());
  }
};

// Events with duplicates inside the 1s dedup window and across it.
std::vector<std::pair<std::string, Timestamp>> DedupTrace() {
  return {{"A", Milliseconds(100)}, {"A", Milliseconds(400)},
          {"B", Milliseconds(700)}, {"A", Milliseconds(1500)},
          {"B", Milliseconds(1600)}, {"C", Milliseconds(1700)},
          {"A", Milliseconds(2900)}, {"C", Milliseconds(3100)}};
}

TEST(CheckpointRestoreTest, DedupPipelineContinuesIdentically) {
  const std::string dir = FreshDir("dedup");
  const auto trace = DedupTrace();
  const size_t cut = 4;

  DedupHarness a;
  for (size_t i = 0; i < cut; ++i) a.Push(trace[i].first, trace[i].second);
  ASSERT_TRUE(a.engine.Checkpoint(dir).ok());
  const size_t cleaned_at_cut = a.cleaned.size();
  const size_t counts_at_cut = a.counts.size();

  DedupHarness b;
  ASSERT_TRUE(b.engine.Restore(dir).ok());
  EXPECT_EQ(b.engine.current_time(), a.engine.current_time());

  for (size_t i = cut; i < trace.size(); ++i) {
    a.Push(trace[i].first, trace[i].second);
    b.Push(trace[i].first, trace[i].second);
  }
  // B emits exactly A's post-cut suffix: the restored window buffer must
  // still filter duplicates against pre-cut arrivals, and the restored
  // count accumulator continues from the pre-cut total.
  ASSERT_GT(a.cleaned.size(), cleaned_at_cut);
  EXPECT_EQ(b.cleaned,
            std::vector<std::string>(a.cleaned.begin() + cleaned_at_cut,
                                     a.cleaned.end()));
  EXPECT_EQ(b.counts,
            std::vector<std::string>(a.counts.begin() + counts_at_cut,
                                     a.counts.end()));
  std::filesystem::remove_all(dir);
}

constexpr char kSeqDdl[] = R"sql(
  CREATE STREAM C1(readerid, tagid, tagtime);
  CREATE STREAM C2(readerid, tagid, tagtime);
  CREATE STREAM C3(readerid, tagid, tagtime);
)sql";

struct SeqHarness {
  Engine engine;
  std::vector<std::string> rows;

  explicit SeqHarness(const std::string& query) {
    EXPECT_TRUE(engine.ExecuteScript(kSeqDdl).ok());
    auto q = engine.RegisterQuery(query);
    EXPECT_TRUE(q.ok()) << q.status();
    EXPECT_TRUE(
        engine
            .Subscribe(q->output_stream,
                       [this](const Tuple& t) { rows.push_back(t.ToString()); })
            .ok());
  }

  void Push(const std::string& stream, const std::string& tag, Timestamp ts) {
    EXPECT_TRUE(engine
                    .Push(stream,
                          {Value::String("r"), Value::String(tag),
                           Value::Time(ts)},
                          ts)
                    .ok());
  }
};

TEST(CheckpointRestoreTest, SeqJointHistorySurvivesAcrossAllPairingModes) {
  // Interleaved C1/C2/C3 arrivals for two tags; the cut lands with open
  // partial sequences in every mode.
  const std::vector<std::pair<std::string, std::string>> trace = {
      {"C1", "x"}, {"C1", "y"}, {"C2", "x"}, {"C1", "x"},
      {"C2", "y"}, {"C3", "x"}, {"C2", "x"}, {"C3", "y"},
      {"C1", "y"}, {"C3", "x"}, {"C2", "y"}, {"C3", "y"},
  };
  for (const char* mode :
       {"", " MODE RECENT", " MODE CHRONICLE", " MODE CONSECUTIVE"}) {
    for (const char* window : {"", " OVER [5 SECONDS PRECEDING C3]"}) {
      const std::string query =
          "SELECT C3.tagid, C1.tagtime, C3.tagtime FROM C1, C2, C3 "
          "WHERE SEQ(C1, C2, C3)" +
          std::string(window) + mode +
          " AND C1.tagid=C2.tagid AND C1.tagid=C3.tagid";
      const std::string dir = FreshDir("seq");
      const size_t cut = 5;

      SeqHarness a(query);
      Timestamp ts = Seconds(1);
      for (size_t i = 0; i < cut; ++i, ts += Seconds(1)) {
        a.Push(trace[i].first, trace[i].second, ts);
      }
      ASSERT_TRUE(a.engine.Checkpoint(dir).ok());
      const size_t rows_at_cut = a.rows.size();

      SeqHarness b(query);
      ASSERT_TRUE(b.engine.Restore(dir).ok());
      for (size_t i = cut; i < trace.size(); ++i, ts += Seconds(1)) {
        a.Push(trace[i].first, trace[i].second, ts);
        b.Push(trace[i].first, trace[i].second, ts);
      }
      EXPECT_EQ(b.rows,
                std::vector<std::string>(a.rows.begin() + rows_at_cut,
                                         a.rows.end()))
          << "mode '" << mode << "' window '" << window << "'";
      std::filesystem::remove_all(dir);
    }
  }
}

TEST(CheckpointRestoreTest, TableContentsRestored) {
  const std::string dir = FreshDir("table");
  const char* ddl = R"sql(
    CREATE STREAM moves(tagid, loc, move_time);
    CREATE TABLE movement_log(tagid, loc, move_time);
    INSERT INTO movement_log SELECT * FROM moves;
  )sql";
  Engine a;
  ASSERT_TRUE(a.ExecuteScript(ddl).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(a.Push("moves",
                       {Value::String("t" + std::to_string(i)),
                        Value::String("dock"), Value::Time(Seconds(i + 1))},
                       Seconds(i + 1))
                    .ok());
  }
  ASSERT_TRUE(a.Checkpoint(dir).ok());

  Engine b;
  ASSERT_TRUE(b.ExecuteScript(ddl).ok());
  ASSERT_TRUE(b.Restore(dir).ok());
  ASSERT_EQ(b.FindTable("movement_log")->num_rows(), 5u);
  // The restored table keeps answering snapshot queries.
  auto rows = b.ExecuteSnapshot("SELECT count(tagid) FROM movement_log");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ((*rows)[0].value(0).int_value(), 5);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointRestoreTest, ExceptionSeqDeadlineFiresAfterRestore) {
  // A partial lab-workflow sequence is anchored before the cut; its
  // 1-hour deadline must survive the restore and fire on a heartbeat
  // alone (active expiration with a checkpointed deadline).
  const std::string dir = FreshDir("exception");
  const char* ddl = R"sql(
    CREATE STREAM A1(readerid, tagid, tagtime);
    CREATE STREAM A2(readerid, tagid, tagtime);
    CREATE STREAM A3(readerid, tagid, tagtime);
  )sql";
  const char* query =
      "SELECT A1.tagid, A2.tagid, A3.tagid FROM A1, A2, A3 "
      "WHERE EXCEPTION_SEQ(A1, A2, A3) OVER [1 HOURS FOLLOWING A1]";

  Engine a;
  ASSERT_TRUE(a.ExecuteScript(ddl).ok());
  auto qa = a.RegisterQuery(query);
  ASSERT_TRUE(qa.ok()) << qa.status();
  ASSERT_TRUE(a.Push("A1",
                     {Value::String("r"), Value::String("sample"),
                      Value::Time(Seconds(10))},
                     Seconds(10))
                  .ok());
  ASSERT_TRUE(a.Checkpoint(dir).ok());

  Engine b;
  ASSERT_TRUE(b.ExecuteScript(ddl).ok());
  auto qb = b.RegisterQuery(query);
  ASSERT_TRUE(qb.ok()) << qb.status();
  size_t alerts = 0;
  ASSERT_TRUE(
      b.Subscribe(qb->output_stream, [&](const Tuple&) { ++alerts; }).ok());
  ASSERT_TRUE(b.Restore(dir).ok());
  // Before the deadline: silent. Past it: exactly one violation.
  ASSERT_TRUE(b.AdvanceTime(Seconds(10) + Minutes(30)).ok());
  EXPECT_EQ(alerts, 0u);
  ASSERT_TRUE(b.AdvanceTime(Seconds(10) + Hours(2)).ok());
  EXPECT_EQ(alerts, 1u);
  std::filesystem::remove_all(dir);
}

// ---- fault injection ------------------------------------------------------

TEST(CheckpointFaultTest, MissingCheckpointFileFails) {
  DedupHarness b;
  Status st = b.engine.Restore(FreshDir("missing"));
  EXPECT_TRUE(st.IsIoError()) << st;
  // No partial restore: the engine still processes normally.
  b.Push("A", Milliseconds(100));
  EXPECT_EQ(b.cleaned.size(), 1u);
}

TEST(CheckpointFaultTest, VersionMismatchFailsAndLeavesEngineUntouched) {
  const std::string dir = FreshDir("version");
  DedupHarness a;
  a.Push("A", Milliseconds(100));
  ASSERT_TRUE(a.engine.Checkpoint(dir).ok());

  // Rewrite the header frame with a bumped version, keeping the rest.
  const std::string path = dir + "/" + kCheckpointFileName;
  auto bytes = ReadFileAll(path);
  ASSERT_TRUE(bytes.ok());
  auto frames = ScanFrames(bytes->data(), bytes->size());
  ASSERT_TRUE(frames.ok());
  BinaryEncoder header;
  header.PutU32(kCheckpointMagic);
  header.PutU32(kCheckpointVersion + 1);
  BinaryDecoder old_header(frames->payloads[0]);
  (void)*old_header.GetU32();
  (void)*old_header.GetU32();
  header.PutString("");  // payload shape no longer matters past version
  std::string rewritten;
  AppendFrame(header.buffer(), &rewritten);
  for (size_t i = 1; i < frames->payloads.size(); ++i) {
    AppendFrame(frames->payloads[i], &rewritten);
  }
  ASSERT_TRUE(WriteFileAtomic(path, rewritten).ok());

  DedupHarness b;
  b.Push("B", Milliseconds(50));
  Status st = b.engine.Restore(dir);
  ASSERT_TRUE(st.IsIoError()) << st;
  EXPECT_NE(st.ToString().find("version"), std::string::npos) << st;
  // Untouched: pre-existing emissions intact, processing continues.
  EXPECT_EQ(b.cleaned.size(), 1u);
  b.Push("C", Milliseconds(200));
  EXPECT_EQ(b.cleaned.size(), 2u);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointFaultTest, TruncatedCheckpointFails) {
  const std::string dir = FreshDir("truncated");
  DedupHarness a;
  a.Push("A", Milliseconds(100));
  ASSERT_TRUE(a.engine.Checkpoint(dir).ok());
  const std::string path = dir + "/" + kCheckpointFileName;
  auto bytes = ReadFileAll(path);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(WriteFileAtomic(path, bytes->substr(0, bytes->size() - 5)).ok());

  DedupHarness b;
  Status st = b.engine.Restore(dir);
  EXPECT_TRUE(st.IsIoError()) << st;
  b.Push("A", Milliseconds(100));
  EXPECT_EQ(b.cleaned.size(), 1u);  // no partial restore
  std::filesystem::remove_all(dir);
}

TEST(CheckpointFaultTest, MidFileCorruptionFails) {
  const std::string dir = FreshDir("corrupt");
  DedupHarness a;
  a.Push("A", Milliseconds(100));
  ASSERT_TRUE(a.engine.Checkpoint(dir).ok());
  const std::string path = dir + "/" + kCheckpointFileName;
  auto bytes = ReadFileAll(path);
  ASSERT_TRUE(bytes.ok());
  std::string corrupted = *bytes;
  corrupted[12] ^= 0x01;  // header frame payload, with frames after it
  ASSERT_TRUE(WriteFileAtomic(path, corrupted).ok());

  DedupHarness b;
  EXPECT_TRUE(b.engine.Restore(dir).IsIoError());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointFaultTest, TopologyMismatchFails) {
  const std::string dir = FreshDir("topology");
  DedupHarness a;
  a.Push("A", Milliseconds(100));
  ASSERT_TRUE(a.engine.Checkpoint(dir).ok());

  // An engine missing the count query must refuse the checkpoint.
  Engine b;
  ASSERT_TRUE(b.ExecuteScript(kDedupDdl).ok());
  Status st = b.Restore(dir);
  EXPECT_TRUE(st.IsIoError()) << st;
  std::filesystem::remove_all(dir);
}

// ---- SEQ checkpoint format tag ----------------------------------------------

// Every SEQ / EXCEPTION_SEQ state blob leads with a format tag byte.
// Writers emit 0; tag 1 was written by the removed compiled-automaton
// backend; anything else is unknown. A foreign tag must fail the restore
// before any state is applied.

const char* const kTagQueries[] = {
    "SELECT C3.tagid, C1.tagtime, C3.tagtime FROM C1, C2, C3 "
    "WHERE SEQ(C1, C2, C3) MODE CHRONICLE "
    "AND C1.tagid=C2.tagid AND C1.tagid=C3.tagid",
    "SELECT C1.tagid, C2.tagid, C3.tagid FROM C1, C2, C3 "
    "WHERE EXCEPTION_SEQ(C1, C2, C3) OVER [1 HOURS FOLLOWING C1]",
};

// Rewrites the tag byte of the SEQ-family operator's state blob in the
// checkpoint under `dir`, re-framing so every CRC stays valid.
void RewriteSeqCheckpointTag(const std::string& dir, uint8_t tag) {
  const std::string path = dir + "/" + kCheckpointFileName;
  auto bytes = ReadFileAll(path);
  ASSERT_TRUE(bytes.ok());
  auto frames = ScanFrames(bytes->data(), bytes->size());
  ASSERT_TRUE(frames.ok());
  BinaryDecoder header(frames->payloads[0]);
  (void)*header.GetU32();  // magic
  (void)*header.GetU32();  // version
  (void)*header.GetI64();  // clock
  (void)*header.GetU64();  // covered WAL LSN
  const uint32_t nstreams = *header.GetU32();
  const uint32_t ntables = *header.GetU32();
  const uint32_t nqueries = *header.GetU32();
  const size_t first_query = 1 + nstreams + ntables;
  std::string rewritten;
  size_t patched = 0;
  for (size_t i = 0; i < frames->payloads.size(); ++i) {
    std::string payload = frames->payloads[i];
    if (i >= first_query && i < first_query + nqueries) {
      BinaryDecoder dec(payload);
      BinaryEncoder enc;
      enc.PutU32(*dec.GetU32());  // query id
      const uint32_t nops = *dec.GetU32();
      enc.PutU32(nops);
      for (uint32_t j = 0; j < nops; ++j) {
        const std::string label = *dec.GetString();
        enc.PutString(label);
        for (int k = 0; k < 3; ++k) enc.PutU64(*dec.GetU64());  // counters
        std::string blob = *dec.GetString();
        if (label == "SeqOperator" || label == "ExceptionSeqOperator") {
          ASSERT_EQ(blob[0], 0) << "writers emit tag 0";
          blob[0] = static_cast<char>(tag);
          ++patched;
        }
        enc.PutString(blob);
      }
      payload = enc.buffer();
    }
    AppendFrame(payload, &rewritten);
  }
  ASSERT_EQ(patched, 1u);
  ASSERT_TRUE(WriteFileAtomic(path, rewritten).ok());
}

struct TagRestore {
  Status status;
  uint64_t stream_tuples_in = 0;   // C1's restored counter
  std::vector<std::string> rows;   // emissions after the restore
};

// Checkpoints a partial C1, C2 sequence, rewrites the tag, restores into
// a fresh engine and feeds the completing C3.
TagRestore RestoreWithTag(const char* query, uint8_t tag) {
  // One directory per tag: ctest runs each test in its own process.
  const std::string dir = FreshDir("seq_tag_" + std::to_string(tag));
  TagRestore r;
  SeqHarness a(query);
  a.Push("C1", "x", Seconds(1));
  a.Push("C2", "x", Seconds(2));
  EXPECT_TRUE(a.engine.Checkpoint(dir).ok());
  RewriteSeqCheckpointTag(dir, tag);
  SeqHarness b(query);
  r.status = b.engine.Restore(dir);
  r.stream_tuples_in = b.engine.Metrics().counters["stream.c1.tuples_in"];
  b.Push("C3", "x", Seconds(3));
  r.rows = b.rows;
  std::filesystem::remove_all(dir);
  return r;
}

// What an engine that never restored emits for the same C3.
std::vector<std::string> FreshRows(const char* query) {
  SeqHarness fresh(query);
  fresh.Push("C3", "x", Seconds(3));
  return fresh.rows;
}

TEST(SeqCheckpointTagTest, HistoryTagRestores) {
  // Control: rewriting the tag to the written value 0 restores, and the
  // restored engine is distinguishable from a fresh one.
  for (const char* query : kTagQueries) {
    const TagRestore r = RestoreWithTag(query, 0);
    ASSERT_TRUE(r.status.ok()) << r.status << "\n" << query;
    EXPECT_EQ(r.stream_tuples_in, 1u) << query;
    EXPECT_NE(r.rows, FreshRows(query)) << query;
  }
}

TEST(SeqCheckpointTagTest, RemovedBackendTagIsRejectedWithoutPartialRestore) {
  for (const char* query : kTagQueries) {
    const TagRestore r = RestoreWithTag(query, 1);
    ASSERT_TRUE(r.status.IsIoError()) << r.status << "\n" << query;
    EXPECT_NE(r.status.message().find("removed"), std::string::npos)
        << r.status;
    EXPECT_NE(r.status.message().find("tag 1"), std::string::npos)
        << r.status;
    // All-or-nothing: not even the streams were restored.
    EXPECT_EQ(r.stream_tuples_in, 0u) << query;
    EXPECT_EQ(r.rows, FreshRows(query)) << query;
  }
}

TEST(SeqCheckpointTagTest, UnknownTagIsRejectedWithoutPartialRestore) {
  for (const char* query : kTagQueries) {
    const TagRestore r = RestoreWithTag(query, 0xFF);
    ASSERT_TRUE(r.status.IsIoError()) << r.status << "\n" << query;
    EXPECT_NE(r.status.message().find("unknown tag 255"), std::string::npos)
        << r.status;
    EXPECT_EQ(r.stream_tuples_in, 0u) << query;
    EXPECT_EQ(r.rows, FreshRows(query)) << query;
  }
}

// ---- WAL + crash recovery -------------------------------------------------

TEST(CrashRecoveryTest, CheckpointPlusWalSuffixReproducesRun) {
  const std::string dir = FreshDir("recover");
  std::filesystem::create_directories(dir);
  const auto trace = DedupTrace();
  const size_t ckpt_at = 3, crash_at = 6;

  // Reference: one uninterrupted run.
  DedupHarness ref;
  for (const auto& [tag, ts] : trace) ref.Push(tag, ts);

  // Run A: WAL from the start, checkpoint mid-way, crash later.
  WalOptions wal_options;
  wal_options.group_commit_bytes = 0;  // every append durable
  std::vector<std::string> delivered;
  {
    DedupHarness a;
    ASSERT_TRUE(
        a.engine.EnableWal(dir + "/" + kWalFileName, wal_options).ok());
    for (size_t i = 0; i < ckpt_at; ++i) a.Push(trace[i].first, trace[i].second);
    ASSERT_TRUE(a.engine.Checkpoint(dir).ok());
    for (size_t i = ckpt_at; i < crash_at; ++i) {
      a.Push(trace[i].first, trace[i].second);
    }
    delivered = a.cleaned;
  }  // crash

  // Run B: recover, then feed the tail.
  DedupHarness b;
  ASSERT_TRUE(b.engine.RecoverFrom(dir).ok());
  EXPECT_TRUE(b.cleaned.empty());  // replay emissions suppressed
  for (size_t i = crash_at; i < trace.size(); ++i) {
    b.Push(trace[i].first, trace[i].second);
  }
  std::vector<std::string> combined = delivered;
  combined.insert(combined.end(), b.cleaned.begin(), b.cleaned.end());
  EXPECT_EQ(combined, ref.cleaned);

  const MetricsSnapshot snap = b.engine.Metrics();
  EXPECT_GT(snap.counters.at("recovery.wal_records_replayed"), 0u);
  EXPECT_GT(snap.counters.at("recovery.duplicates_suppressed"), 0u);
  std::filesystem::remove_all(dir);
}

TEST(CrashRecoveryTest, TornWalTailRecoversAndCountsMetric) {
  const std::string dir = FreshDir("torn");
  std::filesystem::create_directories(dir);
  const std::string wal_path = dir + "/" + kWalFileName;
  WalOptions wal_options;
  wal_options.group_commit_bytes = 0;
  {
    DedupHarness a;
    ASSERT_TRUE(a.engine.EnableWal(wal_path, wal_options).ok());
    ASSERT_TRUE(a.engine.Checkpoint(dir).ok());
    a.Push("A", Milliseconds(100));
    a.Push("B", Milliseconds(200));
  }
  // Crash tore the final frame.
  auto bytes = ReadFileAll(wal_path);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(
      WriteFileAtomic(wal_path, bytes->substr(0, bytes->size() - 6)).ok());

  DedupHarness b;
  ASSERT_TRUE(b.engine.RecoverFrom(dir).ok());
  const MetricsSnapshot snap = b.engine.Metrics();
  EXPECT_EQ(snap.counters.at("recovery_truncated_frames"), 1u);
  // Only the first record survived the tear; the second is lost.
  EXPECT_EQ(snap.counters.at("recovery.wal_records_replayed"), 1u);
  // The re-enabled WAL appends cleanly past the truncation point.
  b.Push("C", Milliseconds(300));
  auto read = ReadWal(wal_path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_FALSE(read->torn_tail);
  std::filesystem::remove_all(dir);
}

TEST(CrashRecoveryTest, WalOnlyReplayWithoutCheckpoint) {
  const std::string dir = FreshDir("walonly");
  std::filesystem::create_directories(dir);
  const std::string wal_path = dir + "/" + kWalFileName;
  WalOptions wal_options;
  wal_options.group_commit_bytes = 0;
  const auto trace = DedupTrace();
  std::vector<std::string> ref;
  {
    DedupHarness a;
    ASSERT_TRUE(a.engine.EnableWal(wal_path, wal_options).ok());
    for (const auto& [tag, ts] : trace) a.Push(tag, ts);
    ref = a.cleaned;
  }
  DedupHarness b;
  auto stats = b.engine.ReplayWal(wal_path);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->records_replayed, trace.size());
  EXPECT_EQ(stats->records_skipped, 0u);
  EXPECT_TRUE(b.cleaned.empty());  // default: muted
  // Same state: the next push dedups against replayed history.
  DedupHarness c;
  for (const auto& [tag, ts] : trace) c.Push(tag, ts);
  b.Push("A", Milliseconds(4200));
  c.Push("A", Milliseconds(4200));
  ASSERT_EQ(b.cleaned.size(), 1u);  // outside the window: re-emitted
  EXPECT_EQ(b.cleaned, std::vector<std::string>(c.cleaned.end() - b.cleaned.size(),
                                                c.cleaned.end()));
  std::filesystem::remove_all(dir);
}

TEST(CrashRecoveryTest, DeliverAfterReplaysExactlyTheLostTail) {
  const std::string dir = FreshDir("deliverafter");
  std::filesystem::create_directories(dir);
  const std::string wal_path = dir + "/" + kWalFileName;
  WalOptions wal_options;
  wal_options.group_commit_bytes = 0;
  const auto trace = DedupTrace();
  std::vector<std::string> all;
  {
    DedupHarness a;
    ASSERT_TRUE(a.engine.EnableWal(wal_path, wal_options).ok());
    for (const auto& [tag, ts] : trace) a.Push(tag, ts);
    all = a.cleaned;
  }
  ASSERT_GE(all.size(), 3u);
  // The consumer durably acknowledged the first 2 cleaned emissions;
  // replay must re-deliver exactly the rest.
  DedupHarness b;
  ReplayOptions options;
  options.deliver_after["cleaned"] = 2;
  auto stats = b.engine.ReplayWal(wal_path, options);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(b.cleaned, std::vector<std::string>(all.begin() + 2, all.end()));
  std::filesystem::remove_all(dir);
}

TEST(CrashRecoveryTest, RecoverFromRefusesWhenWalAlreadyEnabled) {
  const std::string dir = FreshDir("refuse");
  std::filesystem::create_directories(dir);
  DedupHarness a;
  ASSERT_TRUE(a.engine.Checkpoint(dir).ok());
  ASSERT_TRUE(a.engine.EnableWal(dir + "/" + kWalFileName).ok());
  EXPECT_TRUE(a.engine.RecoverFrom(dir).IsInvalid());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace eslev
