#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <mutex>
#include <set>

#include "common/checked_io.h"
#include "common/coding.h"
#include "common/crc32.h"
#include "common/env.h"
#include "common/fault_env.h"
#include "common/json.h"
#include "common/macros.h"
#include "common/random.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace modelhub {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing snapshot");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing snapshot");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes;
  codes.insert(Status::InvalidArgument("").code());
  codes.insert(Status::NotFound("").code());
  codes.insert(Status::AlreadyExists("").code());
  codes.insert(Status::IOError("").code());
  codes.insert(Status::Corruption("").code());
  codes.insert(Status::OutOfRange("").code());
  codes.insert(Status::FailedPrecondition("").code());
  codes.insert(Status::Unimplemented("").code());
  codes.insert(Status::Internal("").code());
  EXPECT_EQ(codes.size(), 9u);
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::IOError("x"), Status::IOError("x"));
  EXPECT_FALSE(Status::IOError("x") == Status::IOError("y"));
}

// ---------------------------------------------------------------- Result

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(r.ValueOr(42), 42);
}

TEST(ResultTest, OkStatusConstructionBecomesInternalError) {
  Result<int> r = Status::OK();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, MoveValue) {
  Result<std::string> r = std::string("payload");
  ASSERT_TRUE(r.ok());
  std::string v = r.MoveValue();
  EXPECT_EQ(v, "payload");
}

Status UseAssignOrReturn(int in, int* out) {
  MH_ASSIGN_OR_RETURN(int v, ParsePositive(in));
  *out = v * 2;
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(5, &out).ok());
  EXPECT_EQ(out, 10);
  EXPECT_TRUE(UseAssignOrReturn(-5, &out).IsInvalidArgument());
}

// ---------------------------------------------------------------- Slice

TEST(SliceTest, BasicViews) {
  std::string s = "hello world";
  Slice sl(s);
  EXPECT_EQ(sl.size(), 11u);
  EXPECT_EQ(sl[0], 'h');
  sl.RemovePrefix(6);
  EXPECT_EQ(sl.ToString(), "world");
  EXPECT_EQ(sl.SubSlice(1, 3).ToString(), "orl");
  EXPECT_EQ(sl.SubSlice(10, 3).size(), 0u);   // Past the end.
  EXPECT_EQ(sl.SubSlice(3, 100).ToString(), "ld");  // Clamped.
}

TEST(SliceTest, Equality) {
  std::string a = "abc";
  std::string b = "abc";
  EXPECT_TRUE(Slice(a) == Slice(b));
  std::string c = "abd";
  EXPECT_FALSE(Slice(a) == Slice(c));
  EXPECT_TRUE(Slice() == Slice());
}

// ---------------------------------------------------------------- Coding

TEST(CodingTest, Fixed32RoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xDEADBEEFu);
  PutFixed32(&buf, 0);
  PutFixed32(&buf, 0xFFFFFFFFu);
  Slice in(buf);
  uint32_t v = 0;
  ASSERT_TRUE(GetFixed32(&in, &v).ok());
  EXPECT_EQ(v, 0xDEADBEEFu);
  ASSERT_TRUE(GetFixed32(&in, &v).ok());
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(GetFixed32(&in, &v).ok());
  EXPECT_EQ(v, 0xFFFFFFFFu);
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, Fixed64RoundTrip) {
  std::string buf;
  PutFixed64(&buf, 0x0123456789ABCDEFull);
  Slice in(buf);
  uint64_t v = 0;
  ASSERT_TRUE(GetFixed64(&in, &v).ok());
  EXPECT_EQ(v, 0x0123456789ABCDEFull);
}

TEST(CodingTest, VarintRoundTripSweep) {
  std::vector<uint64_t> values = {0, 1, 127, 128, 300, 16383, 16384,
                                  (1ull << 32) - 1, 1ull << 32,
                                  ~0ull};
  std::string buf;
  for (uint64_t v : values) PutVarint64(&buf, v);
  Slice in(buf);
  for (uint64_t expected : values) {
    uint64_t v = 0;
    ASSERT_TRUE(GetVarint64(&in, &v).ok());
    EXPECT_EQ(v, expected);
  }
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, VarintTruncatedFails) {
  std::string buf;
  PutVarint64(&buf, 1ull << 40);
  buf.resize(buf.size() - 1);
  Slice in(buf);
  uint64_t v = 0;
  EXPECT_TRUE(GetVarint64(&in, &v).IsCorruption());
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, Slice("abc", 3));
  PutLengthPrefixed(&buf, Slice());
  PutLengthPrefixed(&buf, Slice("xy", 2));
  Slice in(buf);
  Slice v;
  ASSERT_TRUE(GetLengthPrefixed(&in, &v).ok());
  EXPECT_EQ(v.ToString(), "abc");
  ASSERT_TRUE(GetLengthPrefixed(&in, &v).ok());
  EXPECT_TRUE(v.empty());
  ASSERT_TRUE(GetLengthPrefixed(&in, &v).ok());
  EXPECT_EQ(v.ToString(), "xy");
}

TEST(CodingTest, GetFixed32TooShortFails) {
  std::string buf = "ab";
  Slice in(buf);
  uint32_t v;
  EXPECT_TRUE(GetFixed32(&in, &v).IsCorruption());
}

// ---------------------------------------------------------------- CRC32

TEST(Crc32Test, KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 is the standard check value.
  EXPECT_EQ(Crc32(Slice("123456789", 9)), 0xCBF43926u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32(Slice()), 0u); }

TEST(Crc32Test, DetectsBitFlip) {
  std::string data(1024, 'x');
  const uint32_t clean = Crc32(Slice(data));
  data[512] ^= 1;
  EXPECT_NE(Crc32(Slice(data)), clean);
}

// The byte-at-a-time table loop: the reference both kernels must match.
class BytewiseCrc {
 public:
  BytewiseCrc() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      table_[i] = c;
    }
  }
  /// Advances the pre-inverted state `c` by one byte.
  uint32_t Step(uint32_t c, uint8_t byte) const {
    return table_[(c ^ byte) & 0xFFu] ^ (c >> 8);
  }
  uint32_t Crc(Slice data, uint32_t seed) const {
    uint32_t c = ~seed;
    for (size_t i = 0; i < data.size(); ++i) c = Step(c, data[i]);
    return ~c;
  }

 private:
  uint32_t table_[256];
};

std::string RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string out(n, '\0');
  for (auto& c : out) c = static_cast<char>(rng.Next());
  return out;
}

TEST(Crc32Test, KernelsMatchBytewiseReference) {
  const BytewiseCrc reference;
  constexpr size_t kMaxLength = 4096;
  constexpr size_t kOffsets = 16;
  const std::string data = RandomBytes(kMaxLength + kOffsets, 7);
  for (const uint32_t seed : {0u, 0xDEADBEEFu}) {
    for (size_t offset = 0; offset < kOffsets; ++offset) {
      const uint8_t* base =
          reinterpret_cast<const uint8_t*>(data.data()) + offset;
      // The reference grows one byte per length rather than rescanning.
      uint32_t state = ~seed;
      for (size_t length = 0; length <= kMaxLength; ++length) {
        if (length > 0) state = reference.Step(state, base[length - 1]);
        const Slice view(base, length);
        ASSERT_EQ(Crc32(view, seed), ~state)
            << "length=" << length << " offset=" << offset << " seed=" << seed;
        ASSERT_EQ(internal::Crc32Portable(view, seed), ~state)
            << "length=" << length << " offset=" << offset << " seed=" << seed;
      }
    }
  }
  // One buffer the size of a served snapshot, at an unaligned offset.
  const std::string big = RandomBytes((2300u << 10) + 3, 11);
  const Slice view(big.data() + 3, big.size() - 3);
  const uint32_t expected = reference.Crc(view, 0);
  EXPECT_EQ(Crc32(view), expected);
  EXPECT_EQ(internal::Crc32Portable(view), expected);
}

TEST(Crc32Test, SeedContinuesAcrossConcatenation) {
  const std::string data = RandomBytes(10000, 3);
  const Slice whole(data);
  for (const size_t split : {0, 1, 15, 16, 63, 64, 65, 200, 4096, 9999, 10000}) {
    const Slice a(data.data(), split);
    const Slice b(data.data() + split, data.size() - split);
    EXPECT_EQ(Crc32(b, Crc32(a)), Crc32(whole)) << "split=" << split;
    EXPECT_EQ(internal::Crc32Portable(b, internal::Crc32Portable(a)),
              Crc32(whole))
        << "split=" << split;
  }
}

// ---------------------------------------------------------------- Env

class EnvTest : public ::testing::Test {
 protected:
  MemEnv env_;
};

TEST_F(EnvTest, WriteReadRoundTrip) {
  ASSERT_TRUE(env_.WriteFile("a/b.txt", "contents").ok());
  auto r = env_.ReadFile("a/b.txt");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "contents");
}

TEST_F(EnvTest, ReadMissingIsNotFound) {
  EXPECT_TRUE(env_.ReadFile("nope").status().IsNotFound());
}

TEST_F(EnvTest, RangeRead) {
  ASSERT_TRUE(env_.WriteFile("f", "0123456789").ok());
  auto r = env_.ReadFileRange("f", 3, 4);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "3456");
  // Past EOF clamps.
  EXPECT_EQ(*env_.ReadFileRange("f", 8, 10), "89");
  EXPECT_EQ(*env_.ReadFileRange("f", 20, 10), "");
}

TEST_F(EnvTest, FileSizeAndExists) {
  ASSERT_TRUE(env_.WriteFile("f", "abcd").ok());
  EXPECT_TRUE(env_.FileExists("f"));
  EXPECT_FALSE(env_.FileExists("g"));
  EXPECT_EQ(*env_.FileSize("f"), 4u);
}

TEST_F(EnvTest, DeleteFile) {
  ASSERT_TRUE(env_.WriteFile("f", "x").ok());
  ASSERT_TRUE(env_.DeleteFile("f").ok());
  EXPECT_FALSE(env_.FileExists("f"));
  EXPECT_TRUE(env_.DeleteFile("f").IsNotFound());
}

TEST_F(EnvTest, CreateDirsAndList) {
  ASSERT_TRUE(env_.CreateDirs("repo/models/v1").ok());
  EXPECT_TRUE(env_.DirExists("repo"));
  EXPECT_TRUE(env_.DirExists("repo/models/v1"));
  ASSERT_TRUE(env_.WriteFile("repo/models/v1/a", "1").ok());
  ASSERT_TRUE(env_.WriteFile("repo/models/v1/b", "2").ok());
  auto names = env_.ListDir("repo/models/v1");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"a", "b"}));
  auto top = env_.ListDir("repo");
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(*top, (std::vector<std::string>{"models"}));
}

TEST_F(EnvTest, RenameFileMovesAndReplaces) {
  ASSERT_TRUE(env_.WriteFile("a", "old-a").ok());
  ASSERT_TRUE(env_.WriteFile("b", "old-b").ok());
  // Rename over an existing file replaces it.
  ASSERT_TRUE(env_.RenameFile("a", "b").ok());
  EXPECT_FALSE(env_.FileExists("a"));
  EXPECT_EQ(*env_.ReadFile("b"), "old-a");
  // Rename to a fresh name.
  ASSERT_TRUE(env_.RenameFile("b", "c/d").ok());
  EXPECT_EQ(*env_.ReadFile("c/d"), "old-a");
  // Missing source.
  EXPECT_TRUE(env_.RenameFile("nope", "x").IsNotFound());
}

TEST(PosixEnvTest, RenameFileInTmp) {
  Env* env = Env::Default();
  const std::string dir = ::testing::TempDir() + "/mh_rename_test";
  ASSERT_TRUE(env->CreateDirs(dir).ok());
  ASSERT_TRUE(env->WriteFile(JoinPath(dir, "src"), "payload").ok());
  ASSERT_TRUE(env->WriteFile(JoinPath(dir, "dst"), "stale").ok());
  ASSERT_TRUE(env->RenameFile(JoinPath(dir, "src"), JoinPath(dir, "dst")).ok());
  EXPECT_FALSE(env->FileExists(JoinPath(dir, "src")));
  EXPECT_EQ(*env->ReadFile(JoinPath(dir, "dst")), "payload");
  EXPECT_TRUE(
      env->RenameFile(JoinPath(dir, "gone"), JoinPath(dir, "x")).IsNotFound());
  ASSERT_TRUE(env->DeleteFile(JoinPath(dir, "dst")).ok());
}

// ---------------------------------------------------------- checked I/O

TEST(CheckedIoTest, RoundTripAndCorruptionDetection) {
  MemEnv env;
  ASSERT_TRUE(WriteChecked(&env, "f", "hello world").ok());
  auto back = ReadChecked(&env, "f");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, "hello world");
  // Any single-byte flip anywhere in the framed file must be caught.
  auto framed = env.ReadFile("f");
  ASSERT_TRUE(framed.ok());
  for (size_t i = 0; i < framed->size(); ++i) {
    std::string bad = *framed;
    bad[i] ^= 0x40;
    ASSERT_TRUE(env.WriteFile("f", bad).ok());
    EXPECT_TRUE(ReadChecked(&env, "f").status().IsCorruption()) << i;
  }
  // Truncations (including below the footer size) are corruption.
  for (size_t len : {size_t{0}, size_t{3}, framed->size() - 1}) {
    ASSERT_TRUE(env.WriteFile("f", framed->substr(0, len)).ok());
    EXPECT_TRUE(ReadChecked(&env, "f").status().IsCorruption()) << len;
  }
  // Missing files keep their NotFound status (callers rely on it).
  EXPECT_TRUE(ReadChecked(&env, "missing").status().IsNotFound());
  // The empty payload round-trips too.
  ASSERT_TRUE(WriteChecked(&env, "e", "").ok());
  EXPECT_EQ(*ReadChecked(&env, "e"), "");
}

// ------------------------------------------------------ fault injection

TEST(FaultInjectionEnvTest, FailsNthMutationThenStaysCrashed) {
  MemEnv mem;
  FaultInjectionEnv env(&mem);
  ASSERT_TRUE(env.WriteFile("a", "1").ok());  // Mutation 1.
  env.FailNthMutation(2);
  ASSERT_TRUE(env.WriteFile("b", "2").ok());        // Mutation 2 (k=1).
  EXPECT_FALSE(env.WriteFile("c", "3").ok());       // Mutation 3 (k=2) fails.
  EXPECT_TRUE(env.crashed());
  // After the crash every mutation fails, reads still work.
  EXPECT_FALSE(env.WriteFile("d", "4").ok());
  EXPECT_FALSE(env.DeleteFile("a").ok());
  EXPECT_FALSE(env.RenameFile("a", "z").ok());
  EXPECT_FALSE(env.CreateDirs("dir").ok());
  EXPECT_EQ(*env.ReadFile("a"), "1");
  EXPECT_FALSE(mem.FileExists("c"));
  env.Reset();
  EXPECT_TRUE(env.WriteFile("c", "3").ok());
}

TEST(FaultInjectionEnvTest, TornWriteLeavesPrefixInShadowFile) {
  MemEnv mem;
  ASSERT_TRUE(mem.WriteFile("f", "old contents").ok());
  FaultInjectionEnv env(&mem);
  env.TornWriteNthMutation(1, 0.5);
  EXPECT_FALSE(env.WriteFile("f", "NEW CONTENTS!").ok());
  // The target keeps its old bytes (WriteFile's atomic-replace contract);
  // the torn prefix lands in the shadow tmp file.
  EXPECT_EQ(*mem.ReadFile("f"), "old contents");
  auto shadow = mem.ReadFile("f.tmp");
  ASSERT_TRUE(shadow.ok());
  EXPECT_FALSE(shadow->empty());
  EXPECT_LT(shadow->size(), std::string("NEW CONTENTS!").size());
  EXPECT_EQ(*shadow, std::string("NEW CONTENTS!").substr(0, shadow->size()));
}

TEST(FaultInjectionEnvTest, ReadFaultsAndWriteCorruption) {
  MemEnv mem;
  FaultInjectionEnv env(&mem);
  ASSERT_TRUE(env.WriteFile("data/a", "payload").ok());
  env.FailReadsMatching("data/");
  EXPECT_FALSE(env.ReadFile("data/a").ok());
  EXPECT_FALSE(env.ReadFileRange("data/a", 0, 3).ok());
  env.Reset();
  EXPECT_TRUE(env.ReadFile("data/a").ok());
  // Silent bit flips on matching writes: the write succeeds, the stored
  // bytes differ from the payload by exactly one bit.
  env.CorruptWritesMatching("evil", /*bit=*/3);
  ASSERT_TRUE(env.WriteFile("evil.bin", "AAAA").ok());
  EXPECT_NE(*mem.ReadFile("evil.bin"), "AAAA");
  ASSERT_TRUE(env.WriteFile("fine.bin", "AAAA").ok());
  EXPECT_EQ(*mem.ReadFile("fine.bin"), "AAAA");
}

TEST(PosixEnvTest, WriteReadDeleteInTmp) {
  Env* env = Env::Default();
  const std::string dir = ::testing::TempDir() + "/mh_env_test";
  ASSERT_TRUE(env->CreateDirs(dir).ok());
  const std::string path = JoinPath(dir, "file.bin");
  std::string payload(10000, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i % 251);
  }
  ASSERT_TRUE(env->WriteFile(path, payload).ok());
  EXPECT_TRUE(env->FileExists(path));
  EXPECT_EQ(*env->FileSize(path), payload.size());
  EXPECT_EQ(*env->ReadFile(path), payload);
  EXPECT_EQ(*env->ReadFileRange(path, 100, 16), payload.substr(100, 16));
  auto names = env->ListDir(dir);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), 1u);
  ASSERT_TRUE(env->DeleteFile(path).ok());
  EXPECT_FALSE(env->FileExists(path));
}

TEST(PosixEnvTest, MapFileMatchesReadAndOutlivesDelete) {
  Env* env = Env::Default();
  const std::string dir = ::testing::TempDir() + "/mh_mmap_test";
  ASSERT_TRUE(env->CreateDirs(dir).ok());
  const std::string path = JoinPath(dir, "mapped.bin");
  std::string payload(8192, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>((i * 31) % 253);
  }
  ASSERT_TRUE(env->WriteFile(path, payload).ok());
  auto mapping = env->MapFile(path);
  ASSERT_TRUE(mapping.ok());
  ASSERT_EQ((*mapping)->size(), payload.size());
  EXPECT_EQ(std::string((*mapping)->data(), (*mapping)->size()), payload);
  // POSIX semantics: an open mapping pins the inode, so readers holding a
  // mapping are immune to concurrent unlink/replace of the path.
  ASSERT_TRUE(env->DeleteFile(path).ok());
  EXPECT_EQ(std::string((*mapping)->data(), (*mapping)->size()), payload);
}

TEST(PosixEnvTest, MapFileRejectsEmptyAndMissingFiles) {
  Env* env = Env::Default();
  const std::string dir = ::testing::TempDir() + "/mh_mmap_test";
  ASSERT_TRUE(env->CreateDirs(dir).ok());
  EXPECT_FALSE(env->MapFile(JoinPath(dir, "absent.bin")).ok());
  const std::string empty = JoinPath(dir, "empty.bin");
  ASSERT_TRUE(env->WriteFile(empty, "").ok());
  EXPECT_FALSE(env->MapFile(empty).ok());
}

TEST(MemEnvTest, MapFileIsUnimplemented) {
  // MemEnv (and the fault-injection wrapper built on it) deliberately
  // does not map: chunk readers must fall back to ranged reads, which is
  // exactly the path the crash-injection sweeps exercise.
  MemEnv env;
  ASSERT_TRUE(env.WriteFile("f.bin", "abc").ok());
  const Status status = env.MapFile("f.bin").status();
  EXPECT_EQ(status.code(), StatusCode::kUnimplemented);
}

TEST(PathTest, JoinPath) {
  EXPECT_EQ(JoinPath("a", "b"), "a/b");
  EXPECT_EQ(JoinPath("a/", "b"), "a/b");
  EXPECT_EQ(JoinPath("", "b"), "b");
  EXPECT_EQ(JoinPath("a", ""), "a");
}

// ---------------------------------------------------------------- Rng

TEST(RngTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(123);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.1);
}

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    pool.Schedule([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Schedule([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Schedule([&counter] { counter.fetch_add(10); });
  pool.Schedule([&counter] { counter.fetch_add(100); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 111);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturns) {
  ThreadPool pool(3);
  pool.Wait();  // Must not hang.
  SUCCEED();
}

TEST(ThreadPoolTest, MinimumOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  std::atomic<bool> ran{false};
  pool.Schedule([&ran] { ran = true; });
  pool.Wait();
  EXPECT_TRUE(ran.load());
}

// ---------------------------------------------------------- WaitGroup

TEST(WaitGroupTest, WaitsForScheduledBatch) {
  ThreadPool pool(4);
  WaitGroup group;
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Schedule(&group, [&counter] { counter.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(counter.load(), 100);
  group.Wait();  // Reusable: zero count returns immediately.
}

TEST(WaitGroupTest, WaitWithNothingScheduledReturns) {
  WaitGroup group;
  group.Wait();
  SUCCEED();
}

// The batch-wait contract: a group's Wait() covers only its own tasks,
// not everything in flight on the pool. The foreign task here blocks on
// a latch that is only released AFTER the group's Wait() returns — if
// Wait() barriered on all pool tasks (the old ThreadPool::Wait()
// semantics), this test would deadlock.
TEST(WaitGroupTest, WaitIgnoresForeignTasks) {
  ThreadPool pool(2);
  std::mutex mutex;
  std::condition_variable released_cv;
  bool released = false;
  std::atomic<bool> foreign_done{false};
  pool.Schedule([&] {
    std::unique_lock<std::mutex> lock(mutex);
    released_cv.wait(lock, [&] { return released; });
    foreign_done = true;
  });
  WaitGroup group;
  std::atomic<int> counter{0};
  for (int i = 0; i < 8; ++i) {
    pool.Schedule(&group, [&counter] { counter.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(counter.load(), 8);
  EXPECT_FALSE(foreign_done.load());
  {
    std::lock_guard<std::mutex> lock(mutex);
    released = true;
  }
  released_cv.notify_all();
  pool.Wait();
  EXPECT_TRUE(foreign_done.load());
}

// Tasks may fan out follow-up work against their own group: the child's
// Add() happens inside the parent task, before the pool decrements the
// parent, so the count never transiently reaches zero mid-expansion.
TEST(WaitGroupTest, TasksMayScheduleFollowUpsIntoSameGroup) {
  ThreadPool pool(4);
  WaitGroup group;
  std::atomic<int> counter{0};
  std::function<void(int)> expand = [&](int depth) {
    counter.fetch_add(1);
    if (depth > 0) {
      for (int i = 0; i < 2; ++i) {
        pool.Schedule(&group, [&expand, depth] { expand(depth - 1); });
      }
    }
  };
  pool.Schedule(&group, [&expand] { expand(4); });
  group.Wait();
  // Full binary expansion: 2^5 - 1 nodes.
  EXPECT_EQ(counter.load(), 31);
}

TEST(WaitGroupTest, TwoGroupsOnOnePoolWaitIndependently) {
  ThreadPool pool(4);
  WaitGroup first;
  WaitGroup second;
  std::atomic<int> first_count{0};
  std::atomic<int> second_count{0};
  for (int i = 0; i < 50; ++i) {
    pool.Schedule(&first, [&first_count] { first_count.fetch_add(1); });
    pool.Schedule(&second, [&second_count] { second_count.fetch_add(1); });
  }
  first.Wait();
  EXPECT_EQ(first_count.load(), 50);
  second.Wait();
  EXPECT_EQ(second_count.load(), 50);
}

// ------------------------------------------------------------------ JSON

TEST(JsonStringTest, EscapesEachCharacterClass) {
  EXPECT_EQ(JsonString(""), "\"\"");
  EXPECT_EQ(JsonString("plain text 0-9 ~"), "\"plain text 0-9 ~\"");
  EXPECT_EQ(JsonString("say \"hi\""), "\"say \\\"hi\\\"\"");
  EXPECT_EQ(JsonString("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(JsonString("\n\r\t"), "\"\\n\\r\\t\"");
  // Every other control character takes the \u00xx form (no \b or \f).
  EXPECT_EQ(JsonString(std::string("\x00\x01\x08\x0c\x1f", 5)),
            "\"\\u0000\\u0001\\u0008\\u000c\\u001f\"");
  // DEL and UTF-8 bytes pass through unchanged.
  EXPECT_EQ(JsonString("\x7f"), "\"\x7f\"");
  EXPECT_EQ(JsonString("caf\xc3\xa9"), "\"caf\xc3\xa9\"");

  std::string out = "x=";
  AppendJsonString(&out, "y\tz");
  EXPECT_EQ(out, "x=\"y\\tz\"");
}

}  // namespace
}  // namespace modelhub
