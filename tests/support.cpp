//===- support.cpp - Tests for the support library -------------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "support/Error.h"
#include "support/OrderedWindow.h"
#include "support/Rng.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include <sys/stat.h>

using namespace cats;

TEST(StringUtils, SplitKeepsEmptyFields) {
  auto Parts = splitString("a,,b,", ',');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[1], "");
  EXPECT_EQ(Parts[2], "b");
  EXPECT_EQ(Parts[3], "");
}

TEST(StringUtils, SplitSingleField) {
  auto Parts = splitString("abc", ',');
  ASSERT_EQ(Parts.size(), 1u);
  EXPECT_EQ(Parts[0], "abc");
}

TEST(StringUtils, SplitWhitespaceDropsEmpties) {
  auto Parts = splitWhitespace("  foo \t bar\nbaz  ");
  ASSERT_EQ(Parts.size(), 3u);
  EXPECT_EQ(Parts[0], "foo");
  EXPECT_EQ(Parts[1], "bar");
  EXPECT_EQ(Parts[2], "baz");
}

TEST(StringUtils, SplitWhitespaceAllBlank) {
  EXPECT_TRUE(splitWhitespace(" \t\n ").empty());
}

TEST(StringUtils, Trim) {
  EXPECT_EQ(trimString("  x y  "), "x y");
  EXPECT_EQ(trimString(""), "");
  EXPECT_EQ(trimString("   "), "");
  EXPECT_EQ(trimString("abc"), "abc");
}

TEST(StringUtils, StartsEndsWith) {
  EXPECT_TRUE(startsWith("mp+lwsync+addr", "mp"));
  EXPECT_FALSE(startsWith("mp", "mp+"));
  EXPECT_TRUE(endsWith("mp+lwsync+addr", "addr"));
  EXPECT_FALSE(endsWith("addr", "+addr"));
}

TEST(StringUtils, Format) {
  EXPECT_EQ(strFormat("%d %s", 42, "x"), "42 x");
  EXPECT_EQ(strFormat("%s", ""), "");
}

TEST(StringUtils, Join) {
  EXPECT_EQ(joinStrings({"a", "b", "c"}, "+"), "a+b+c");
  EXPECT_EQ(joinStrings({}, "+"), "");
  EXPECT_EQ(joinStrings({"solo"}, "+"), "solo");
}

TEST(StringUtils, Padding) {
  EXPECT_EQ(padRight("ab", 5), "ab   ");
  EXPECT_EQ(padLeft("ab", 5), "   ab");
  EXPECT_EQ(padRight("abcdef", 3), "abcdef");
}

TEST(StringUtils, WriteWholeFileChecksTheWriteAndTheClose) {
  const std::string Path = ::testing::TempDir() + "cats_write_whole_file";
  const std::string Text(100000, 'x');
  ASSERT_FALSE(writeWholeFile(Path, Text).failed());
  std::string Back;
  ASSERT_TRUE(readWholeFile(Path, Back));
  EXPECT_EQ(Back, Text);
  std::filesystem::remove(Path);

  // Opening fails.
  Status Missing = writeWholeFile(Path + "/no/such/dir", "x");
  EXPECT_TRUE(Missing.failed());
  EXPECT_EQ(Missing.message(), "cannot write " + Path + "/no/such/dir");

  // Opening succeeds and the disk is full: a short text fails only when
  // the close flushes it, a long one already in the write.
  if (!std::filesystem::exists("/dev/full"))
    GTEST_SKIP() << "no /dev/full";
  for (const std::string &Payload : {std::string("x"), Text}) {
    Status Full = writeWholeFile("/dev/full", Payload);
    EXPECT_TRUE(Full.failed()) << Payload.size();
    EXPECT_EQ(Full.message(), "cannot write /dev/full");
  }
}

TEST(StringUtils, ReadWholeFileTakesRegularFilesAndPipesOnly) {
  namespace fs = std::filesystem;
  const std::string Dir = ::testing::TempDir() + "cats_read_whole_file";
  fs::remove_all(Dir);
  ASSERT_TRUE(fs::create_directories(Dir + "/sub.litmus"));

  // A regular file, empty or not, is read whole.
  const std::string Text = "SC t\nP0:\n  st x, #1\n";
  ASSERT_FALSE(writeWholeFile(Dir + "/t.litmus", Text).failed());
  ASSERT_FALSE(writeWholeFile(Dir + "/empty", "").failed());
  std::string Back = "stale";
  ASSERT_TRUE(readWholeFile(Dir + "/t.litmus", Back));
  EXPECT_EQ(Back, Text);
  ASSERT_TRUE(readWholeFile(Dir + "/empty", Back));
  EXPECT_EQ(Back, "");

  // A directory is refused, not read as a huge file.
  EXPECT_FALSE(readWholeFile(Dir + "/sub.litmus", Back));
  EXPECT_FALSE(readWholeFile(Dir + "/missing", Back));

  // A pipe is read to its end, across many reads.
  const std::string Fifo = Dir + "/fifo";
  ASSERT_EQ(::mkfifo(Fifo.c_str(), 0600), 0);
  const std::string Long(100000, 'p');
  std::thread Writer([&] {
    ASSERT_FALSE(writeWholeFile(Fifo, Long).failed());
  });
  EXPECT_TRUE(readWholeFile(Fifo, Back));
  Writer.join();
  EXPECT_EQ(Back, Long);
  fs::remove_all(Dir);
}

TEST(Status, SuccessAndError) {
  Status Ok = Status::success();
  EXPECT_TRUE(static_cast<bool>(Ok));
  EXPECT_FALSE(Ok.failed());

  Status Err = Status::error("boom");
  EXPECT_FALSE(static_cast<bool>(Err));
  EXPECT_TRUE(Err.failed());
  EXPECT_EQ(Err.message(), "boom");
}

TEST(Expected, Roundtrip) {
  Expected<int> Ok(7);
  ASSERT_TRUE(static_cast<bool>(Ok));
  EXPECT_EQ(*Ok, 7);

  auto Err = Expected<int>::error("bad");
  EXPECT_FALSE(static_cast<bool>(Err));
  EXPECT_EQ(Err.message(), "bad");
}

TEST(Rng, DeterministicForSeed) {
  Rng A(123), B(123);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  bool AnyDifferent = false;
  for (int I = 0; I < 10; ++I)
    AnyDifferent |= (A.next() != B.next());
  EXPECT_TRUE(AnyDifferent);
}

TEST(Rng, BoundRespected) {
  Rng R(99);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 1000; ++I) {
    uint64_t V = R.nextBelow(7);
    EXPECT_LT(V, 7u);
    Seen.insert(V);
  }
  // With 1000 draws every residue should appear.
  EXPECT_EQ(Seen.size(), 7u);
}

//===----------------------------------------------------------------------===//
// The ordered window
//===----------------------------------------------------------------------===//

namespace {

/// A pass of an OrderedWindow<size_t> over the items 0, 1, ...: it counts
/// each item's settles and the settles running, notes the threads of
/// each step under a lock, and sleeps in the settle of every seventh item
/// so that later items finish first.
struct WindowProbe {
  static constexpr size_t Items = 300;
  std::atomic<unsigned> Settles[Items] = {};
  std::atomic<int> Running{0};
  std::mutex Lock;
  std::map<std::string, std::set<std::thread::id>> Threads;
  std::vector<size_t> Emitted;
  size_t Pulled = 0;

  void note(const char *Step) {
    std::lock_guard<std::mutex> L(Lock);
    Threads[Step].insert(std::this_thread::get_id());
  }
  bool pull(size_t &Item) {
    note("pull");
    if (Pulled == Items)
      return false;
    Item = Pulled++;
    return true;
  }
  void settle(size_t Item) {
    ++Running;
    note("settle");
    if (Item % 7 == 0)
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    ++Settles[Item];
    --Running;
  }
  void emit(size_t Item) {
    note("emit");
    Emitted.push_back(Item);
  }
  /// The settles so far, all items together.
  unsigned settled() const {
    unsigned N = 0;
    for (const std::atomic<unsigned> &S : Settles)
      N += S.load();
    return N;
  }
};

} // namespace

TEST(OrderedWindow, EmitsInPullOrderWhateverSettlesFirst) {
  for (unsigned Workers = 1; Workers <= 8; ++Workers)
    for (size_t Batch : {1, 3, 64}) {
      SCOPED_TRACE(std::to_string(Workers) + " workers, batch " +
                   std::to_string(Batch));
      WindowProbe Probe;
      OrderedWindow<size_t>(Workers, Batch)
          .run([&](size_t &I) { return Probe.pull(I); },
               [&](size_t &I) { Probe.settle(I); },
               [&](size_t &I) {
                 Probe.emit(I);
                 return true;
               });
      ASSERT_EQ(Probe.Emitted.size(), WindowProbe::Items);
      for (size_t I = 0; I < WindowProbe::Items; ++I) {
        EXPECT_EQ(Probe.Emitted[I], I);
        EXPECT_EQ(Probe.Settles[I].load(), 1u) << I;
      }
    }
}

TEST(OrderedWindow, SettlesOnWorkersAndPullsAndEmitsOnTheCallingThread) {
  const std::set<std::thread::id> Caller = {std::this_thread::get_id()};
  for (unsigned Workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(std::to_string(Workers) + " workers");
    WindowProbe Probe;
    const OrderedWindow<size_t> Window(Workers, 4);
    Window.run([&](size_t &I) { return Probe.pull(I); },
               [&](size_t &I) { Probe.settle(I); },
               [&](size_t &I) {
                 Probe.emit(I);
                 return true;
               });
    EXPECT_EQ(Probe.Threads["pull"], Caller);
    EXPECT_EQ(Probe.Threads["emit"], Caller);
    const std::set<std::thread::id> &Settled = Probe.Threads["settle"];
    if (Window.workers() == 1) {
      EXPECT_EQ(Settled, Caller);
    } else {
      EXPECT_FALSE(Settled.empty());
      EXPECT_EQ(Settled.count(*Caller.begin()), 0u);
      EXPECT_LE(Settled.size(), Window.workers());
    }
  }
}

TEST(OrderedWindow, AStopFromEmitSettlesNothingTwiceAndJoinsThePool) {
  for (unsigned Workers = 1; Workers <= 8; ++Workers) {
    SCOPED_TRACE(std::to_string(Workers) + " workers");
    WindowProbe Probe;
    const size_t StopAt = 70;
    OrderedWindow<size_t>(Workers, 4)
        .run([&](size_t &I) { return Probe.pull(I); },
             [&](size_t &I) { Probe.settle(I); },
             [&](size_t &I) {
               Probe.emit(I);
               return I != StopAt;
             });
    // Nothing after the stop is emitted, no item settles twice, and the
    // pool has joined: no settle runs now, and none starts later.
    ASSERT_EQ(Probe.Emitted.size(), StopAt + 1);
    EXPECT_EQ(Probe.Emitted.back(), StopAt);
    EXPECT_EQ(Probe.Running.load(), 0);
    const unsigned Settled = Probe.settled();
    for (size_t I = 0; I < WindowProbe::Items; ++I)
      EXPECT_LE(Probe.Settles[I].load(), 1u) << I;
    for (size_t I = 0; I <= StopAt; ++I)
      EXPECT_EQ(Probe.Settles[I].load(), 1u) << I;
    // The window never ran further ahead than workers x batch items.
    EXPECT_LE(Probe.Pulled, StopAt + 1 + size_t(8) * 4);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(Probe.settled(), Settled);
  }
}

TEST(OrderedWindow, AnExceptionFromPullOrEmitPropagatesAfterTheJoin) {
  for (unsigned Workers : {1u, 4u, 8u})
    for (bool FromPull : {true, false}) {
      SCOPED_TRACE(std::to_string(Workers) + " workers, thrown by " +
                   (FromPull ? "pull" : "emit"));
      WindowProbe Probe;
      auto Pass = [&] {
        OrderedWindow<size_t>(Workers, 4)
            .run(
                [&](size_t &I) {
                  if (FromPull && Probe.Pulled == 90)
                    throw std::runtime_error("pull");
                  return Probe.pull(I);
                },
                [&](size_t &I) { Probe.settle(I); },
                [&](size_t &I) {
                  if (!FromPull && I == 50)
                    throw std::runtime_error("emit");
                  Probe.emit(I);
                  return true;
                });
      };
      EXPECT_THROW(Pass(), std::runtime_error);
      EXPECT_EQ(Probe.Running.load(), 0);
      const unsigned Settled = Probe.settled();
      for (size_t I = 0; I < WindowProbe::Items; ++I)
        EXPECT_LE(Probe.Settles[I].load(), 1u) << I;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      EXPECT_EQ(Probe.settled(), Settled);
      // What was emitted is a prefix of the stream.
      for (size_t I = 0; I < Probe.Emitted.size(); ++I)
        EXPECT_EQ(Probe.Emitted[I], I);
    }
}

namespace {

/// A pass of an OrderedWindow<size_t> with a make step over the items 0,
/// 1, ...: the pull takes the next index, the make sleeps in every fifth
/// item and the settle in every seventh, so both finish out of order,
/// and the admission drops every fourth item. It counts each item's
/// makes and settles and notes the threads of each step.
struct MakeProbe : WindowProbe {
  std::atomic<unsigned> Makes[Items] = {};
  std::vector<size_t> Admitted;

  void make(size_t Item) {
    ++Running;
    note("make");
    if (Item % 5 == 0)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    ++Makes[Item];
    --Running;
  }
  bool admit(size_t Item) {
    note("admit");
    // Admitted only once made, in pull order.
    EXPECT_EQ(Makes[Item].load(), 1u) << Item;
    Admitted.push_back(Item);
    return Item % 4 != 3;
  }
  unsigned made() const {
    unsigned N = 0;
    for (const std::atomic<unsigned> &M : Makes)
      N += M.load();
    return N;
  }
  /// Runs the five steps through a window of \p Workers x \p Batch.
  void run(unsigned Workers, size_t Batch) {
    OrderedWindow<size_t>(Workers, Batch)
        .run([&](size_t &I) { return pull(I); }, [&](size_t &I) { make(I); },
             [&](size_t &I) { return admit(I); },
             [&](size_t &I) { settle(I); },
             [&](size_t &I) {
               emit(I);
               return true;
             });
  }
};

} // namespace

TEST(OrderedWindow, AdmitsInPullOrderWhateverMakesFirst) {
  const std::set<std::thread::id> Caller = {std::this_thread::get_id()};
  for (unsigned Workers = 1; Workers <= 8; ++Workers)
    for (size_t Batch : {1, 3, 64}) {
      SCOPED_TRACE(std::to_string(Workers) + " workers, batch " +
                   std::to_string(Batch));
      MakeProbe Probe;
      Probe.run(Workers, Batch);
      ASSERT_EQ(Probe.Admitted.size(), MakeProbe::Items);
      std::vector<size_t> Kept;
      for (size_t I = 0; I < MakeProbe::Items; ++I) {
        EXPECT_EQ(Probe.Admitted[I], I);
        EXPECT_EQ(Probe.Makes[I].load(), 1u) << I;
        // A dropped item is never settled or emitted.
        EXPECT_EQ(Probe.Settles[I].load(), I % 4 != 3 ? 1u : 0u) << I;
        if (I % 4 != 3)
          Kept.push_back(I);
      }
      EXPECT_EQ(Probe.Emitted, Kept);
      for (const char *Step : {"pull", "admit", "emit"})
        EXPECT_EQ(Probe.Threads[Step], Caller) << Step;
      // Makes and settles run on the workers, or all on the calling
      // thread at one worker.
      for (const char *Step : {"make", "settle"}) {
        const std::set<std::thread::id> &On = Probe.Threads[Step];
        if (hardwareWorkers(Workers) == 1) {
          EXPECT_EQ(On, Caller) << Step;
        } else {
          EXPECT_EQ(On.count(*Caller.begin()), 0u) << Step;
          EXPECT_LE(On.size(), hardwareWorkers(Workers)) << Step;
        }
      }
    }
}

TEST(OrderedWindow, AnExceptionFromMakeAdmitOrEmitPropagatesAfterTheJoin) {
  for (unsigned Workers : {1u, 2u, 4u, 8u})
    for (const char *From : {"make", "admit", "emit"}) {
      SCOPED_TRACE(std::to_string(Workers) + " workers, thrown by " + From);
      const std::string Step = From;
      MakeProbe Probe;
      auto Pass = [&] {
        OrderedWindow<size_t>(Workers, 4)
            .run([&](size_t &I) { return Probe.pull(I); },
                 [&](size_t &I) {
                   if (Step == "make" && I == 60)
                     throw std::runtime_error("make");
                   Probe.make(I);
                 },
                 [&](size_t &I) {
                   if (Step == "admit" && I == 70)
                     throw std::runtime_error("admit");
                   return Probe.admit(I);
                 },
                 [&](size_t &I) { Probe.settle(I); },
                 [&](size_t &I) {
                   if (Step == "emit" && I == 50)
                     throw std::runtime_error("emit");
                   Probe.emit(I);
                   return true;
                 });
      };
      EXPECT_THROW(Pass(), std::runtime_error);
      // The pool has joined: nothing runs now, and nothing starts later.
      EXPECT_EQ(Probe.Running.load(), 0);
      const unsigned Made = Probe.made(), Settled = Probe.settled();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      EXPECT_EQ(Probe.made(), Made);
      EXPECT_EQ(Probe.settled(), Settled);
      // Items are admitted up to the failure, and nothing after it is.
      const size_t Failed = Step == "make" ? 60 : Step == "admit" ? 70 : 50;
      EXPECT_LE(Probe.Admitted.size(), Step == "emit" ? MakeProbe::Items
                                                      : Failed);
      for (size_t I = 0; I < Probe.Admitted.size(); ++I)
        EXPECT_EQ(Probe.Admitted[I], I);
      for (size_t I : Probe.Emitted)
        EXPECT_LT(I, Failed);
    }
}
