//===- OrderedWindow.h - Settle on a pool, emit in order --------*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one worker pool of the campaign tools. A stream of items passes
/// through a bounded window in three steps: the calling thread pulls the
/// items in order, a pool of worker threads settles them, and the calling
/// thread emits them in pull order. The sweep engine (sweep/SweepEngine.h)
/// settles a test by judging it or decoding its stored record; the sweep
/// merge (campaign/Merge.h) settles a report record by parsing, checking
/// and rendering it.
///
/// - At most workers x batch items are in the window: pulled and not yet
///   emitted. The calling thread sleeps on the oldest batch, waking about
///   once per batch, emits the settled prefix, and pulls again.
/// - Pull and Emit run on the calling thread only, so neither needs to be
///   thread-safe. Settle runs once per item, on the worker that takes it,
///   and must touch nothing but its item and what is safe to share; an
///   exception out of it on a worker ends the process.
/// - The pool starts whole at the first pulled item, and run() stops and
///   joins it on every way out, an exception from Pull or Emit included.
///   At one worker no thread starts: each window is settled on the
///   calling thread, in order, after its pulls.
/// - Emit returns false to stop: nothing after that item is emitted, no
///   further item is settled, and run() returns once the pool has joined.
///
/// So the emitted stream is the pulled one, in order, for any worker
/// count, and the order in which workers finish never shows.
///
//===----------------------------------------------------------------------===//

#ifndef CATS_SUPPORT_ORDEREDWINDOW_H
#define CATS_SUPPORT_ORDEREDWINDOW_H

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

namespace cats {

/// The workers of a pool for CPU-bound work: \p Requested, where 0 means
/// the hardware's threads. More than the hardware's are clamped to it:
/// oversubscribed cores only add context switching.
inline unsigned hardwareWorkers(unsigned Requested) {
  unsigned Hw = std::thread::hardware_concurrency();
  if (Hw == 0)
    Hw = 1;
  return Requested == 0 || Requested > Hw ? Hw : Requested;
}

/// OrderedWindow::run's default Fill: runs the pulls as they are.
struct PlainFill {
  template <class Pulls> void operator()(Pulls &&P) const { P(); }
};

/// Streams items of type Item through a window over a worker pool.
template <class Item> class OrderedWindow {
public:
  /// A window of \p Workers (as hardwareWorkers takes them) times
  /// \p Batch items; a batch of 0 counts as 1.
  OrderedWindow(unsigned Workers, size_t Batch)
      : Workers(hardwareWorkers(Workers)), Batch(std::max<size_t>(Batch, 1)) {
  }

  unsigned workers() const { return Workers; }

  /// Streams until \p Pull or \p Emit returns false:
  /// - Pull(Item &) fills a default-constructed item, or returns false at
  ///   the end of the stream;
  /// - Settle(Item &) does the item's work;
  /// - Emit(Item &) takes each settled item in pull order, and returns
  ///   false to stop;
  /// - Fill(Pulls) runs Pulls(), the pulls that refill the window, once
  ///   per refill: a place for a span or a timer around them.
  /// Concurrent calls share nothing.
  template <class PullFn, class SettleFn, class EmitFn,
            class FillFn = PlainFill>
  void run(PullFn &&Pull, SettleFn &&Settle, EmitFn &&Emit,
           FillFn &&Fill = FillFn()) const;

private:
  unsigned Workers;
  size_t Batch;
};

template <class Item>
template <class PullFn, class SettleFn, class EmitFn, class FillFn>
void OrderedWindow<Item>::run(PullFn &&Pull, SettleFn &&Settle,
                              EmitFn &&Emit, FillFn &&Fill) const {
  /// One item of the window. Deque elements keep their address while the
  /// window grows and shrinks at its ends, so a worker settles its slot
  /// without the lock; only Done is shared.
  struct Slot {
    Item Value;
    bool Done = false;
  };
  std::deque<Slot> Window;
  // Shared with the pool, under Lock: the slots no worker has claimed
  // yet, every queued slot's Done flag, the slot the calling thread
  // sleeps on, and the stop request.
  std::mutex Lock;
  std::condition_variable Queued, Finished;
  std::deque<Slot *> Pending;
  const Slot *Awaited = nullptr;
  bool Stop = false;
  auto Work = [&] {
    std::unique_lock<std::mutex> L(Lock);
    while (true) {
      Queued.wait(L, [&] { return Stop || !Pending.empty(); });
      if (Stop)
        return;
      Slot *S = Pending.front();
      Pending.pop_front();
      L.unlock();
      Settle(S->Value);
      L.lock();
      S->Done = true;
      if (S == Awaited)
        Finished.notify_one();
    }
  };
  std::vector<std::thread> Pool;
  auto StopPool = [&] {
    {
      std::lock_guard<std::mutex> L(Lock);
      Stop = true;
    }
    Queued.notify_all();
    for (std::thread &T : Pool)
      T.join();
  };

  const size_t WindowSize = Workers * Batch;
  bool Drained = false;
  try {
    bool More = true;
    while (More) {
      Fill([&] {
        while (!Drained && Window.size() < WindowSize) {
          Slot &S = Window.emplace_back();
          if (!Pull(S.Value)) {
            Window.pop_back();
            Drained = true;
            break;
          }
          if (Workers > 1) {
            while (Pool.size() < Workers)
              Pool.emplace_back(Work);
            std::lock_guard<std::mutex> L(Lock);
            Pending.push_back(&S);
            Queued.notify_one();
          }
        }
      });
      if (Window.empty())
        break;
      if (Workers == 1)
        for (Slot &S : Window)
          if (!S.Done) {
            Settle(S.Value);
            S.Done = true;
          }

      // Wait for the oldest batch, sleeping on its last slot and then on
      // each straggler before it, and emit the settled prefix in order.
      const size_t Want = std::min(Batch, Window.size());
      size_t Ready = 0;
      {
        std::unique_lock<std::mutex> L(Lock);
        Finished.wait(L, [&] {
          while (Ready < Window.size() && Window[Ready].Done)
            ++Ready;
          if (Ready >= Want)
            Awaited = nullptr;
          else
            Awaited = &Window[Window[Want - 1].Done ? Ready : Want - 1];
          return !Awaited;
        });
      }
      for (; Ready && More; --Ready) {
        More = Emit(Window.front().Value);
        Window.pop_front();
      }
    }
  } catch (...) {
    StopPool();
    throw;
  }
  StopPool();
}

} // namespace cats

#endif // CATS_SUPPORT_ORDEREDWINDOW_H
