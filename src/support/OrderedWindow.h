//===- OrderedWindow.h - Make and settle on a pool, in order ----*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one worker pool of the campaign tools. A stream of items passes
/// through a bounded window of reused slots in five steps:
///
///   pull (calling thread, in order) -> make (pool) -> admit (calling
///   thread, in pull order) -> settle (pool) -> emit (calling thread, in
///   pull order)
///
/// The sweep engine (sweep/SweepEngine.h) pulls a file or a cycle, makes
/// the test by parsing or synthesizing it, admits it through the filter,
/// the shard and the cache lookup, and settles it by judging it or
/// decoding its stored record; the sweep merge (campaign/Merge.h) pulls a
/// record's bytes and settles it by parsing, checking and rendering it.
///
/// - At most workers x batch items are in the window: pulled and not yet
///   emitted. A slot is reused in place, so what its last item left there
///   is released by the step that fills it next: by the make, on a worker,
///   when the stream has one.
/// - Pull, Admit and Emit run on the calling thread only, so none needs
///   to be thread-safe. Make and Settle run once per item, on the worker
///   that takes it, and must touch nothing but their item and what is
///   safe to share. Workers take makes before settles, so an admission
///   never waits behind a settle.
/// - Admit returns false to drop an item: it is never settled or emitted.
///   Emit returns false to stop: nothing after that item is emitted, no
///   further item is made or settled, and run() returns once the pool has
///   joined.
/// - The calling thread hands items to the pool a run at a time: one lock
///   and one wake per run. It sleeps until a batch of items can be
///   admitted or emitted, or a worker runs out of work.
/// - The pool starts whole at the first run handed to it, and run() stops
///   and joins it on every way out. An exception from a step propagates
///   from run() after the join: from Pull, Admit or Emit at once, and from
///   a worker's Make or Settle when its item reaches admission or
///   emission. At one worker no thread starts: each item is pulled, made,
///   admitted, settled and emitted on the calling thread, in that order,
///   a window of Batch admitted items at a time.
///
/// So the admitted and emitted streams are the pulled one, in order, for
/// any worker count, and the order in which workers finish never shows.
///
//===----------------------------------------------------------------------===//

#ifndef CATS_SUPPORT_ORDEREDWINDOW_H
#define CATS_SUPPORT_ORDEREDWINDOW_H

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
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

/// OrderedWindow::run's Make for a stream whose pull makes each item.
struct NoMake {};

/// OrderedWindow::run's default Fill: runs the steps as they are.
struct PlainFill {
  template <class Steps> void operator()(Steps &&S) const { S(); }
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

  /// Streams until \p Pull runs dry or \p Emit returns false:
  /// - Pull(Item &) fills the next item into a reused slot, or returns
  ///   false at the end of the stream;
  /// - Make(Item &) makes the pulled item, or is NoMake();
  /// - Admit(Item &) takes each made item in pull order, and returns false
  ///   to drop it;
  /// - Settle(Item &) does an admitted item's work;
  /// - Emit(Item &) takes each settled item in pull order, and returns
  ///   false to stop;
  /// - Fill(Steps) runs Steps(), the pulls and admissions that refill the
  ///   window (at one worker, with the makes between them), once per
  ///   refill: a place for a span or a timer around them.
  /// Concurrent calls share nothing.
  template <class PullFn, class MakeFn, class AdmitFn, class SettleFn,
            class EmitFn, class FillFn = PlainFill>
  void run(PullFn &&Pull, MakeFn &&Make, AdmitFn &&Admit, SettleFn &&Settle,
           EmitFn &&Emit, FillFn &&Fill = FillFn()) const;

  /// The stream without a make step, every item admitted.
  template <class PullFn, class SettleFn, class EmitFn,
            class FillFn = PlainFill>
  void run(PullFn &&Pull, SettleFn &&Settle, EmitFn &&Emit,
           FillFn &&Fill = FillFn()) const {
    run(Pull, NoMake(), [](Item &) { return true; }, Settle, Emit, Fill);
  }

private:
  /// The longest run of items handed to the pool under one lock.
  static constexpr size_t MaxRun = 16;

  unsigned Workers;
  size_t Batch;
};

template <class Item>
template <class PullFn, class MakeFn, class AdmitFn, class SettleFn,
          class EmitFn, class FillFn>
void OrderedWindow<Item>::run(PullFn &&Pull, MakeFn &&Make, AdmitFn &&Admit,
                              SettleFn &&Settle, EmitFn &&Emit,
                              FillFn &&Fill) const {
  constexpr bool Staged = !std::is_same_v<std::decay_t<MakeFn>, NoMake>;
  auto MakeItem = [&](Item &I) {
    if constexpr (Staged)
      Make(I);
  };

  if (Workers == 1) {
    // Inline: fill a window of Batch admitted items, reusing a dropped
    // item's slot for the next pull, then settle them all and emit them
    // in order.
    std::vector<Item> Slots;
    Slots.reserve(Batch);
    for (bool More = true; More;) {
      size_t Kept = 0;
      Fill([&] {
        while (Kept < Batch) {
          if (Slots.size() == Kept)
            Slots.emplace_back();
          Item &I = Slots[Kept];
          if (!Pull(I)) {
            More = false;
            break;
          }
          MakeItem(I);
          Kept += Admit(I) ? 1 : 0;
        }
      });
      for (size_t K = 0; K < Kept; ++K)
        Settle(Slots[K]);
      for (size_t K = 0; K < Kept; ++K)
        if (!Emit(Slots[K]))
          return;
    }
    return;
  }

  /// One slot of the window. Its address is fixed for the whole stream,
  /// so a worker steps its item without the lock.
  struct Slot {
    Item Value;
    // Under Lock: set by the worker that made or settled the item, with
    // what that step threw.
    bool Made = false;
    bool Settled = false;
    std::exception_ptr Failure;
    // The calling thread's own.
    bool Dropped = false;
  };
  const size_t Size = Workers * Batch;
  const size_t Run = std::min(Batch, MaxRun);
  // Reserved whole and grown to Size during the first pass, then reused.
  std::vector<Slot> Ring;
  Ring.reserve(Size);
  auto At = [&](size_t Seq) -> Slot & { return Ring[Seq % Size]; };

  // Shared with the pool, under Lock: both queues, every slot's Made,
  // Settled and Failure, the slots the calling thread sleeps on, whether
  // it sleeps, the idle workers and the stop request.
  std::mutex Lock;
  std::condition_variable Queued, Finished;
  std::deque<Slot *> Makes, Settles;
  const Slot *AwaitMake = nullptr, *AwaitSettle = nullptr;
  bool Waiting = false, Stop = false;
  unsigned Idle = 0;
  auto Work = [&] {
    std::unique_lock<std::mutex> L(Lock);
    while (true) {
      if (Makes.empty() && Settles.empty()) {
        // Out of work: the calling thread may be holding back a short run.
        ++Idle;
        if (Waiting)
          Finished.notify_one();
        Queued.wait(L, [&] {
          return Stop || !Makes.empty() || !Settles.empty();
        });
        --Idle;
      }
      if (Stop)
        return;
      const bool IsMake = !Makes.empty();
      std::deque<Slot *> &Queue = IsMake ? Makes : Settles;
      Slot *S = Queue.front();
      Queue.pop_front();
      // One wake per run: each woken worker wakes the next while work is
      // left.
      if (Idle && !(Makes.empty() && Settles.empty()))
        Queued.notify_one();
      L.unlock();
      std::exception_ptr Failure;
      try {
        if (IsMake)
          MakeItem(S->Value);
        else
          Settle(S->Value);
      } catch (...) {
        Failure = std::current_exception();
      }
      L.lock();
      S->Failure = std::move(Failure);
      (IsMake ? S->Made : S->Settled) = true;
      if (S == AwaitMake || S == AwaitSettle)
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

  // The calling thread's frontiers, as sequence numbers: Emitted <=
  // Settled <= Admitted <= Made <= Pulled <= Emitted + Size, where Made
  // and Settled are the prefixes known done at the last look under Lock.
  size_t Pulled = 0, Made = 0, Admitted = 0, Settled = 0, Emitted = 0;
  bool Drained = false;
  // Items not yet handed to the pool: a run is handed over when full, and
  // what is left before the calling thread sleeps.
  std::vector<Slot *> NewMakes, NewSettles;
  auto Hand = [&](std::vector<Slot *> &Items, std::deque<Slot *> &Queue) {
    if (Items.empty())
      return;
    while (Pool.size() < Workers)
      Pool.emplace_back(Work);
    {
      std::lock_guard<std::mutex> L(Lock);
      Queue.insert(Queue.end(), Items.begin(), Items.end());
    }
    Queued.notify_one();
    Items.clear();
  };
  auto AdmitNext = [&] {
    Slot &S = At(Admitted++);
    if (S.Failure)
      std::rethrow_exception(S.Failure);
    if (!Admit(S.Value)) {
      S.Dropped = true;
      return;
    }
    NewSettles.push_back(&S);
    if (NewSettles.size() == Run)
      Hand(NewSettles, Settles);
  };
  // The slot to sleep on for the run of Want items from First, of which
  // the prefix up to Known is done: its last slot, then each straggler.
  auto Awaited = [&](size_t First, size_t Want, size_t Known, auto Done) {
    const Slot &Last = At(First + Want - 1);
    return Done(Last) ? &At(Known) : &Last;
  };

  try {
    while (true) {
      if (Made > Admitted || (!Drained && Pulled - Emitted < Size))
        Fill([&] {
          while (!Drained && Pulled - Emitted < Size) {
            if (Ring.size() == Pulled && Pulled < Size)
              Ring.emplace_back();
            Slot &S = At(Pulled);
            S.Made = S.Settled = S.Dropped = false;
            if (!Pull(S.Value)) {
              Drained = true;
              break;
            }
            ++Pulled;
            if constexpr (Staged) {
              NewMakes.push_back(&S);
              if (NewMakes.size() == Run)
                Hand(NewMakes, Makes);
            } else {
              Made = Pulled;
              AdmitNext();
            }
          }
          while (Admitted < Made)
            AdmitNext();
        });
      bool Stopped = false;
      while (!Stopped && Emitted < Settled) {
        Slot &S = At(Emitted++);
        if (S.Dropped)
          continue;
        if (S.Failure)
          std::rethrow_exception(S.Failure);
        Stopped = !Emit(S.Value);
      }
      if (Stopped || (Drained && Emitted == Pulled))
        break;
      if (!Drained && Pulled - Emitted < Size)
        continue;

      // The window is full or drained: look for a batch to admit or emit,
      // or for partial ones once a worker idles, and sleep until then.
      std::unique_lock<std::mutex> L(Lock);
      while (true) {
        while (Made < Pulled && At(Made).Made)
          ++Made;
        while (Settled < Admitted &&
               (At(Settled).Dropped || At(Settled).Settled))
          ++Settled;
        const size_t WantAdmit = std::min(Batch, Pulled - Admitted);
        const size_t WantEmit = std::min(Batch, Admitted - Emitted);
        const size_t ReadyAdmit = Made - Admitted;
        const size_t ReadyEmit = Settled - Emitted;
        if ((ReadyAdmit && (ReadyAdmit >= WantAdmit || Idle)) ||
            (ReadyEmit && (ReadyEmit >= WantEmit || Idle)))
          break;
        if (!NewMakes.empty() || !NewSettles.empty()) {
          // Hand over the short runs before sleeping, and look again.
          L.unlock();
          Hand(NewMakes, Makes);
          Hand(NewSettles, Settles);
          L.lock();
          continue;
        }
        AwaitMake = WantAdmit ? Awaited(Admitted, WantAdmit, Made,
                                        [](const Slot &S) { return S.Made; })
                              : nullptr;
        AwaitSettle =
            WantEmit ? Awaited(Emitted, WantEmit, Settled,
                               [](const Slot &S) {
                                 return S.Dropped || S.Settled;
                               })
                     : nullptr;
        Waiting = true;
        Finished.wait(L);
        Waiting = false;
      }
      AwaitMake = AwaitSettle = nullptr;
    }
  } catch (...) {
    StopPool();
    throw;
  }
  StopPool();
}

} // namespace cats

#endif // CATS_SUPPORT_ORDEREDWINDOW_H
