//===- Trace.cpp - RAII spans flushed as Chrome trace events --------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

using namespace cats;
using namespace cats::obs;

namespace {

std::atomic<bool> Enabled{false};

struct TraceEvent {
  std::string Name; // repeated on "E" so Perfetto matches pairs by name
  char Phase;       // 'B' or 'E'
  double TsUs;
};

/// One buffer per thread. Appends come only from the owning thread; the
/// per-buffer mutex exists so a flush can run while other threads are
/// still live (e.g. the main thread dumping after a pool has joined).
struct ThreadBuffer {
  std::mutex Mutex;
  unsigned Tid;
  std::vector<TraceEvent> Events;
};

struct TraceState {
  std::mutex Mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> Buffers;
};

TraceState &state() {
  static TraceState S;
  return S;
}

/// Microseconds since the first instrumented instant of the process.
double nowUs() {
  static const auto Start = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

ThreadBuffer &threadBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> Buffer = [] {
    auto B = std::make_shared<ThreadBuffer>();
    TraceState &S = state();
    std::lock_guard<std::mutex> Lock(S.Mutex);
    B->Tid = static_cast<unsigned>(S.Buffers.size()) + 1;
    S.Buffers.push_back(B);
    return B;
  }();
  return *Buffer;
}

void append(std::string Name, char Phase) {
  const double Ts = nowUs();
  ThreadBuffer &B = threadBuffer();
  std::lock_guard<std::mutex> Lock(B.Mutex);
  B.Events.push_back(TraceEvent{std::move(Name), Phase, Ts});
}

} // namespace

bool obs::traceEnabled() { return Enabled.load(std::memory_order_relaxed); }

void obs::setTraceEnabled(bool E) {
  if (E)
    nowUs(); // pin the epoch no later than enabling
  Enabled.store(E, std::memory_order_relaxed);
}

void obs::resetTrace() {
  TraceState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mutex);
  for (auto &B : S.Buffers) {
    std::lock_guard<std::mutex> BufferLock(B->Mutex);
    B->Events.clear();
  }
}

Span::Span(std::string NameIn) : Active(traceEnabled()) {
  if (Active) {
    Name = std::move(NameIn);
    append(Name, 'B');
  }
}

Span::~Span() {
  if (Active)
    append(std::move(Name), 'E');
}

namespace {

/// One buffered event as its trace-event object.
JsonValue eventToJson(const TraceEvent &E, unsigned Tid) {
  JsonValue Event = JsonValue::object();
  Event.set("name", E.Name);
  Event.set("cat", "cats");
  Event.set("ph", std::string(1, E.Phase));
  Event.set("ts", E.TsUs);
  Event.set("pid", 1);
  Event.set("tid", Tid);
  return Event;
}

/// Calls \p Fn(Event, Tid) for every buffered event, thread by thread.
template <class Fn> void forEachEvent(Fn &&F) {
  TraceState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mutex);
  for (const auto &B : S.Buffers) {
    std::lock_guard<std::mutex> BufferLock(B->Mutex);
    for (const TraceEvent &E : B->Events)
      F(E, B->Tid);
  }
}

} // namespace

JsonValue obs::traceToJson() {
  JsonValue Events = JsonValue::array();
  forEachEvent([&](const TraceEvent &E, unsigned Tid) {
    Events.push(eventToJson(E, Tid));
  });
  JsonValue Root = JsonValue::object();
  Root.set("traceEvents", std::move(Events));
  Root.set("displayTimeUnit", "ms");
  return Root;
}

bool obs::writeTrace(const std::string &Path, std::string &Error) {
  std::ofstream Out(Path);
  if (!Out) {
    Error = "cannot write " + Path;
    return false;
  }
  // traceToJson()'s document, one event at a time: a long run's trace
  // never exists whole in memory as a tree.
  Out << "{\"traceEvents\": [";
  const char *Separator = "\n";
  forEachEvent([&](const TraceEvent &E, unsigned Tid) {
    Out << Separator << eventToJson(E, Tid).dump(0);
    Separator = ",\n";
  });
  Out << "\n], \"displayTimeUnit\": \"ms\"}\n";
  if (!Out.flush()) {
    Error = "short write to " + Path;
    return false;
  }
  return true;
}
