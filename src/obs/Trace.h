//===- Trace.h - RAII spans flushed as Chrome trace events ----*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tracing half of the observability subsystem: scoped Span objects
/// append begin/end ("B"/"E") events to a per-thread buffer, and the whole
/// process flushes as one Chrome trace-event JSON document that loads in
/// Perfetto or chrome://tracing (docs/observability.md shows the schema
/// and a loading walkthrough).
///
/// Spans cover coarse phases — sweep pulls and jobs, compile/judge
/// splits, repair lattice rounds, run-harness phases, diy enumeration —
/// never per-candidate work, so the cost of an enabled trace is a handful
/// of events per test. When tracing is disabled (the default) constructing
/// a Span is one relaxed bool load.
///
/// Buffers are owned by a global registry (threads register on first use
/// and their events outlive them), so flushing after the worker pools have
/// joined sees every event; RAII guarantees B/E balance per thread.
///
//===----------------------------------------------------------------------===//

#ifndef CATS_OBS_TRACE_H
#define CATS_OBS_TRACE_H

#include "sweep/Json.h"

#include <string>

namespace cats {
namespace obs {

/// Global tracing switch; relaxed load, false by default.
bool traceEnabled();
void setTraceEnabled(bool Enabled);

/// Discards every buffered event (tests; threads stay registered).
void resetTrace();

/// A traced scope. Emits a "B" event at construction and the matching "E"
/// at destruction into the calling thread's buffer; does nothing when
/// tracing is off at construction time.
class Span {
public:
  explicit Span(std::string Name);
  ~Span();

  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  bool Active;
  std::string Name;
};

/// All buffered events as a Chrome trace-event document:
///
///   {"traceEvents": [{"name": ..., "cat": "cats", "ph": "B"|"E",
///                     "ts": <microseconds>, "pid": 1, "tid": N}, ...],
///    "displayTimeUnit": "ms"}
///
/// Events are ordered per thread (tid) in emission order; timestamps are
/// microseconds from the first instrumented instant of the process.
JsonValue traceToJson();

/// Writes traceToJson()'s document to \p Path, rendering one event at a
/// time; returns false and fills \p Error on I/O failure.
bool writeTrace(const std::string &Path, std::string &Error);

} // namespace obs
} // namespace cats

#endif // CATS_OBS_TRACE_H
