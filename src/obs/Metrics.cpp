//===- Metrics.cpp - Sharded counters and histograms ----------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include "support/StringUtils.h"

#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>

using namespace cats;
using namespace cats::obs;

namespace {

std::atomic<bool> Enabled{false};

/// Name -> instrument maps. std::map keeps the JSON dumps sorted and the
/// node-based storage keeps instrument addresses stable across inserts.
/// The registry mutex only guards lookup/creation — never the hot add().
struct RegistryState {
  std::mutex Mutex;
  std::map<std::string, std::unique_ptr<Counter>> Counters;
  std::map<std::string, std::unique_ptr<Histogram>> Histograms;
};

RegistryState &registry() {
  static RegistryState State;
  return State;
}

} // namespace

bool obs::metricsEnabled() {
  return Enabled.load(std::memory_order_relaxed);
}

void obs::setMetricsEnabled(bool E) {
  Enabled.store(E, std::memory_order_relaxed);
}

unsigned Counter::shardIndex() {
  static std::atomic<unsigned> NextThread{0};
  thread_local unsigned Index =
      NextThread.fetch_add(1, std::memory_order_relaxed) % NumShards;
  return Index;
}

Counter &obs::counter(const std::string &Name) {
  RegistryState &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  auto &Slot = R.Counters[Name];
  if (!Slot)
    Slot = std::make_unique<Counter>();
  return *Slot;
}

Histogram &obs::histogram(const std::string &Name) {
  RegistryState &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  auto &Slot = R.Histograms[Name];
  if (!Slot)
    Slot = std::make_unique<Histogram>();
  return *Slot;
}

void obs::resetMetrics() {
  RegistryState &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  for (auto &[Name, C] : R.Counters)
    C->reset();
  for (auto &[Name, H] : R.Histograms)
    H->reset();
}

namespace {

/// Replaces the one sample of "process.peak_rss_kb" with the process's
/// peak resident set now, in KB: "VmHWM" of /proc/self/status, which
/// counts this process alone (getrusage's ru_maxrss also holds the peak
/// of the process that spawned it). Nothing where that cannot be read.
void samplePeakRss() {
  std::ifstream Status("/proc/self/status");
  for (std::string Line; std::getline(Status, Line);)
    if (Line.rfind("VmHWM:", 0) == 0) {
      Histogram &Peak = obs::histogram("process.peak_rss_kb");
      Peak.reset();
      Peak.record(std::strtoull(Line.c_str() + 6, nullptr, 10));
      return;
    }
}

} // namespace

JsonValue obs::metricsToJson() {
  samplePeakRss();
  RegistryState &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  JsonValue Root = JsonValue::object();
  Root.set("schema", "cats-metrics/1");
  JsonValue Counters = JsonValue::object();
  for (const auto &[Name, C] : R.Counters)
    if (unsigned long long V = C->value())
      Counters.set(Name, V);
  Root.set("counters", std::move(Counters));
  JsonValue Histograms = JsonValue::object();
  for (const auto &[Name, H] : R.Histograms) {
    if (H->count() == 0)
      continue;
    JsonValue Hist = JsonValue::object();
    Hist.set("count", H->count());
    Hist.set("sum", H->sum());
    JsonValue Buckets = JsonValue::array();
    for (unsigned B = 0; B < Histogram::NumBuckets; ++B) {
      if (unsigned long long N = H->bucket(B)) {
        JsonValue Pair = JsonValue::array();
        Pair.push(B);
        Pair.push(N);
        Buckets.push(std::move(Pair));
      }
    }
    Hist.set("buckets", std::move(Buckets));
    Histograms.set(Name, std::move(Hist));
  }
  Root.set("histograms", std::move(Histograms));
  return Root;
}

namespace {

bool wrongShape(const JsonValue &Doc, std::string &Error) {
  const JsonValue *Schema = Doc.get("schema");
  if (!Doc.isObject() || !Schema || !Schema->isString() ||
      Schema->asString() != "cats-metrics/1") {
    Error = "not a cats-metrics/1 object";
    return true;
  }
  return false;
}

unsigned long long numberOf(const JsonValue *V) {
  return V && V->isNumber() ? static_cast<unsigned long long>(V->asNumber())
                            : 0;
}

} // namespace

bool obs::mergeMetricsJson(JsonValue &Into, const JsonValue &From,
                           std::string &Error) {
  if (wrongShape(Into, Error) || wrongShape(From, Error))
    return false;

  // Counters: plain sums. Rebuild the object so merged keys stay sorted
  // regardless of the insertion order of the inputs.
  std::map<std::string, unsigned long long> Counters;
  for (const JsonValue *Doc :
       {static_cast<const JsonValue *>(&Into), &From})
    if (const JsonValue *C = Doc->get("counters")) {
      if (!C->isObject()) {
        Error = "'counters' is not an object";
        return false;
      }
      for (const auto &[Name, V] : C->members())
        Counters[Name] += numberOf(&V);
    }

  // Histograms: count/sum add, buckets merge by index.
  struct Hist {
    unsigned long long Count = 0, Sum = 0;
    std::map<unsigned long long, unsigned long long> Buckets;
  };
  std::map<std::string, Hist> Histograms;
  for (const JsonValue *Doc :
       {static_cast<const JsonValue *>(&Into), &From})
    if (const JsonValue *Hs = Doc->get("histograms")) {
      if (!Hs->isObject()) {
        Error = "'histograms' is not an object";
        return false;
      }
      for (const auto &[Name, V] : Hs->members()) {
        if (!V.isObject()) {
          Error = strFormat("histogram '%s' is not an object", Name.c_str());
          return false;
        }
        Hist &H = Histograms[Name];
        H.Count += numberOf(V.get("count"));
        H.Sum += numberOf(V.get("sum"));
        if (const JsonValue *Buckets = V.get("buckets")) {
          if (!Buckets->isArray()) {
            Error = strFormat("histogram '%s' buckets is not an array",
                              Name.c_str());
            return false;
          }
          for (const JsonValue &Pair : Buckets->elements()) {
            if (!Pair.isArray() || Pair.elements().size() != 2) {
              Error = strFormat("histogram '%s' has a malformed bucket",
                                Name.c_str());
              return false;
            }
            H.Buckets[numberOf(&Pair.elements()[0])] +=
                numberOf(&Pair.elements()[1]);
          }
        }
      }
    }

  JsonValue Root = JsonValue::object();
  Root.set("schema", "cats-metrics/1");
  JsonValue OutCounters = JsonValue::object();
  for (const auto &[Name, V] : Counters)
    if (V)
      OutCounters.set(Name, V);
  Root.set("counters", std::move(OutCounters));
  JsonValue OutHistograms = JsonValue::object();
  for (const auto &[Name, H] : Histograms) {
    if (H.Count == 0)
      continue;
    JsonValue Hist = JsonValue::object();
    Hist.set("count", H.Count);
    Hist.set("sum", H.Sum);
    JsonValue Buckets = JsonValue::array();
    for (const auto &[B, N] : H.Buckets) {
      if (!N)
        continue;
      JsonValue Pair = JsonValue::array();
      Pair.push(B);
      Pair.push(N);
      Buckets.push(std::move(Pair));
    }
    Hist.set("buckets", std::move(Buckets));
    OutHistograms.set(Name, std::move(Hist));
  }
  Root.set("histograms", std::move(OutHistograms));
  Into = std::move(Root);
  return true;
}

std::string obs::metricsToText() {
  samplePeakRss();
  RegistryState &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  std::string Out;
  for (const auto &[Name, C] : R.Counters)
    if (unsigned long long V = C->value())
      Out += strFormat("%-44s %12llu\n", Name.c_str(), V);
  for (const auto &[Name, H] : R.Histograms) {
    unsigned long long Count = H->count();
    if (!Count)
      continue;
    Out += strFormat("%-44s %12llu  sum %llu  mean %.1f\n", Name.c_str(),
                     Count, H->sum(),
                     static_cast<double>(H->sum()) /
                         static_cast<double>(Count));
  }
  return Out;
}
