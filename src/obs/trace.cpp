// tdmd-lint: hot-path — no iostream formatting, rand, or
// system_clock::now in this file (tools/tdmd_lint rule hot-path).
#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <iomanip>
#include <istream>
#include <iterator>
#include <ostream>
#include <unordered_map>
#include <utility>

namespace tdmd::obs {

namespace {

std::atomic<Tracer*> g_current_tracer{nullptr};

// Monotonically increasing tracer id.  The per-thread ring cache is keyed by
// it, so a thread whose cached ring belongs to a destroyed tracer re-registers
// with the new one instead of writing through a stale pointer (generations are
// never reused, so there is no ABA window).
std::atomic<std::uint64_t> g_tracer_generation{0};

struct ThreadRingCache {
  std::uint64_t generation = 0;
  void* ring = nullptr;
};

thread_local ThreadRingCache t_ring_cache;

}  // namespace

const char* TracePhaseName(TracePhase phase) {
  switch (phase) {
    case TracePhase::kEpoch:
      return "epoch";
    case TracePhase::kIndexDelta:
      return "index-delta";
    case TracePhase::kPatch:
      return "patch";
    case TracePhase::kResolveAttempt:
      return "resolve-attempt";
    case TracePhase::kAdoption:
      return "adoption";
    case TracePhase::kBackoff:
      return "backoff";
    case TracePhase::kCheckpoint:
      return "checkpoint";
    case TracePhase::kRestore:
      return "restore";
    case TracePhase::kPoolTaskQueued:
      return "pool-task-queued";
    case TracePhase::kPoolTaskRun:
      return "pool-task-run";
    case TracePhase::kGtpRound:
      return "gtp-round";
    case TracePhase::kCelfPop:
      return "celf-pop";
    case TracePhase::kDpNodeMerge:
      return "dp-node-merge";
    case TracePhase::kHatExtract:
      return "hat-extract";
    case TracePhase::kQualitySample:
      return "quality-sample";
    case TracePhase::kQualityAlert:
      return "quality-alert";
    case TracePhase::kFleetSubmit:
      return "fleet-submit";
    case TracePhase::kQueueDwell:
      return "queue-dwell";
    case TracePhase::kBatchAdopted:
      return "batch-adopted";
    case TracePhase::kShardRecovery:
      return "shard-recovery";
    case TracePhase::kShedBatch:
      return "shed-batch";
  }
  return "unknown";
}

Tracer::Tracer(std::size_t ring_capacity)
    : ring_capacity_(ring_capacity == 0 ? 1 : ring_capacity),
      origin_ns_(MonotonicNanos()),
      generation_(g_tracer_generation.fetch_add(1,
                                                std::memory_order_relaxed) +
                  1) {}

Tracer::~Tracer() = default;

Tracer::Ring& Tracer::ThreadRing() {
  if (t_ring_cache.generation == generation_ &&
      t_ring_cache.ring != nullptr) {
    return *static_cast<Ring*>(t_ring_cache.ring);
  }
  MutexLock lock(rings_mu_);
  rings_.push_back(std::make_unique<Ring>());
  Ring& ring = *rings_.back();
  ring.tid = static_cast<std::uint32_t>(rings_.size() - 1);
  {
    // The ring is already reachable through rings_ (a concurrent Drain
    // iterating under rings_mu_ would block on our rings_mu_, but the
    // guarded-by contract is per member), so size its buffer under its
    // own lock.
    MutexLock ring_lock(ring.mu);
    ring.events.resize(ring_capacity_);
  }
  t_ring_cache.generation = generation_;
  t_ring_cache.ring = &ring;
  return ring;
}

void Tracer::Emit(TracePhase phase, bool is_span, std::uint64_t start_ns,
                  std::uint64_t duration_ns, std::uint64_t arg,
                  std::uint64_t batch) {
  Ring& ring = ThreadRing();
  MutexLock lock(ring.mu);
  TraceEvent& slot = ring.events[ring.next];
  slot.phase = phase;
  slot.is_span = is_span;
  slot.tid = ring.tid;
  slot.start_ns = start_ns;
  slot.duration_ns = duration_ns;
  slot.arg = arg;
  slot.batch = batch;
  ring.next = (ring.next + 1) % ring_capacity_;
  if (ring.size < ring_capacity_) {
    ++ring.size;
  } else {
    ++ring.overwritten;
  }
}

TraceDrainResult Tracer::Drain() {
  TraceDrainResult result;
  MutexLock rings_lock(rings_mu_);
  result.num_threads = rings_.size();
  for (const auto& ring_ptr : rings_) {
    Ring& ring = *ring_ptr;
    MutexLock lock(ring.mu);
    // Oldest-first: a full ring's oldest entry sits at the write cursor.
    const std::size_t begin =
        ring.size == ring_capacity_ ? ring.next : 0;
    for (std::size_t i = 0; i < ring.size; ++i) {
      result.events.push_back(ring.events[(begin + i) % ring_capacity_]);
    }
    result.dropped += ring.overwritten;
    ring.next = 0;
    ring.size = 0;
  }
  std::sort(result.events.begin(), result.events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start_ns != b.start_ns) {
                return a.start_ns < b.start_ns;
              }
              return a.tid < b.tid;
            });
  return result;
}

std::uint64_t Tracer::DroppedTotal() {
  std::uint64_t dropped = 0;
  MutexLock rings_lock(rings_mu_);
  for (const auto& ring_ptr : rings_) {
    MutexLock lock(ring_ptr->mu);
    dropped += ring_ptr->overwritten;
  }
  return dropped;
}

namespace {

// Drop total of the last uninstalled tracer, latched by InstallTracer so
// post-run metrics scrapes keep seeing the real count (a live tracer's
// counters take precedence in TraceDropTotal).
std::atomic<std::uint64_t> g_last_drop_total{0};

}  // namespace

namespace internal {

std::atomic<std::uint32_t> g_obs_hooks{0};

void SetObsHook(std::uint32_t bit, bool enabled) {
  if (enabled) {
    g_obs_hooks.fetch_or(bit, std::memory_order_relaxed);
  } else {
    g_obs_hooks.fetch_and(~bit, std::memory_order_relaxed);
  }
}

}  // namespace internal

void InstallTracer(Tracer* tracer) {
  if (Tracer* outgoing =
          g_current_tracer.load(std::memory_order_acquire);
      outgoing != nullptr && outgoing != tracer) {
    g_last_drop_total.store(outgoing->DroppedTotal(),
                            std::memory_order_relaxed);
  }
  g_current_tracer.store(tracer, std::memory_order_release);
  // Publish the pointer before flipping the hook bit, so a span that sees
  // the bit always finds the tracer behind it.
  internal::SetObsHook(internal::kHookTracer, tracer != nullptr);
}

Tracer* CurrentTracer() {
  return g_current_tracer.load(std::memory_order_acquire);
}

std::uint64_t TraceDropTotal() {
  if (Tracer* tracer = CurrentTracer(); tracer != nullptr) {
    return tracer->DroppedTotal();
  }
  return g_last_drop_total.load(std::memory_order_relaxed);
}

namespace {

void WriteChromeEvent(std::ostream& os, const TraceEvent& event) {
  os << "{\"name\":\"" << TracePhaseName(event.phase) << "\",\"ph\":\""
     << (event.is_span ? "X" : "i") << "\"";
  if (!event.is_span) {
    os << ",\"s\":\"t\"";
  }
  os << ",\"pid\":1,\"tid\":" << event.tid << ",\"ts\":"
     << static_cast<double>(event.start_ns) / 1000.0;
  if (event.is_span) {
    os << ",\"dur\":" << static_cast<double>(event.duration_ns) / 1000.0;
  }
  os << ",\"args\":{\"arg\":" << event.arg;
  if (event.batch != 0) {
    os << ",\"batch\":" << event.batch;
  }
  os << "}}";
}

/// One link of a batch's flow chain.  `ph` is 's' (start) on the batch's
/// first bound event, 't' (step) in the middle, 'f' (finish) on the last.
/// The viewer attaches a flow record to whichever slice on (pid, tid)
/// encloses its timestamp, so spans anchor at their midpoint; the finish
/// record binds to the enclosing slice ("bp":"e") per the trace_event
/// spec.  Keep this helper in src/obs: tools/tdmd_lint rule flow-event
/// bans flow-phase emission anywhere else.
void WriteChromeFlowEvent(std::ostream& os, const TraceEvent& event,
                          char ph) {
  const std::uint64_t anchor_ns =
      event.start_ns + (event.is_span ? event.duration_ns / 2 : 0);
  os << "{\"name\":\"batch\",\"cat\":\"batch\",\"ph\":\"" << ph
     << "\",\"id\":" << event.batch << ",\"pid\":1,\"tid\":" << event.tid
     << ",\"ts\":" << static_cast<double>(anchor_ns) / 1000.0;
  if (ph == 'f') {
    os << ",\"bp\":\"e\"";
  }
  os << "}";
}

}  // namespace

void WriteChromeTrace(std::ostream& os, const TraceDrainResult& drained) {
  const std::streamsize saved_precision = os.precision();
  const auto saved_flags = os.flags();
  os << std::fixed << std::setprecision(3);
  // First/last bound event per batch (events arrive time-sorted from
  // Drain), so each chain opens with "s", steps with "t", closes with "f".
  std::unordered_map<std::uint64_t, std::pair<std::size_t, std::size_t>>
      chains;
  for (std::size_t i = 0; i < drained.events.size(); ++i) {
    const std::uint64_t batch = drained.events[i].batch;
    if (batch == 0) continue;
    auto [it, fresh] = chains.try_emplace(batch, std::make_pair(i, i));
    if (!fresh) it->second.second = i;
  }
  os << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < drained.events.size(); ++i) {
    const TraceEvent& event = drained.events[i];
    os << (first ? "\n" : ",\n");
    first = false;
    WriteChromeEvent(os, event);
    if (event.batch == 0) continue;
    const auto& chain = chains.at(event.batch);
    const char ph = i == chain.first ? 's' : i == chain.second ? 'f' : 't';
    os << ",\n";
    WriteChromeFlowEvent(os, event, ph);
  }
  os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":\""
     << drained.dropped << "\"}}\n";
  os.flags(saved_flags);
  os.precision(saved_precision);
}

namespace {

// Narrow JSON helpers for ReadChromeTrace: they parse exactly the
// flat-object subset WriteChromeTrace emits, tolerating any key order.

/// Extracts the string value of `"key": "..."` from a flat JSON object.
/// Returns false if the key is absent.  Escapes are left untouched — the
/// trace writer only emits phase names, which contain none.
bool FindStringField(const std::string& object, const std::string& key,
                     std::string* value) {
  const std::string needle = "\"" + key + "\"";
  std::size_t pos = object.find(needle);
  if (pos == std::string::npos) {
    return false;
  }
  pos = object.find(':', pos + needle.size());
  if (pos == std::string::npos) {
    return false;
  }
  pos = object.find('"', pos + 1);
  if (pos == std::string::npos) {
    return false;
  }
  const std::size_t end = object.find('"', pos + 1);
  if (end == std::string::npos) {
    return false;
  }
  *value = object.substr(pos + 1, end - pos - 1);
  return true;
}

bool FindNumberField(const std::string& object, const std::string& key,
                     double* value) {
  const std::string needle = "\"" + key + "\"";
  const std::size_t pos = object.find(needle);
  if (pos == std::string::npos) {
    return false;
  }
  const std::size_t colon = object.find(':', pos + needle.size());
  if (colon == std::string::npos) {
    return false;
  }
  const char* start = object.c_str() + colon + 1;
  char* end = nullptr;
  *value = std::strtod(start, &end);
  return end != start;
}

/// Splits the top-level objects of a JSON array, honoring nested braces
/// and quoted strings.  `pos` must point just past the opening '['.
bool NextArrayObject(const std::string& text, std::size_t* pos,
                     std::string* object, bool* done) {
  std::size_t i = *pos;
  while (i < text.size() &&
         (text[i] == ',' || text[i] == ' ' || text[i] == '\n' ||
          text[i] == '\r' || text[i] == '\t')) {
    ++i;
  }
  if (i < text.size() && text[i] == ']') {
    *pos = i + 1;
    *done = true;
    return true;
  }
  if (i >= text.size() || text[i] != '{') {
    return false;
  }
  const std::size_t begin = i;
  int depth = 0;
  bool in_string = false;
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}') {
      --depth;
      if (depth == 0) {
        *object = text.substr(begin, i - begin + 1);
        *pos = i + 1;
        *done = false;
        return true;
      }
    }
  }
  return false;
}

/// Reads a non-negative integral u64 payload (args.arg / args.batch).
/// Packed args stay below 2^53, so the double round trip is exact.
bool FindU64Field(const std::string& object, const std::string& key,
                  std::uint64_t* value) {
  double parsed = 0.0;
  if (!FindNumberField(object, key, &parsed) || !(parsed >= 0.0) ||
      parsed >= 18446744073709551616.0) {
    return false;
  }
  *value = static_cast<std::uint64_t>(parsed);
  return true;
}

ChromeTrace FailTrace(const std::string& error) {
  ChromeTrace trace;
  trace.error = error;
  return trace;
}

}  // namespace

ChromeTrace ReadChromeTrace(std::istream& is) {
  const std::string text((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
  const std::size_t events_key = text.find("\"traceEvents\"");
  if (events_key == std::string::npos) {
    return FailTrace(
        "no \"traceEvents\" key — not a Chrome trace JSON file");
  }
  std::size_t pos = text.find('[', events_key);
  if (pos == std::string::npos) {
    return FailTrace("\"traceEvents\" is not followed by an array");
  }
  ++pos;

  ChromeTrace trace;
  for (;;) {
    std::string object;
    bool done = false;
    if (!NextArrayObject(text, &pos, &object, &done)) {
      return FailTrace("malformed traceEvents array (unbalanced object)");
    }
    if (done) {
      break;
    }
    ChromeTraceEvent event;
    std::string ph;
    if (!FindStringField(object, "name", &event.name) ||
        !FindStringField(object, "ph", &ph) ||
        !FindNumberField(object, "ts", &event.ts_us)) {
      return FailTrace("trace event missing name/ph/ts: " + object);
    }
    event.is_span = ph == "X";
    if (event.is_span && !FindNumberField(object, "dur", &event.dur_us)) {
      return FailTrace("complete event missing dur: " + object);
    }
    if (ph == "s" || ph == "t" || ph == "f") {
      continue;  // flow record
    }
    FindNumberField(object, "tid", &event.tid);
    event.has_arg = FindU64Field(object, "arg", &event.arg);
    FindU64Field(object, "batch", &event.batch);
    trace.events.push_back(std::move(event));
  }
  if (trace.events.empty()) {
    return FailTrace("trace contains no events");
  }
  // The writer records ring overwrites as otherData.dropped (a string).
  std::string dropped;
  const std::size_t other = text.find("\"otherData\"", pos);
  if (other != std::string::npos &&
      FindStringField(text.substr(other), "dropped", &dropped)) {
    trace.dropped = std::strtoull(dropped.c_str(), nullptr, 10);
  }
  trace.ok = true;
  return trace;
}

}  // namespace tdmd::obs
