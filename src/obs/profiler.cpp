// tdmd-lint: hot-path — no iostream formatting, rand, or
// system_clock::now in this file (tools/tdmd_lint rule hot-path).  The
// SIGPROF handler and the span-entry hooks below run at sampling rate on
// every instrumented thread.
#include "obs/profiler.hpp"

#include <algorithm>
#include <atomic>
#include <ostream>
#include <unordered_map>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define TDMD_PROFILER_HAVE_SIGPROF 1
#include <csignal>
#include <sys/time.h>
#else
#define TDMD_PROFILER_HAVE_SIGPROF 0
#endif

namespace tdmd::obs {

namespace {

// The handler stores ring slots through atomic_ref, which is
// async-signal-safe only when lock-free.
static_assert(std::atomic_ref<std::uint64_t>::is_always_lock_free);

std::atomic<Profiler*> g_current_profiler{nullptr};

// Generation of the installed profiler (0 = none).  The per-thread ring
// cache is keyed by it, so a thread whose cached ring belongs to a
// previous profiler re-registers instead of writing through a stale
// pointer; generations are never reused, so there is no ABA window.
std::atomic<std::uint64_t> g_profiler_counter{0};
std::atomic<std::uint64_t> g_installed_generation{0};

// Handlers currently inside the sampling body.  Uninstall stores nullptr
// and spins until this reaches zero, so the profiler's rings are never
// touched by a handler after InstallProfiler(nullptr) returns.
std::atomic<std::uint32_t> g_active_samplers{0};

// Totals of the last uninstalled profiler, latched by InstallProfiler so
// post-run metrics scrapes keep seeing real counts (a live profiler's
// counters take precedence in ProfileDropTotal/ProfileSampleTotal).
std::atomic<std::uint64_t> g_last_prof_drop_total{0};
std::atomic<std::uint64_t> g_last_prof_sample_total{0};

// --- thread-local state read by the signal handler ----------------------
//
// Both structs are trivial PODs in (effectively) local-exec TLS: the
// handler may read them at any instruction boundary of the owning thread,
// so every write is ordered with std::atomic_signal_fence and no access
// allocates.  The stack keeps the outermost kMaxProfiledDepth frames;
// depth keeps counting past the cap so push/pop stay balanced.

struct PhaseStackTls {
  std::uint32_t depth = 0;
  std::uint8_t phases[kMaxProfiledDepth] = {};
};

struct ProfRingCache {
  std::uint64_t generation = 0;
  void* ring = nullptr;
};

thread_local PhaseStackTls t_phase_stack;
thread_local ProfRingCache t_prof_cache;

}  // namespace

namespace internal {

// Defined below ProfilerAccess; bridges the span-entry slow path (normal
// context, may allocate) to the profiler's private ring registration.
void* ProfilerRegisterThreadRing(Profiler& profiler) noexcept;

void ProfilerSpanEnter(TracePhase phase) noexcept {
  PhaseStackTls& stack = t_phase_stack;
  const std::uint32_t depth = stack.depth;
  if (depth < kMaxProfiledDepth) {
    stack.phases[depth] = static_cast<std::uint8_t>(phase);
    // The handler reads depth first, then phases[0..depth): publish the
    // frame before bumping depth so it never observes an unwritten slot.
    std::atomic_signal_fence(std::memory_order_release);
  }
  stack.depth = depth + 1;
  const std::uint64_t generation =
      g_installed_generation.load(std::memory_order_relaxed);
  if (generation != 0 && t_prof_cache.generation != generation) {
    // Slow path, normal context: register this thread's sample ring (the
    // handler itself must never allocate).  The profiler outlives
    // instrumented threads per the lifecycle contract, so the pointer
    // loaded here is safe to dereference.
    Profiler* profiler = g_current_profiler.load(std::memory_order_acquire);
    if (profiler != nullptr) {
      void* ring = ProfilerRegisterThreadRing(*profiler);
      if (ring != nullptr) {
        t_prof_cache.ring = ring;
        // Publish the ring before the generation the handler keys on.
        std::atomic_signal_fence(std::memory_order_release);
        t_prof_cache.generation = generation;
      }
    }
  }
}

void ProfilerSpanExit() noexcept {
  PhaseStackTls& stack = t_phase_stack;
  // Order the pop after everything the span did, so a sample taken inside
  // the span never sees a shallower stack than the code position implies.
  std::atomic_signal_fence(std::memory_order_release);
  if (stack.depth > 0) {
    stack.depth -= 1;
  }
}

}  // namespace internal

// Grants the file-local handler machinery access to Profiler internals
// without widening the public API.
struct ProfilerAccess {
  static Profiler::Ring* Register(Profiler& profiler) {
    return profiler.ThreadRing();
  }

  static std::uint64_t Generation(const Profiler& profiler) {
    return profiler.generation_;
  }

  // Async-signal-safe: packs the interrupted thread's phase stack into one
  // 64-bit word and appends it to the cached ring (overwrite-oldest).
  static void SampleCurrentThread(Profiler& profiler) noexcept {
    if (t_prof_cache.generation != profiler.generation_ ||
        t_prof_cache.ring == nullptr) {
      profiler.orphaned_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const std::uint32_t raw_depth = t_phase_stack.depth;
    std::atomic_signal_fence(std::memory_order_acquire);
    const std::uint32_t depth = std::min(
        raw_depth, static_cast<std::uint32_t>(kMaxProfiledDepth));
    std::uint64_t packed = depth;
    for (std::uint32_t i = 0; i < depth; ++i) {
      packed |= static_cast<std::uint64_t>(t_phase_stack.phases[i])
                << (8U * (i + 1));
    }
    auto* ring = static_cast<Profiler::Ring*>(t_prof_cache.ring);
    const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
    std::atomic_ref<std::uint64_t>(ring->slots[head % ring->capacity])
        .store(packed, std::memory_order_relaxed);
    ring->head.store(head + 1, std::memory_order_relaxed);
  }
};

namespace {

#if TDMD_PROFILER_HAVE_SIGPROF

void SigprofHandler(int /*signum*/) {
  Profiler* profiler = g_current_profiler.load(std::memory_order_acquire);
  if (profiler == nullptr) {
    return;
  }
  g_active_samplers.fetch_add(1, std::memory_order_acquire);
  // Re-check under the refcount: uninstall stores nullptr first and then
  // spins on g_active_samplers, so a handler that passes this check may
  // safely touch the profiler until it decrements.
  if (g_current_profiler.load(std::memory_order_relaxed) == profiler) {
    ProfilerAccess::SampleCurrentThread(*profiler);
  }
  g_active_samplers.fetch_sub(1, std::memory_order_release);
}

void ArmSampling(std::uint32_t sample_hz) {
  struct sigaction action = {};
  action.sa_handler = &SigprofHandler;
  sigemptyset(&action.sa_mask);
  // SA_RESTART so sampled syscalls (file writes between epochs) resume
  // instead of surfacing EINTR to un-audited call sites.
  action.sa_flags = SA_RESTART;
  sigaction(SIGPROF, &action, nullptr);
  itimerval timer = {};
  const long interval_us =
      sample_hz == 0 ? 0 : static_cast<long>(1000000 / sample_hz);
  timer.it_interval.tv_usec = interval_us > 0 ? interval_us : 1;
  timer.it_value = timer.it_interval;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

void DisarmSampling() {
  itimerval timer = {};
  setitimer(ITIMER_PROF, &timer, nullptr);
  // The handler stays installed (it is inert while no profiler is
  // current); restoring the previous action here would race a pending
  // in-flight SIGPROF.
}

#else  // !TDMD_PROFILER_HAVE_SIGPROF

void ArmSampling(std::uint32_t /*sample_hz*/) {}
void DisarmSampling() {}

#endif

}  // namespace

namespace internal {

void* ProfilerRegisterThreadRing(Profiler& profiler) noexcept {
  return ProfilerAccess::Register(profiler);
}

}  // namespace internal

Profiler::Profiler() : Profiler(Options{}) {}

Profiler::Profiler(Options options)
    : options_(Options{options.sample_hz == 0 ? kDefaultSampleHz
                                              : options.sample_hz,
                       options.ring_capacity == 0 ? 1
                                                  : options.ring_capacity}),
      generation_(
          g_profiler_counter.fetch_add(1, std::memory_order_relaxed) + 1) {}

Profiler::~Profiler() = default;

Profiler::Ring* Profiler::ThreadRing() {
  MutexLock lock(rings_mu_);
  rings_.push_back(std::make_unique<Ring>(options_.ring_capacity));
  Ring& ring = *rings_.back();
  ring.tid = static_cast<std::uint32_t>(rings_.size() - 1);
  return &ring;
}

std::uint64_t Profiler::DroppedTotal() {
  MutexLock lock(rings_mu_);
  std::uint64_t dropped = drained_drops_;
  for (const auto& ring : rings_) {
    const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
    const std::uint64_t capacity = ring->capacity;
    dropped += head > capacity ? head - capacity : 0;
  }
  return dropped;
}

std::uint64_t Profiler::SampleTotal() {
  MutexLock lock(rings_mu_);
  std::uint64_t samples =
      drained_samples_ + orphaned_.load(std::memory_order_relaxed);
  for (const auto& ring : rings_) {
    samples += ring->head.load(std::memory_order_relaxed);
  }
  return samples;
}

ProfDrainResult Profiler::Drain() {
  ProfDrainResult result;
  result.sample_hz = options_.sample_hz;
  result.orphaned = orphaned_.load(std::memory_order_relaxed);
  std::unordered_map<std::uint64_t, std::uint64_t> aggregated;
  MutexLock lock(rings_mu_);
  result.num_threads = rings_.size();
  for (const auto& ring : rings_) {
    const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
    const std::uint64_t capacity = ring->capacity;
    const std::uint64_t count = head < capacity ? head : capacity;
    const std::uint64_t begin = head - count;
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t packed =
          std::atomic_ref<std::uint64_t>(ring->slots[(begin + i) % capacity])
              .load(std::memory_order_relaxed);
      ++aggregated[packed];
    }
    result.samples += count;
    drained_drops_ += head > capacity ? head - capacity : 0;
    drained_samples_ += head;
    ring->head.store(0, std::memory_order_relaxed);
  }
  result.dropped = drained_drops_;
  result.stacks.reserve(aggregated.size());
  for (const auto& [packed, count] : aggregated) {
    ProfStack stack;
    stack.count = count;
    const std::uint32_t depth =
        static_cast<std::uint32_t>(packed & 0xFFU);
    stack.phases.reserve(depth);
    for (std::uint32_t i = 0; i < depth; ++i) {
      stack.phases.push_back(
          static_cast<TracePhase>((packed >> (8U * (i + 1))) & 0xFFU));
    }
    result.stacks.push_back(std::move(stack));
  }
  std::sort(result.stacks.begin(), result.stacks.end(),
            [](const ProfStack& a, const ProfStack& b) {
              return a.count > b.count;
            });
  return result;
}

void InstallProfiler(Profiler* profiler) {
  Profiler* outgoing = g_current_profiler.load(std::memory_order_acquire);
  if (outgoing == profiler) {
    return;
  }
  if (outgoing != nullptr) {
    internal::SetObsHook(internal::kHookProfiler, false);
    g_installed_generation.store(0, std::memory_order_relaxed);
    DisarmSampling();
    g_current_profiler.store(nullptr, std::memory_order_release);
    // A handler that re-checked before the store may still be sampling;
    // wait for it to retire so the outgoing rings are quiesced.
    while (g_active_samplers.load(std::memory_order_acquire) != 0) {
    }
    g_last_prof_drop_total.store(outgoing->DroppedTotal(),
                                 std::memory_order_relaxed);
    g_last_prof_sample_total.store(outgoing->SampleTotal(),
                                   std::memory_order_relaxed);
  }
  if (profiler != nullptr) {
    g_current_profiler.store(profiler, std::memory_order_release);
    g_installed_generation.store(ProfilerAccess::Generation(*profiler),
                                 std::memory_order_relaxed);
    internal::SetObsHook(internal::kHookProfiler, true);
    ArmSampling(profiler->sample_hz());
  }
}

Profiler* CurrentProfiler() {
  return g_current_profiler.load(std::memory_order_acquire);
}

std::uint64_t ProfileDropTotal() {
  if (Profiler* profiler = CurrentProfiler(); profiler != nullptr) {
    return profiler->DroppedTotal();
  }
  return g_last_prof_drop_total.load(std::memory_order_relaxed);
}

std::uint64_t ProfileSampleTotal() {
  if (Profiler* profiler = CurrentProfiler(); profiler != nullptr) {
    return profiler->SampleTotal();
  }
  return g_last_prof_sample_total.load(std::memory_order_relaxed);
}

void WriteCollapsedProfile(std::ostream& os,
                           const ProfDrainResult& drained) {
  os << "# tdmd-prof samples=" << drained.samples
     << " dropped=" << drained.dropped << " orphaned=" << drained.orphaned
     << " threads=" << drained.num_threads << " hz=" << drained.sample_hz
     << "\n";
  for (const ProfStack& stack : drained.stacks) {
    if (stack.phases.empty()) {
      os << "(unattributed)";
    } else {
      bool first = true;
      for (const TracePhase phase : stack.phases) {
        if (!first) {
          os << ";";
        }
        first = false;
        os << TracePhaseName(phase);
      }
    }
    os << " " << stack.count << "\n";
  }
}

}  // namespace tdmd::obs
