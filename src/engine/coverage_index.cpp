// tdmd-lint: hot-path — no iostream formatting, rand, or
// system_clock::now in this file (tools/tdmd_lint rule hot-path).
#include "engine/coverage_index.hpp"

#include <algorithm>
#include <utility>

namespace tdmd::engine {

namespace {

constexpr std::uint32_t kSlotMask32 = 0xFFFFFFFFu;

/// FNV-1a over the path's vertex ids: deterministic (no addresses) and
/// cheap enough to run once per arrival.
std::uint64_t HashPath(std::span<const VertexId> path) {
  std::uint64_t hash = 0xCBF29CE484222325ull;
  for (VertexId v : path) {
    hash ^= static_cast<std::uint32_t>(v);
    hash *= 0x100000001B3ull;
  }
  return hash ^ (hash >> 32);
}

}  // namespace

std::span<const VertexId> ClassKeyedFlows::ClassPath(std::size_t c) const {
  TDMD_DCHECK(c < class_ends.size());
  const std::uint32_t begin = c == 0 ? 0 : class_ends[c - 1];
  return {vertices.data() + begin, class_ends[c] - begin};
}

std::uint32_t ClassKeyedFlows::AddClass(std::span<const VertexId> path) {
  vertices.insert(vertices.end(), path.begin(), path.end());
  class_ends.push_back(static_cast<std::uint32_t>(vertices.size()));
  return static_cast<std::uint32_t>(class_ends.size() - 1);
}

std::span<const VertexId> ArrivalBatch::Path(std::size_t i) const {
  TDMD_DCHECK(i < ends.size());
  const std::uint32_t begin = i == 0 ? 0 : ends[i - 1];
  return {vertices.data() + begin, ends[i] - begin};
}

void ArrivalBatch::Append(std::span<const VertexId> path, Rate rate) {
  vertices.insert(vertices.end(), path.begin(), path.end());
  ends.push_back(static_cast<std::uint32_t>(vertices.size()));
  rates.push_back(rate);
}

void ArrivalBatch::Reserve(std::size_t arrivals, std::size_t arena) {
  ends.reserve(arrivals);
  vertices.reserve(arena);
  rates.reserve(arrivals);
}

std::size_t ArrivalBatch::MemoryFootprint() const {
  return ends.capacity() * sizeof(std::uint32_t) +
         vertices.capacity() * sizeof(VertexId) +
         rates.capacity() * sizeof(Rate);
}

FlowTicket FlowCoverageIndex::ComposeTicket(std::uint32_t slot,
                                            std::uint32_t generation) {
  return static_cast<FlowTicket>(
      (static_cast<std::uint64_t>(generation) << 32) |
      static_cast<std::uint64_t>(slot));
}

std::uint32_t FlowCoverageIndex::TicketSlot(FlowTicket ticket) {
  return static_cast<std::uint32_t>(static_cast<std::uint64_t>(ticket) &
                                    kSlotMask32);
}

std::uint32_t FlowCoverageIndex::TicketGeneration(FlowTicket ticket) {
  return static_cast<std::uint32_t>(static_cast<std::uint64_t>(ticket) >>
                                    32);
}

FlowCoverageIndex::FlowCoverageIndex(graph::Digraph network, double lambda)
    : network_(std::move(network)),
      lambda_(lambda),
      classes_through_(static_cast<std::size_t>(network_.num_vertices())) {
  TDMD_CHECK_MSG(lambda >= 0.0 && lambda <= 1.0,
                 "lambda " << lambda << " outside [0, 1] (Section 3.1)");
}

std::uint32_t FlowCoverageIndex::FindClass(
    std::span<const VertexId> path) const {
  if (class_table_.empty()) return kNoClass;
  const std::size_t mask = class_table_.size() - 1;
  for (std::size_t i = HashPath(path) & mask;; i = (i + 1) & mask) {
    const std::uint32_t entry = class_table_[i];
    if (entry == 0) return kNoClass;
    const std::span<const VertexId> candidate = ClassPath(entry - 1);
    if (std::equal(candidate.begin(), candidate.end(), path.begin(),
                   path.end())) {
      return entry - 1;
    }
  }
}

std::uint32_t FlowCoverageIndex::NewClass(std::span<const VertexId> path) {
  const auto id = static_cast<std::uint32_t>(classes_.size());
  PathClass cls;
  cls.offset = static_cast<std::uint32_t>(path_arena_.size());
  cls.length = static_cast<std::uint32_t>(path.size());
  classes_.push_back(cls);
  path_arena_.insert(path_arena_.end(), path.begin(), path.end());
  visit_pos_.resize(path_arena_.size());

  const auto insert = [this](std::uint32_t c) {
    const std::size_t mask = class_table_.size() - 1;
    std::size_t i = HashPath(ClassPath(c)) & mask;
    while (class_table_[i] != 0) i = (i + 1) & mask;
    class_table_[i] = c + 1;
  };
  // Keep the load factor at or below 1/2; growing rehashes every class.
  if (2 * classes_.size() > class_table_.size()) {
    class_table_.assign(std::max<std::size_t>(16, 2 * class_table_.size()),
                        0);
    for (std::uint32_t c = 0; c <= id; ++c) insert(c);
  } else {
    insert(id);
  }
  return id;
}

void FlowCoverageIndex::LinkClass(std::uint32_t c) {
  const PathClass& cls = classes_[c];
  for (std::uint32_t i = 0; i < cls.length; ++i) {
    const VertexId v = path_arena_[cls.offset + i];
    auto& list = classes_through_[static_cast<std::size_t>(v)];
    visit_pos_[cls.offset + i] = static_cast<std::uint32_t>(list.size());
    list.push_back(Visit{c, static_cast<std::int32_t>(i), cls.edges()});
  }
  stats_.delta_ops += cls.length;
}

void FlowCoverageIndex::UnlinkClass(std::uint32_t c) {
  const PathClass& cls = classes_[c];
  for (std::uint32_t i = 0; i < cls.length; ++i) {
    const VertexId v = path_arena_[cls.offset + i];
    auto& list = classes_through_[static_cast<std::size_t>(v)];
    const std::uint32_t pos = visit_pos_[cls.offset + i];
    TDMD_DCHECK(pos < list.size() && list[pos].path_class == c);
    const Visit moved = list.back();
    list[pos] = moved;
    list.pop_back();
    if (moved.path_class != c) {
      // Fix the moved entry's back-pointer: its path_index tells us which
      // position of its own path this vertex is.
      visit_pos_[classes_[moved.path_class].offset +
                 static_cast<std::uint32_t>(moved.path_index)] = pos;
    }
  }
  stats_.delta_ops += cls.length;
}

void FlowCoverageIndex::IndexFlowIntoSlot(std::uint32_t slot,
                                          std::uint32_t path_class,
                                          Rate rate) {
  Slot& entry = slots_[slot];
  entry.rate = rate;
  entry.path_class = path_class;

  PathClass& cls = classes_[path_class];
  if (cls.active_flows == 0) LinkClass(path_class);
  ++cls.active_flows;
  cls.rate_sum += rate;

  ++active_count_;
  unprocessed_units_ += rate * cls.edges();
  ++stats_.arrivals;
  ++stats_.delta_ops;
}

FlowTicket FlowCoverageIndex::AddFlow(const traffic::Flow& flow) {
  const std::vector<VertexId>& path = flow.path.vertices;
  TDMD_CHECK_MSG(!path.empty() && path.front() == flow.src &&
                     path.back() == flow.dst,
                 "flow path endpoints disagree with src/dst");
  return AddFlow(path, flow.rate);
}

FlowTicket FlowCoverageIndex::AddFlow(std::span<const VertexId> path,
                                      Rate rate) {
  TDMD_CHECK_MSG(rate > 0, "flow rate must be positive");
  // A known path already passed the simple-path check when its class was
  // created, so only a new path pays for it.
  std::uint32_t path_class = FindClass(path);
  TDMD_CHECK_MSG(
      path_class != kNoClass || graph::IsSimplePath(network_, path),
      "flow path is not a simple path in the network");
  if (fault_injector_ != nullptr) {
    // Before any mutation: an injected throw leaves the index untouched,
    // so the engine's retry loop can simply call AddFlow again.
    fault_injector_->MaybeInject(faults::FaultSite::kIndexDelta);
  }
  if (path_class == kNoClass) path_class = NewClass(path);

  std::uint32_t slot = 0;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  // Generation was bumped at removal time; slot 0 of a fresh index starts
  // at generation 0, which is fine — the ticket is unique while active.
  IndexFlowIntoSlot(slot, path_class, rate);
  return ComposeTicket(slot, slots_[slot].generation);
}

bool FlowCoverageIndex::RemoveFlow(FlowTicket ticket) {
  if (LiveSlot(ticket) == nullptr) return false;
  if (fault_injector_ != nullptr) {
    // After the staleness check (stale removals are no-ops, not fault
    // sites) but before any mutation, for the same retry contract as
    // AddFlow.
    fault_injector_->MaybeInject(faults::FaultSite::kIndexDelta);
  }

  const std::uint32_t slot = TicketSlot(ticket);
  Slot& entry = slots_[slot];
  PathClass& cls = classes_[entry.path_class];
  TDMD_DCHECK(cls.active_flows > 0);
  --cls.active_flows;
  cls.rate_sum -= entry.rate;
  if (cls.active_flows == 0) UnlinkClass(entry.path_class);
  unprocessed_units_ -= entry.rate * cls.edges();

  entry.rate = 0;
  entry.path_class = kNoClass;
  ++entry.generation;  // invalidates outstanding tickets for this slot
  free_slots_.push_back(slot);
  --active_count_;
  ++stats_.departures;
  ++stats_.delta_ops;
  return true;
}

ClassKeyedFlows FlowCoverageIndex::LiveFlows() const {
  ClassKeyedFlows flows;
  flows.records.reserve(active_count_);
  // Index class -> record class, assigned at the class's first slot.
  std::vector<std::uint32_t> record_class(classes_.size(), kNoClass);
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    const Slot& entry = slots_[slot];
    if (entry.path_class == kNoClass) continue;
    std::uint32_t& c = record_class[entry.path_class];
    if (c == kNoClass) c = flows.AddClass(ClassPath(entry.path_class));
    flows.records.push_back(ClassKeyedFlows::Record{
        ComposeTicket(slot, entry.generation), c, entry.rate});
  }
  return flows;
}

void FlowCoverageIndex::RestoreSlots(
    const ClassKeyedFlows& active,
    const std::vector<FlowTicket>& free_slots) {
  TDMD_CHECK_MSG(slots_.empty() && active_count_ == 0,
                 "RestoreSlots requires a freshly constructed index");

  const std::size_t num_slots = active.records.size() + free_slots.size();
  slots_.resize(num_slots);
  std::vector<char> seen(num_slots, 0);
  const auto claim = [&](FlowTicket ticket) -> std::uint32_t {
    TDMD_CHECK_MSG(ticket >= 0, "checkpoint ticket is negative");
    const std::uint32_t slot = TicketSlot(ticket);
    TDMD_CHECK_MSG(slot < num_slots,
                   "checkpoint slot " << slot << " exceeds the slot table ("
                                      << num_slots << " entries)");
    TDMD_CHECK_MSG(!seen[slot],
                   "checkpoint repeats slot " << slot);
    seen[slot] = 1;
    return slot;
  };

  // Record class -> index class, resolved at the class's first record:
  // each distinct path is validated and hashed once.
  std::vector<std::uint32_t> index_class(active.num_classes(), kNoClass);
  for (const ClassKeyedFlows::Record& record : active.records) {
    TDMD_CHECK_MSG(record.rate > 0, "checkpoint flow rate must be positive");
    TDMD_CHECK_MSG(record.path_class < index_class.size(),
                   "checkpoint flow names unknown path class "
                       << record.path_class);
    std::uint32_t& path_class = index_class[record.path_class];
    if (path_class == kNoClass) {
      const std::span<const VertexId> path =
          active.ClassPath(record.path_class);
      path_class = FindClass(path);
      if (path_class == kNoClass) {
        TDMD_CHECK_MSG(
            graph::IsSimplePath(network_, path),
            "checkpoint flow path is not a simple path in the network");
        path_class = NewClass(path);
      }
    }
    const std::uint32_t slot = claim(record.ticket);
    slots_[slot].generation = TicketGeneration(record.ticket);
    IndexFlowIntoSlot(slot, path_class, record.rate);
  }
  // stats_ counted the restored flows as fresh arrivals; the caller
  // re-seats the counters via RestoreStats afterwards.
  free_slots_.reserve(free_slots.size());
  for (FlowTicket ticket : free_slots) {
    const std::uint32_t slot = claim(ticket);
    slots_[slot].generation = TicketGeneration(ticket);
    free_slots_.push_back(slot);
  }
}

std::vector<FlowTicket> FlowCoverageIndex::FreeSlotTickets() const {
  std::vector<FlowTicket> tickets;
  tickets.reserve(free_slots_.size());
  for (std::uint32_t slot : free_slots_) {
    tickets.push_back(ComposeTicket(slot, slots_[slot].generation));
  }
  return tickets;
}

const FlowCoverageIndex::Slot* FlowCoverageIndex::LiveSlot(
    FlowTicket ticket) const {
  if (ticket < 0) return nullptr;
  const std::uint32_t slot = TicketSlot(ticket);
  if (slot >= slots_.size()) return nullptr;
  const Slot& entry = slots_[slot];
  if (entry.path_class == kNoClass ||
      entry.generation != TicketGeneration(ticket)) {
    return nullptr;
  }
  return &entry;
}

std::uint32_t FlowCoverageIndex::ClassOf(FlowTicket ticket) const {
  const Slot* entry = LiveSlot(ticket);
  return entry == nullptr ? kNoClass : entry->path_class;
}

Rate FlowCoverageIndex::RateOf(FlowTicket ticket) const {
  const Slot* entry = LiveSlot(ticket);
  TDMD_CHECK_MSG(entry != nullptr, "RateOf on a stale ticket");
  return entry->rate;
}

traffic::Flow FlowCoverageIndex::FlowAt(FlowTicket ticket) const {
  const Slot* entry = LiveSlot(ticket);
  TDMD_CHECK_MSG(entry != nullptr, "FlowAt on a stale ticket");
  const std::span<const VertexId> path = ClassPath(entry->path_class);
  traffic::Flow flow;
  flow.src = path.front();
  flow.dst = path.back();
  flow.rate = entry->rate;
  flow.path.vertices.assign(path.begin(), path.end());
  return flow;
}

std::vector<FlowTicket> FlowCoverageIndex::ActiveTickets() const {
  std::vector<FlowTicket> tickets;
  tickets.reserve(active_count_);
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].path_class != kNoClass) {
      tickets.push_back(ComposeTicket(slot, slots_[slot].generation));
    }
  }
  return tickets;
}

std::size_t FlowCoverageIndex::MemoryFootprint() const {
  std::size_t bytes = network_.MemoryFootprint();
  bytes += classes_through_.capacity() * sizeof(std::vector<Visit>);
  for (const std::vector<Visit>& visits : classes_through_) {
    bytes += visits.capacity() * sizeof(Visit);
  }
  bytes += slots_.capacity() * sizeof(Slot);
  bytes += free_slots_.capacity() * sizeof(std::uint32_t);
  bytes += classes_.capacity() * sizeof(PathClass);
  bytes += path_arena_.capacity() * sizeof(VertexId);
  bytes += visit_pos_.capacity() * sizeof(std::uint32_t);
  bytes += class_table_.capacity() * sizeof(std::uint32_t);
  return bytes;
}

core::Instance FlowCoverageIndex::BuildInstance() const {
  traffic::FlowSet flows;
  flows.reserve(active_count_);
  for (FlowTicket ticket : ActiveTickets()) flows.push_back(FlowAt(ticket));
  return core::Instance(network_, std::move(flows), lambda_);
}

}  // namespace tdmd::engine
