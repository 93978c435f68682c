// PRObject and ObjectStore: the replicated data items a partition holds.
//
// PRObject is the paper's common interface for replicated data items
// (§5.2). Objects move between partitions as immutable-in-flight clones;
// the store indexes them by id and by home vertex so partitioning plans can
// relocate a whole vertex at once.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ids.h"
#include "core/types.h"

namespace dynastar::core {

/// Base class for replicated application data items.
class PRObject {
 public:
  virtual ~PRObject() = default;

  /// Deep copy; used when objects are shipped between partitions (S-SMR
  /// sends copies, DynaStar moves the original and keeps none).
  [[nodiscard]] virtual std::unique_ptr<PRObject> clone() const = 0;

  /// Approximate serialized size, for network cost accounting.
  [[nodiscard]] virtual std::size_t size_bytes() const { return 64; }

  /// Content hash over every semantic field; two objects with equal state
  /// must digest equally, and any mutation must change the digest. Used by
  /// the workload write-set audit (a declared read-only command must leave
  /// every digest unchanged). 0 = not implemented — audits self-validate by
  /// also requiring that writes DO move the digest, so an unimplemented
  /// digest fails loudly rather than vacuously passing.
  [[nodiscard]] virtual std::uint64_t digest() const { return 0; }
};

/// FNV-1a fold helper for digest() implementations.
inline std::uint64_t digest_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

using ObjectPtr = std::shared_ptr<PRObject>;

/// A partition replica's local object storage with a vertex index.
class ObjectStore {
 public:
  /// Inserts or replaces an object. The vertex is the object's home vertex.
  void put(ObjectId id, VertexId vertex, ObjectPtr object) {
    auto it = objects_.find(id);
    if (it != objects_.end()) {
      if (it->second.vertex != vertex) {
        by_vertex_[it->second.vertex].erase(id);
        by_vertex_[vertex].insert(id);
        it->second.vertex = vertex;
      }
      it->second.object = std::move(object);
      return;
    }
    objects_.emplace(id, Entry{vertex, std::move(object)});
    by_vertex_[vertex].insert(id);
  }

  [[nodiscard]] bool contains(ObjectId id) const {
    return objects_.contains(id);
  }

  /// Mutable access for command execution; nullptr when absent.
  [[nodiscard]] PRObject* find(ObjectId id) {
    auto it = objects_.find(id);
    return it == objects_.end() ? nullptr : it->second.object.get();
  }

  [[nodiscard]] const PRObject* find(ObjectId id) const {
    auto it = objects_.find(id);
    return it == objects_.end() ? nullptr : it->second.object.get();
  }

  [[nodiscard]] VertexId vertex_of(ObjectId id) const {
    auto it = objects_.find(id);
    return it == objects_.end() ? VertexId{UINT64_MAX} : it->second.vertex;
  }

  /// Removes and returns the object (nullptr if absent).
  ObjectPtr take(ObjectId id) {
    auto it = objects_.find(id);
    if (it == objects_.end()) return nullptr;
    ObjectPtr obj = std::move(it->second.object);
    by_vertex_[it->second.vertex].erase(id);
    objects_.erase(it);
    return obj;
  }

  /// All object ids homed at `vertex` (copy: callers mutate the store).
  [[nodiscard]] std::vector<ObjectId> objects_of_vertex(VertexId vertex) const {
    auto it = by_vertex_.find(vertex);
    if (it == by_vertex_.end()) return {};
    return {it->second.begin(), it->second.end()};
  }

  [[nodiscard]] std::size_t size() const { return objects_.size(); }

  /// Clone of the whole store with every object deep-copied — checkpoint
  /// capture/restore must not alias live mutable objects.
  [[nodiscard]] ObjectStore deep_copy() const {
    ObjectStore copy;
    for (const auto& [id, entry] : objects_) {
      copy.put(id, entry.vertex,
               entry.object ? ObjectPtr(entry.object->clone()) : nullptr);
    }
    return copy;
  }

  /// Approximate serialized size of the whole store, for snapshot-transfer
  /// network cost accounting.
  [[nodiscard]] std::size_t total_bytes() const {
    std::size_t total = 0;
    for (const auto& [id, entry] : objects_)
      total += 16 + (entry.object ? entry.object->size_bytes() : 0);
    return total;
  }

 private:
  struct Entry {
    VertexId vertex;
    ObjectPtr object;
  };
  std::unordered_map<ObjectId, Entry> objects_;
  std::unordered_map<VertexId, std::unordered_set<ObjectId>> by_vertex_;
};

}  // namespace dynastar::core
