#pragma once
/// \file soa_store.hpp
/// \brief Structure-of-arrays packet store for the soa_batch backend.
///
/// The scalar kernel keeps packets as an array of scheme-defined structs
/// (Pool<Pkt>).  The batch backend instead keeps one contiguous array per
/// field, shared by every adopting scheme:
///
///   node      — current node of the packet;
///   dest      — destination node;
///   gen_time  — generation time (windowed statistics key);
///   hops      — hops so far (arcs of hop weight 1: vertical arcs on the
///               butterfly);
///   aux       — scheme-defined: the hop distance at generation under
///               faults (the stretch baseline; Hamming distance on the
///               cube, of the rows on the butterfly), 0 when fault-free.
///
/// The routing phase of a batch step touches only node/dest/hops, so three
/// small arrays cover the hot loop's working set and the loop body is a
/// handful of same-shape array expressions — the layout the vectorizer
/// wants.  Ids are recycled through a LIFO free list exactly like Pool<T>;
/// packet ids are opaque to every metric, so the recycling order is
/// unobservable (what makes the backend's results bit-identical).

#include <cstdint>
#include <vector>

#include "util/assert.hpp"

namespace routesim {

/// The shared SoA packet store.  Fields are public parallel arrays indexed
/// by the id allocate() returns; release() recycles ids most recently freed
/// first; clear() forgets all packets but keeps the storage, so a store
/// reused across replications does not reallocate.
class SoaPacketStore {
 public:
  std::vector<std::uint32_t> node;
  std::vector<std::uint32_t> dest;
  std::vector<double> gen_time;
  std::vector<std::uint16_t> hops;
  std::vector<std::uint16_t> aux;

  [[nodiscard]] std::uint32_t allocate() {
    std::uint32_t id;
    if (!free_.empty()) {
      id = free_.back();
      free_.pop_back();
    } else {
      id = static_cast<std::uint32_t>(node.size());
      node.emplace_back();
      dest.emplace_back();
      gen_time.emplace_back();
      hops.emplace_back();
      aux.emplace_back();
    }
    return id;
  }

  void release(std::uint32_t id) {
    RS_DASSERT(id < node.size());
    free_.push_back(id);
  }

  /// Slots ever allocated (live + free).
  [[nodiscard]] std::size_t size() const noexcept { return node.size(); }

  void reserve(std::size_t n) {
    node.reserve(n);
    dest.reserve(n);
    gen_time.reserve(n);
    hops.reserve(n);
    aux.reserve(n);
    free_.reserve(n);
  }

  void clear() noexcept {
    node.clear();
    dest.clear();
    gen_time.clear();
    hops.clear();
    aux.clear();
    free_.clear();
  }

 private:
  std::vector<std::uint32_t> free_;
};

}  // namespace routesim
