// KeyedDeque and WindowBuffer: retained operator state partitioned on an
// SQL-equality key (DESIGN.md §18).
//
// An operator whose probe can only match tuples sharing the outer tuple's
// key (the NOT EXISTS of Example 1, the tag-joined SEQ of Example 6)
// keeps one deque per key, so a probe walks only the candidates of its
// own key, plus one shared arrival order across all keys, so eviction,
// the retained-tuple gauges and the checkpoint layout are exactly those
// of a single deque. An unkeyed operator is the one-partition case: every
// tuple encodes to the empty key.

#ifndef ESLEV_STREAM_WINDOW_BUFFER_H_
#define ESLEV_STREAM_WINDOW_BUFFER_H_

#include <cstdint>
#include <deque>
#include <iterator>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/time.h"
#include "types/sql_key.h"
#include "types/tuple.h"

namespace eslev {

/// \brief Items of type T partitioned by an encoded key, with one shared
/// arrival order.
///
/// `SeqOf` maps an item to its unique, increasing arrival number. It is
/// read only to recognise order slots whose item was removed from the
/// middle of its partition (Erase/Retain); a user that only ever pops the
/// oldest item may return a constant.
template <typename T, typename SeqOf>
class KeyedDeque {
 public:
  struct Partition {
    std::deque<T> items;    // arrival order within the key
    size_t order_refs = 0;  // shared-order slots naming this partition
    mutable size_t cursor = 0;  // ForEachInOrder scratch
    const std::string* key = nullptr;  // the owning map node's key
  };

 private:
  using Map = std::unordered_map<std::string, Partition>;

 public:
  KeyedDeque() = default;
  // Partitions and order slots point into the map's nodes.
  KeyedDeque(const KeyedDeque&) = delete;
  KeyedDeque& operator=(const KeyedDeque&) = delete;
  KeyedDeque(KeyedDeque&&) = default;

  /// \brief Append `item` under `key` (arrival order must be increasing).
  T& PushBack(const std::string& key, T item) {
    // Slots of items removed mid-partition drain from the front of the
    // shared order; rebuild it when they outnumber the live items. Done
    // here rather than in Erase/Retain, so a caller's Partition pointers
    // stay valid until its next append.
    if (removed_ > size_ + 64) Compact();
    Partition& p = Upsert(key);
    order_.push_back({&p, SeqOf{}(item)});
    ++p.order_refs;
    if (p.items.empty()) ++live_parts_;
    p.items.push_back(std::move(item));
    ++size_;
    return p.items.back();
  }

  /// \brief The partition of `key`, or nullptr when nothing is retained
  /// under it. Valid until the next PushBack, Front or PopFront (an
  /// emptied partition is erased once its order slots drain).
  Partition* Find(const std::string& key) {
    Partition* p = Lookup(key);
    return p == nullptr || p->items.empty() ? nullptr : p;
  }
  const Partition* Find(const std::string& key) const {
    return const_cast<KeyedDeque*>(this)->Find(key);
  }

  /// \brief The oldest retained item across all keys (nullptr if none).
  const T* Front() {
    SkipRemoved();
    return order_.empty() ? nullptr : &order_.front().part->items.front();
  }

  /// \brief Remove the oldest retained item (Front() must be non-null).
  void PopFront() {
    SkipRemoved();
    Partition* p = order_.front().part;
    order_.pop_front();
    p->items.pop_front();
    --size_;
    if (p->items.empty()) --live_parts_;
    Release(p);
  }

  /// \brief Remove the item at `index` of partition `p`.
  void Erase(Partition* p, size_t index) {
    p->items.erase(p->items.begin() + static_cast<std::ptrdiff_t>(index));
    Removed(p, 1);
  }

  /// \brief Keep only the items of `p` at the ascending indices `keep`.
  void Retain(Partition* p, const std::vector<size_t>& keep) {
    const size_t before = p->items.size();
    if (keep.size() == before) return;
    for (size_t i = 0; i < keep.size(); ++i) {
      if (keep[i] != i) p->items[i] = std::move(p->items[keep[i]]);
    }
    p->items.resize(keep.size());
    Removed(p, before - keep.size());
  }

  /// \brief Visit every retained item in arrival order across keys; stop
  /// early when `f` returns false.
  template <typename F>
  void ForEachInOrder(F f) const {
    for (const auto& kv : parts_) kv.second.cursor = 0;
    for (const Slot& s : order_) {
      const Partition& p = *s.part;
      if (p.cursor < p.items.size() && SeqOf{}(p.items[p.cursor]) == s.seq) {
        if (!f(p.items[p.cursor++])) return;
      }
    }
  }

  /// \brief Visit every retained item, key by key (cheaper than
  /// ForEachInOrder when the order does not matter).
  template <typename F>
  void ForEachItem(F f) const {
    for (const auto& kv : parts_) {
      for (const T& item : kv.second.items) f(item);
    }
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// \brief Keys with at least one retained item.
  size_t partitions() const { return live_parts_; }

  void Clear() {
    parts_.clear();
    spares_.clear();
    order_.clear();
    size_ = 0;
    removed_ = 0;
    live_parts_ = 0;
    hot_ = nullptr;
  }

 private:
  struct Slot {
    Partition* part;
    uint64_t seq;
  };

  // The partition of `key`, if any. Consecutive calls mostly name the
  // same key (every call, when unkeyed), so the last hit is checked
  // before hashing.
  Partition* Lookup(const std::string& key) {
    if (hot_ != nullptr && *hot_->key == key) return hot_;
    auto it = parts_.find(key);
    if (it == parts_.end()) return nullptr;
    hot_ = &it->second;
    return hot_;
  }

  // The partition of `key`, created if absent, in one probe of the map.
  Partition& Upsert(const std::string& key) {
    if (hot_ != nullptr && *hot_->key == key) return *hot_;
    typename Map::iterator it;
    if (spares_.empty()) {
      it = parts_.try_emplace(key).first;
    } else {
      // Offer a spare node under `key`; it comes back if the key exists.
      spares_.back().key() = key;
      auto res = parts_.insert(std::move(spares_.back()));
      it = res.position;
      if (res.inserted) {
        spares_.pop_back();
      } else {
        spares_.back() = std::move(res.node);
      }
    }
    it->second.key = &it->first;
    return *(hot_ = &it->second);
  }

  // Partitions that hold neither items nor slots are unlinked from the
  // map. Their nodes, deque buffers included, go to a free list that new
  // keys draw on first, so a stream of ever-new keys (one tag read after
  // another) allocates nothing once warm; live and spare nodes together
  // never outnumber the most partitions ever held at once.
  void Drop(typename Map::iterator it) {
    if (&it->second == hot_) hot_ = nullptr;
    spares_.push_back(parts_.extract(it));
  }

  // Drop leading order slots whose item was erased from mid-partition.
  void SkipRemoved() {
    while (!order_.empty()) {
      const Slot& s = order_.front();
      if (!s.part->items.empty() && SeqOf{}(s.part->items.front()) == s.seq) {
        return;
      }
      Partition* p = s.part;
      order_.pop_front();
      --removed_;
      Release(p);
    }
  }

  // Drop one order slot of `p`, erasing the partition once it holds
  // neither items nor slots.
  void Release(Partition* p) {
    if (--p->order_refs > 0 || !p->items.empty()) return;
    if (p == hot_) hot_ = nullptr;
    spares_.push_back(parts_.extract(*p->key));
  }

  void Removed(Partition* p, size_t n) {
    if (n == 0) return;
    size_ -= n;
    removed_ += n;
    if (p->items.empty()) --live_parts_;
  }

  void Compact() {
    std::deque<Slot> live;
    for (auto& kv : parts_) {
      kv.second.cursor = 0;
      kv.second.order_refs = 0;
    }
    for (const Slot& s : order_) {
      Partition& p = *s.part;
      if (p.cursor < p.items.size() && SeqOf{}(p.items[p.cursor]) == s.seq) {
        ++p.cursor;
        ++p.order_refs;
        live.push_back(s);
      }
    }
    order_ = std::move(live);
    removed_ = 0;
    for (auto it = parts_.begin(); it != parts_.end();) {
      auto next = std::next(it);
      if (it->second.items.empty()) Drop(it);
      it = next;
    }
  }

  Map parts_;
  std::vector<typename Map::node_type> spares_;  // dropped nodes, reusable
  Partition* hot_ = nullptr;  // last partition looked up
  std::deque<Slot> order_;
  size_t size_ = 0;
  size_t removed_ = 0;     // order slots of items removed mid-partition
  size_t live_parts_ = 0;  // partitions holding at least one item
};

/// \brief Holds the tuples of a PRECEDING window, partitioned on the
/// operator's equality key (one partition when unkeyed).
///
/// Time windows are *inclusive*: at current time T with length L the
/// window covers timestamps in [T - L, T] (the paper's duplicate filter
/// treats a reading exactly 1 second earlier as a duplicate).
class WindowBuffer {
 public:
  /// `key` names the stored tuples' key columns; empty = unkeyed.
  WindowBuffer(bool row_based, int64_t length,
               std::vector<size_t> key = {})
      : row_based_(row_based), length_(length), key_(std::move(key)) {}

  /// \brief Append a tuple (timestamps must be non-decreasing) and evict
  /// anything that fell out of the window.
  void Add(const Tuple& tuple) {
    Push(tuple);
    EvictAt(tuple.ts());
  }

  /// \brief Bulk append with one eviction pass at the last timestamp.
  /// Final contents are identical to per-tuple Add() — eviction is
  /// monotone in the watermark, so only the deepest cut matters — which
  /// is only valid when nothing probes the buffer mid-batch.
  template <typename Iter>
  void AddBatch(Iter first, Iter last) {
    if (first == last) return;
    Timestamp ts = 0;
    for (; first != last; ++first) {
      Push(*first);
      ts = first->ts();
    }
    EvictAt(ts);
  }

  /// \brief Evict expired tuples as of `now` (heartbeats).
  void EvictAt(Timestamp now) {
    if (row_based_) {
      while (state_.size() > static_cast<size_t>(length_)) state_.PopFront();
    } else {
      while (const Tuple* t = state_.Front()) {
        if (t->ts() >= now - length_) break;
        state_.PopFront();
      }
    }
  }

  /// \brief Replace the contents wholesale (checkpoint restore), in
  /// arrival order, rebuilding the key index. Bypasses eviction: the
  /// tuples were already within the window when saved.
  void Assign(std::deque<Tuple> tuples) {
    state_.Clear();
    for (const Tuple& t : tuples) Push(t);
  }

  /// \brief The retained tuples whose key encodes to `key` (see
  /// EncodeSqlKey), oldest first; nullptr when there are none.
  const std::deque<Tuple>* Partition(const std::string& key) const {
    const auto* p = state_.Find(key);
    return p == nullptr ? nullptr : &p->items;
  }

  /// \brief Visit all retained tuples oldest first; `f` returns false to
  /// stop.
  template <typename F>
  void ForEach(F f) const {
    state_.ForEachInOrder(f);
  }
  /// \brief The oldest retained tuple (buffer must be non-empty).
  const Tuple& front() { return *state_.Front(); }

  size_t size() const { return state_.size(); }
  bool empty() const { return state_.empty(); }
  /// \brief Distinct keys currently retained (1 when unkeyed and
  /// non-empty).
  size_t key_partitions() const { return state_.partitions(); }
  void Clear() { state_.Clear(); }

  bool row_based() const { return row_based_; }
  int64_t length() const { return length_; }
  bool keyed() const { return !key_.empty(); }

 private:
  // Tuples are only ever popped oldest-first, so the shared order needs
  // no arrival numbers.
  struct NoSeq {
    uint64_t operator()(const Tuple&) const { return 0; }
  };

  void Push(const Tuple& tuple) {
    // A NULL key matches nothing, but the tuple still occupies the
    // window: it lives under the empty key, which keyed probes never
    // ask for.
    if (!EncodeSqlKey(tuple, key_, &scratch_key_)) scratch_key_.clear();
    state_.PushBack(scratch_key_, tuple);
  }

  bool row_based_;
  int64_t length_;
  std::vector<size_t> key_;
  KeyedDeque<Tuple, NoSeq> state_;
  std::string scratch_key_;
};

}  // namespace eslev

#endif  // ESLEV_STREAM_WINDOW_BUFFER_H_
