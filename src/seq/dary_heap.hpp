// Sequential d-ary implicit min-heap.
//
// Larkin, Sen & Tarjan's back-to-basics study (cited by the paper as the
// natural sorting-benchmark baseline) finds implicit d-ary heaps with d in
// {4, 8} the strongest sequential priority queues in practice: the wider
// node trades comparisons for a shallower tree and much better cache
// behaviour on the sift-down path. Provided as an alternative MultiQueue
// backing store (mq-dary in the registry) and a bench_components
// subject.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace cpq::seq {

template <typename Key, typename Value, unsigned Arity = 4>
class DaryHeap {
  static_assert(Arity >= 2, "a heap needs at least two children per node");

 public:
  using key_type = Key;
  using value_type = Value;

  DaryHeap() = default;

  explicit DaryHeap(std::size_t initial_capacity) {
    items_.reserve(initial_capacity);
  }

  bool empty() const noexcept { return items_.empty(); }
  std::size_t size() const noexcept { return items_.size(); }
  void clear() noexcept { items_.clear(); }
  void reserve(std::size_t n) { items_.reserve(n); }

  void insert(Key key, Value value) {
    items_.emplace_back(std::move(key), std::move(value));
    sift_up(items_.size() - 1);
  }

  const Key& min_key() const noexcept {
    assert(!empty());
    return items_.front().first;
  }

  const Value& min_value() const noexcept {
    assert(!empty());
    return items_.front().second;
  }

  bool delete_min(Key& key_out, Value& value_out) {
    if (items_.empty()) return false;
    key_out = std::move(items_.front().first);
    value_out = std::move(items_.front().second);
    items_.front() = std::move(items_.back());
    items_.pop_back();
    if (!items_.empty()) sift_down(0);
    return true;
  }

  bool is_valid_heap() const noexcept {
    for (std::size_t i = 1; i < items_.size(); ++i) {
      if (items_[i].first < items_[(i - 1) / Arity].first) return false;
    }
    return true;
  }

 private:
  void sift_up(std::size_t i) noexcept {
    auto item = std::move(items_[i]);
    while (i > 0) {
      const std::size_t parent = (i - 1) / Arity;
      if (!(item.first < items_[parent].first)) break;
      items_[i] = std::move(items_[parent]);
      i = parent;
    }
    items_[i] = std::move(item);
  }

  void sift_down(std::size_t i) noexcept {
    const std::size_t n = items_.size();
    auto item = std::move(items_[i]);
    for (;;) {
      const std::size_t first_child = Arity * i + 1;
      if (first_child >= n) break;
      const std::size_t last_child =
          first_child + Arity <= n ? first_child + Arity : n;
      std::size_t smallest = first_child;
      for (std::size_t c = first_child + 1; c < last_child; ++c) {
        if (items_[c].first < items_[smallest].first) smallest = c;
      }
      if (!(items_[smallest].first < item.first)) break;
      items_[i] = std::move(items_[smallest]);
      i = smallest;
    }
    items_[i] = std::move(item);
  }

  std::vector<std::pair<Key, Value>> items_;
};

}  // namespace cpq::seq
