// Sequential pairing heap.
//
// The paper's wish list for a parameterized benchmark cites Larkin, Sen &
// Tarjan's back-to-basics study, where the pairing heap is the strongest
// pointer-based sequential contender. We provide it as an alternative
// backing queue for the MultiQueue (the ablation-mq-c preset compares
// binary-heap-backed vs pairing-heap-backed MultiQueues) and as a sequential
// baseline in bench_components.
//
// Standard two-pass (pairing) delete-min; O(1) insert; amortized O(log n)
// delete_min.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace cpq::seq {

template <typename Key, typename Value>
class PairingHeap {
 public:
  using key_type = Key;
  using value_type = Value;

  PairingHeap() = default;

  ~PairingHeap() { clear(); }

  PairingHeap(const PairingHeap&) = delete;
  PairingHeap& operator=(const PairingHeap&) = delete;

  PairingHeap(PairingHeap&& other) noexcept
      : root_(other.root_), size_(other.size_) {
    other.root_ = nullptr;
    other.size_ = 0;
  }

  PairingHeap& operator=(PairingHeap&& other) noexcept {
    if (this != &other) {
      clear();
      root_ = other.root_;
      size_ = other.size_;
      other.root_ = nullptr;
      other.size_ = 0;
    }
    return *this;
  }

  bool empty() const noexcept { return root_ == nullptr; }
  std::size_t size() const noexcept { return size_; }

  void clear() noexcept {
    // Iterative destruction to avoid recursion depth on long child lists.
    std::vector<Node*> stack;
    if (root_) stack.push_back(root_);
    while (!stack.empty()) {
      Node* n = stack.back();
      stack.pop_back();
      if (n->child) stack.push_back(n->child);
      if (n->sibling) stack.push_back(n->sibling);
      delete n;
    }
    root_ = nullptr;
    size_ = 0;
  }

  void insert(Key key, Value value) {
    Node* node = new Node{std::move(key), std::move(value), nullptr, nullptr};
    root_ = root_ ? meld(root_, node) : node;
    ++size_;
  }

  const Key& min_key() const noexcept {
    assert(!empty());
    return root_->key;
  }

  const Value& min_value() const noexcept {
    assert(!empty());
    return root_->value;
  }

  bool delete_min(Key& key_out, Value& value_out) {
    if (!root_) return false;
    Node* old_root = root_;
    key_out = std::move(old_root->key);
    value_out = std::move(old_root->value);
    root_ = merge_pairs(old_root->child);
    delete old_root;
    --size_;
    return true;
  }

 private:
  struct Node {
    Key key;
    Value value;
    Node* child;
    Node* sibling;
  };

  static Node* meld(Node* a, Node* b) noexcept {
    if (b->key < a->key) std::swap(a, b);
    // b becomes the first child of a.
    b->sibling = a->child;
    a->child = b;
    return a;
  }

  // Two-pass pairing: left-to-right pairwise meld, then right-to-left fold.
  // Iterative to bound stack depth.
  static Node* merge_pairs(Node* first) noexcept {
    if (!first) return nullptr;
    std::vector<Node*> pairs;
    while (first) {
      Node* a = first;
      Node* b = a->sibling;
      first = b ? b->sibling : nullptr;
      a->sibling = nullptr;
      if (b) {
        b->sibling = nullptr;
        pairs.push_back(meld(a, b));
      } else {
        pairs.push_back(a);
      }
    }
    Node* result = pairs.back();
    for (std::size_t i = pairs.size() - 1; i-- > 0;) {
      result = meld(pairs[i], result);
    }
    return result;
  }

  Node* root_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace cpq::seq
