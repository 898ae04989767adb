// Sequential skip list set (Pugh 1990), plus a coarse-grained wrapper.
//
// The probabilistically-balanced baseline: expected O(log n) search/insert/
// remove with no rebalancing.  Used standalone (sequential baseline in
// experiment E8), under a single lock (coarse baseline), and as the
// per-range sequential structure behind BatchedSkipListSet, which drives it
// through the Finger API below.
//
// FINGER SEARCH (Pugh's "search fingers"): a Finger remembers the
// predecessor tower of the last sought key.  seek() repositions it to a
// NON-DECREASING next key by ascending from the bottom level only as high
// as the key distance requires, then descending with movement — expected
// O(log d) comparisons for a gap of d elements instead of O(log n) from the
// head.  That is what makes sorted-batch application O(B + B log(N/B)): the
// batch pays one head descent and then B-1 short hops.
//
// Finger contract (single-threaded, like the rest of this class):
//   * finger() returns a fresh finger positioned before every key;
//   * seek(f, k) requires k >= every previously sought key on f (any
//     Compare order); after it, found_at/insert_new_at/remove_found_at may
//     be called for k;
//   * any mutation NOT made through a finger invalidates it (the finger
//     may hold dangling predecessor pointers) — re-create instead.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>

#include "core/rng.hpp"

namespace ccds {

inline constexpr int kSkipListMaxLevel = 16;

// Geometric level draw, p = 1/2, capped at kSkipListMaxLevel.
inline int skiplist_random_level() noexcept {
  const std::uint64_t r = thread_rng().next();
  const int zeros = r == 0 ? 63 : __builtin_ctzll(r);
  return zeros >= kSkipListMaxLevel ? kSkipListMaxLevel : zeros + 1;
}

// Deterministic geometric level draw keyed on a hash of the element: the
// same key always gets the same tower height, so a set's shape is a pure
// function of its key set, independent of insertion order, thread
// interleaving, or churn history.  E18's bench rows use this
// (SkipListLevels::kKeyed) so that structures holding the same keys have
// the same shape — with RNG levels, remove/reinsert churn makes two
// long-lived sets drift apart structurally, and the resulting few-percent
// traversal-cost asymmetry is the same order as the effects compared —
// and the model suites use it for schedule-independent towers.
// Mixer is splitmix64's finalizer (avalanches low bits, which ctz reads).
inline int skiplist_keyed_level(std::uint64_t h) noexcept {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  const int zeros = h == 0 ? 63 : __builtin_ctzll(h);
  return zeros >= kSkipListMaxLevel ? kSkipListMaxLevel : zeros + 1;
}

// Hash used by kKeyed tower draws.  Defaults to std::hash; element types
// without one (e.g. BatchedMap entries, whose identity is the key half)
// specialize this instead of std::hash.
template <typename T>
struct SkipListKeyHash {
  std::uint64_t operator()(const T& v) const {
    return static_cast<std::uint64_t>(std::hash<T>{}(v));
  }
};

// Tower-height policy: kRandom draws from the per-thread RNG (default);
// kKeyed derives the height from std::hash of the key, so towers are
// reproducible and a set's shape depends only on which keys it holds.
// Benchmarks that compare variants on separate long-lived sets use kKeyed
// to keep the sets structurally identical under churn; the model tests use
// it to keep explored schedules replayable (no RNG in the explored code).
enum class SkipListLevels { kRandom, kKeyed };

template <typename Key, typename Compare = std::less<Key>,
          SkipListLevels Levels = SkipListLevels::kRandom>
class SeqSkipListSet {
  struct Node;

 public:
  SeqSkipListSet() : head_(new Node{}) {}

  // Deep copy preserving every tower height (so the copy's shape — and
  // therefore its traversal costs — is identical to the source's, even
  // under SkipListLevels::kRandom).  One bottom-level walk with a per-level
  // tail array: append each cloned node to the levels its height spans.
  // PSim-backed batched structures copy-construct their state per episode
  // through this.
  SeqSkipListSet(const SeqSkipListSet& o)
      : head_(new Node{}),
        size_(o.size_),
        level_(o.level_),
        comp_(o.comp_) {
    Node* tails[kSkipListMaxLevel];
    for (int l = 0; l < kSkipListMaxLevel; ++l) tails[l] = head_;
    for (Node* n = o.head_->next[0]; n != nullptr; n = n->next[0]) {
      Node* c = new Node{};
      c->key = n->key;
      c->height = n->height;
      for (int l = 0; l < n->height; ++l) {
        tails[l]->next[l] = c;
        tails[l] = c;
      }
    }
  }

  SeqSkipListSet& operator=(const SeqSkipListSet&) = delete;

  ~SeqSkipListSet() {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->next[0];
      delete n;
      n = next;
    }
  }

  bool contains(const Key& key) const {
    Node* pred = head_;
    for (int level = level_ - 1; level >= 0; --level) {
      Node* curr = pred->next[level];
      while (curr != nullptr && comp_(curr->key, key)) {
        pred = curr;
        curr = curr->next[level];
      }
    }
    Node* curr = pred->next[0];
    return curr != nullptr && !comp_(key, curr->key);
  }

  bool insert(const Key& key) {
    Finger f = finger();
    seek(f, key);
    if (found_at(f, key)) return false;
    insert_new_at(f, key);
    return true;
  }

  bool remove(const Key& key) {
    Finger f = finger();
    seek(f, key);
    if (!found_at(f, key)) return false;
    remove_found_at(f);
    return true;
  }

  std::size_t size() const { return size_; }

  // A saved search position: preds[l] is a node strictly before the last
  // sought key at level l, exact (rightmost such node) for l <= top_.
  class Finger {
    friend SeqSkipListSet;
    Node* preds_[kSkipListMaxLevel];
    int top_ = -1;  // -1: fresh (no key sought yet; preds are all head)
  };

  Finger finger() const {
    Finger f;
    for (int l = 0; l < kSkipListMaxLevel; ++l) f.preds_[l] = head_;
    return f;
  }

  // Reposition `f` to `key` (>= every key previously sought on `f`).  A
  // fresh finger takes the classic top-down descent from the list's top
  // occupied level; a placed finger ascends only while the next level still
  // falls short of the key, then descends — O(log d) for a gap of d.
  void seek(Finger& f, const Key& key) const {
    Node* nxt = f.preds_[0]->next[0];
    if (nxt == nullptr || !comp_(nxt->key, key)) {
      // Already positioned: the bottom-level successor is >= key, so the
      // bottom pred is exact; upper levels may be stale-left (extend_exact
      // refreshes the ones a mutation needs).
      f.top_ = 0;
      return;
    }
    int lvl = 0;
    // Whether preds_[lvl]->next[lvl] is already known < key, letting the
    // descent take its first step at that level without re-comparing.
    bool first_step_known = true;
    if (f.top_ < 0) {
      lvl = level_ - 1;  // fresh finger: no position to ascend from
      first_step_known = lvl == 0;
    } else {
      while (lvl + 1 < level_) {
        Node* up = f.preds_[lvl + 1]->next[lvl + 1];
        if (up == nullptr || !comp_(up->key, key)) break;
        ++lvl;
      }
    }
    Node* p = f.preds_[lvl];
    for (int l = lvl; l >= 0; --l) {
      Node* c = p->next[l];
      if (first_step_known) {
        p = c;
        c = c->next[l];
        first_step_known = false;
      }
      while (c != nullptr && comp_(c->key, key)) {
        p = c;
        c = c->next[l];
      }
      f.preds_[l] = p;
    }
    f.top_ = lvl;
  }

  // Presence of `key` at a finger positioned by seek(f, key).
  bool found_at(const Finger& f, const Key& key) const {
    Node* c = f.preds_[0]->next[0];
    return c != nullptr && !comp_(key, c->key);
  }

  // Mutable access to the stored element found at the finger.
  // Precondition: found_at is true.  Callers may only modify it in ways
  // that preserve its ordering under Compare (e.g. the value half of a
  // map entry ordered by key) — anything else corrupts the list.
  Key& found_ref(const Finger& f) { return f.preds_[0]->next[0]->key; }

  // Splice `key` in at the finger.  Precondition: seek(f, key) ran and
  // found_at(f, key) is false.
  void insert_new_at(Finger& f, const Key& key) {
    const int height = draw_level(key);
    extend_exact(f, key, height - 1);
    Node* n = new Node{};
    n->key = key;
    n->height = height;
    for (int l = 0; l < height; ++l) {
      n->next[l] = f.preds_[l]->next[l];
      f.preds_[l]->next[l] = n;
    }
    if (height > level_) level_ = height;
    ++size_;
  }

  // Unlink the found node at the finger.  Precondition: seek(f, key) ran
  // and found_at(f, key) is true.  The finger stays valid (its preds are
  // never the victim).
  void remove_found_at(Finger& f) {
    Node* victim = f.preds_[0]->next[0];
    extend_exact(f, victim->key, victim->height - 1);
    for (int l = 0; l < victim->height; ++l) {
      if (f.preds_[l]->next[l] == victim) {
        f.preds_[l]->next[l] = victim->next[l];
      }
    }
    delete victim;
    --size_;
  }

 private:
  // Make preds_[l] exact (rightmost node < key) for every level <= upto.
  // Levels are independent: any stale-left predecessor reaches the exact
  // one by advancing while its successor is still < key.
  void extend_exact(Finger& f, const Key& key, int upto) const {
    for (int l = f.top_ + 1; l <= upto; ++l) {
      Node* p = f.preds_[l];
      Node* c = p->next[l];
      while (c != nullptr && comp_(c->key, key)) {
        p = c;
        c = c->next[l];
      }
      f.preds_[l] = p;
    }
    if (upto > f.top_) f.top_ = upto;
  }

  // Tower height per the Levels knob (header comment on kKeyed).
  static int draw_level(const Key& key) noexcept {
    if constexpr (Levels == SkipListLevels::kKeyed) {
      return skiplist_keyed_level(SkipListKeyHash<Key>{}(key));
    } else {
      return skiplist_random_level();
    }
  }

  struct Node {
    Key key{};
    int height = kSkipListMaxLevel;  // head default: full height
    Node* next[kSkipListMaxLevel] = {};
  };

  Node* const head_;
  std::size_t size_ = 0;
  // Top occupied level count: descents skip the empty levels above it.
  // Grows on insert, never shrinks (a removal leaving a level empty is
  // rare and harmless: the descent pays one null check).
  int level_ = 1;
  [[no_unique_address]] Compare comp_{};
};

// Coarse-grained skip list: the sequential structure under one lock.
template <typename Key, typename Compare = std::less<Key>,
          typename Lock = std::mutex>
class CoarseSkipListSet {
 public:
  bool contains(const Key& key) const {
    std::lock_guard<Lock> g(lock_);
    return impl_.contains(key);
  }
  bool insert(const Key& key) {
    std::lock_guard<Lock> g(lock_);
    return impl_.insert(key);
  }
  bool remove(const Key& key) {
    std::lock_guard<Lock> g(lock_);
    return impl_.remove(key);
  }
  std::size_t size() const {
    std::lock_guard<Lock> g(lock_);
    return impl_.size();
  }

 private:
  mutable Lock lock_;
  SeqSkipListSet<Key, Compare> impl_;
};

}  // namespace ccds
